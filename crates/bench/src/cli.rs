//! The `underradar` front end: one strict flag grammar for
//! `underradar experiments` and `underradar campaign`, and the output
//! modes both print in.
//!
//! ```text
//! underradar experiments [e1..e14|a1|all] [MODE] [--trace-capacity N]
//! underradar campaign [MODE] [--trace-capacity N] [campaign flags]
//! ```
//!
//! At most one mode flag chooses what a run prints:
//!
//! * none — the plain-text report;
//! * `--json` — run with telemetry enabled and print one JSON object
//!   `{"experiment": .., "report": .., "telemetry": <registry>}` suitable
//!   for piping into analysis tooling;
//! * `--jsonl` — stream one JSON object per row: an experiment emits a
//!   row per report line plus a trailing telemetry row; the campaign
//!   emits one verdict row per trial the moment it completes;
//! * `--telemetry` — print the report followed by the registry's text
//!   rendering;
//! * `--trace` — run with the flight recorder live and print the report,
//!   then the trace as JSON lines, then the explainer's causal chains.
//!   The report section is byte-identical to the plain output;
//! * campaign only: `--audit[=json]` and `--trace-diff A B` (see
//!   [`campaign`]).
//!
//! `--trace-capacity N` sizes the flight-recorder ring of traced runs
//! (default 4096 records); it never turns tracing on by itself. An
//! unknown flag, a second mode flag, a missing value or a malformed
//! number is a usage error that names the input (exit status 2).
//! `experiments all` prints every plain report and takes no flags.

pub mod campaign;

use std::io::Write;
use std::path::PathBuf;

use underradar_runner::ProgressConfig;
use underradar_telemetry::{json, trace, Registry, Telemetry, DEFAULT_TRACE_CAPACITY};

use crate::experiments;

/// Why a subcommand stopped before finishing its output.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong (exit status 2).
    Usage(String),
    /// The run failed (exit status 1).
    Run(String),
}

/// How a run presents its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Plain-text report only.
    Text,
    /// Report plus a text rendering of the telemetry registry.
    TextWithTelemetry,
    /// One JSON object carrying the report and the registry.
    Json,
    /// One JSON object per row.
    Jsonl,
    /// Report plus the flight-recorder trace (JSON lines) and the
    /// explainer's per-trial causal chains.
    Trace,
}

impl OutputMode {
    /// The telemetry handle an experiment runs under: disabled for plain
    /// text, a `trace_capacity`-record flight recorder for `--trace`,
    /// enabled otherwise.
    pub fn telemetry_handle(self, trace_capacity: usize) -> Telemetry {
        match self {
            OutputMode::Text => Telemetry::disabled(),
            OutputMode::Trace => Telemetry::with_trace(trace_capacity),
            _ => Telemetry::enabled(),
        }
    }

    /// Render the complete stdout for this mode — the single place the
    /// mode-to-bytes mapping lives (pinned by the CLI golden test).
    pub fn render(self, name: &str, report: &str, registry: &Registry) -> String {
        match self {
            OutputMode::Text => report.to_string(),
            OutputMode::TextWithTelemetry => {
                format!("{report}--- telemetry ---\n{}", registry.render_text())
            }
            OutputMode::Json => {
                let mut out = render_json(name, report, registry);
                out.push('\n');
                out
            }
            OutputMode::Jsonl => render_jsonl(name, report, registry),
            OutputMode::Trace => render_trace(report, registry),
        }
    }
}

/// What a run prints: an [`OutputMode`], or one of the campaign's own
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A report in one of the shared output modes.
    Output(OutputMode),
    /// `--audit` (text) or `--audit=json`: the report, then the safety
    /// audit.
    Audit {
        /// Render the audit as sorted-key JSON.
        json: bool,
    },
    /// `--trace-diff A B`: the first divergent stage decision between two
    /// trials' traces.
    TraceDiff(u64, u64),
}

/// Which subcommand's flags [`parse`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `underradar experiments NAME`: the output modes and
    /// `--trace-capacity`.
    Experiments,
    /// `underradar campaign`: everything.
    Campaign,
}

/// A parsed command line. The campaign-only fields keep their defaults
/// for [`Command::Experiments`].
#[derive(Debug)]
pub struct Args {
    /// The one mode chosen (plain text when no mode flag is given).
    pub mode: Mode,
    /// Flight-recorder ring capacity for traced runs.
    pub trace_capacity: usize,
    /// Worker threads.
    pub shards: usize,
    /// Adversarial client-link impairments.
    pub impair: bool,
    /// Wall-clock stage profile on stderr.
    pub profile: bool,
    /// Where to write the stage timings and run profile as JSON.
    pub profile_json: Option<PathBuf>,
    /// Progress snapshots on stderr.
    pub progress: Option<ProgressConfig>,
    /// Checkpoint journal path.
    pub checkpoint: Option<PathBuf>,
    /// Replace the paper matrix with an `N`-trial synthetic one.
    pub synthetic: Option<usize>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            mode: Mode::Output(OutputMode::Text),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            shards: 1,
            impair: false,
            profile: false,
            profile_json: None,
            progress: None,
            checkpoint: None,
            synthetic: None,
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a non-negative integer"))
}

/// Parse `args` under `cmd`'s grammar. A value follows its flag either
/// inline (`--flag=value`) or as the next argument; a later occurrence
/// of a value flag overrides an earlier one. An unknown flag, a second
/// mode flag, a missing value or a malformed number is an error that
/// names the input.
pub fn parse(args: &[String], cmd: Command) -> Result<Args, String> {
    let campaign = cmd == Command::Campaign;
    let mut parsed = Args::default();
    let mut mode_flag: Option<&str> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
            _ => (arg.as_str(), None),
        };
        // The flag's value: inline (`--flag=value`) or the next argument.
        let mut value = || {
            inline
                .map(str::to_string)
                .or_else(|| rest.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let mode = match (flag, inline) {
            ("--json", None) => Mode::Output(OutputMode::Json),
            ("--jsonl", None) => Mode::Output(OutputMode::Jsonl),
            ("--telemetry", None) => Mode::Output(OutputMode::TextWithTelemetry),
            ("--trace", None) => Mode::Output(OutputMode::Trace),
            ("--audit", None) if campaign => Mode::Audit { json: false },
            ("--audit", Some("json")) if campaign => Mode::Audit { json: true },
            ("--trace-diff", None) if campaign => {
                Mode::TraceDiff(number(flag, &value()?)?, number(flag, &value()?)?)
            }
            _ => {
                match (flag, inline) {
                    ("--trace-capacity", _) => {
                        let v = value()?;
                        parsed.trace_capacity = trace::parse_capacity(&v)
                            .ok_or_else(|| format!("{flag}: '{v}' is not a positive integer"))?;
                    }
                    ("--shards", _) if campaign => parsed.shards = number(flag, &value()?)?,
                    ("--synthetic", _) if campaign => {
                        parsed.synthetic = Some(number(flag, &value()?)?);
                    }
                    ("--checkpoint", _) if campaign => {
                        parsed.checkpoint = Some(PathBuf::from(value()?));
                    }
                    ("--profile-json", _) if campaign => {
                        parsed.profile_json = Some(PathBuf::from(value()?));
                    }
                    ("--progress", None) if campaign => {
                        parsed.progress = Some(ProgressConfig::default());
                    }
                    ("--progress", Some(v)) if campaign => {
                        parsed.progress = Some(ProgressConfig {
                            every_trials: number(flag, v)?,
                            ..ProgressConfig::default()
                        });
                    }
                    ("--impair", None) if campaign => parsed.impair = true,
                    ("--profile", None) if campaign => parsed.profile = true,
                    _ if arg.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
                    _ => return Err(format!("unexpected argument '{arg}'")),
                }
                continue;
            }
        };
        if let Some(first) = mode_flag.replace(arg) {
            return Err(format!(
                "'{first}' and '{arg}' both choose the output mode; give one"
            ));
        }
        parsed.mode = mode;
    }
    Ok(parsed)
}

/// Write `out` to stdout. A failed write (say, a closed pipe) is a run
/// failure that names stdout, not a panic.
pub fn write_stdout(out: &str) -> Result<(), Failure> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| Failure::Run(format!("stdout: {e}")))
}

/// `underradar experiments [NAME] [MODE] [--trace-capacity N]`: run the
/// experiment [`experiments::find`] names and print it in the chosen
/// mode, or print every plain report for `all` (the default), which
/// takes no flags.
pub fn experiments(args: &[String]) -> Result<(), Failure> {
    let (which, flags) = match args.split_first() {
        Some((name, flags)) if !name.starts_with('-') => (name.as_str(), flags),
        _ => ("all", args),
    };
    if which.eq_ignore_ascii_case("all") {
        if let Some(flag) = flags.first() {
            return Err(Failure::Usage(format!(
                "experiments all prints the plain reports and takes no flags, got '{flag}'"
            )));
        }
        return write_stdout(&experiments::run_all());
    }
    let (name, run) = experiments::find(which).ok_or_else(|| {
        Failure::Usage(format!("unknown experiment '{which}' (e1..e14, a1 or all)"))
    })?;
    let args = parse(flags, Command::Experiments).map_err(Failure::Usage)?;
    let Mode::Output(mode) = args.mode else {
        unreachable!("the experiments grammar has only output modes");
    };
    let tel = mode.telemetry_handle(args.trace_capacity);
    let report = run(&tel);
    write_stdout(&mode.render(name, &report, &tel.snapshot()))
}

/// Render the `--json` envelope for one experiment.
fn render_json(name: &str, report: &str, registry: &Registry) -> String {
    let mut out = String::from("{");
    json::push_key(&mut out, "experiment");
    json::push_str_value(&mut out, name);
    out.push(',');
    json::push_key(&mut out, "report");
    json::push_str_value(&mut out, report);
    out.push(',');
    json::push_key(&mut out, "telemetry");
    out.push_str(&registry.to_json());
    out.push('}');
    out
}

/// Render the `--jsonl` stream for an experiment: one JSON object per
/// report line (self-describing, pipeline-friendly) followed by one
/// telemetry object. The campaign streams true per-trial rows instead.
fn render_jsonl(name: &str, report: &str, registry: &Registry) -> String {
    let mut out = String::new();
    for (i, line) in report.lines().enumerate() {
        out.push('{');
        json::push_key(&mut out, "experiment");
        json::push_str_value(&mut out, name);
        out.push(',');
        json::push_key(&mut out, "line");
        out.push_str(&i.to_string());
        out.push(',');
        json::push_key(&mut out, "text");
        json::push_str_value(&mut out, line);
        out.push_str("}\n");
    }
    out.push('{');
    json::push_key(&mut out, "experiment");
    json::push_str_value(&mut out, name);
    out.push(',');
    json::push_key(&mut out, "telemetry");
    out.push_str(&registry.to_json());
    out.push_str("}\n");
    out
}

/// Render the `--trace` output: the unchanged report, the trace as JSON
/// lines, then the explainer's causal chains.
fn render_trace(report: &str, registry: &Registry) -> String {
    let mut out = String::from(report);
    out.push_str("--- trace ---\n");
    out.push_str(&registry.trace_jsonl());
    out.push_str("--- explain ---\n");
    out.push_str(&trace::render_chains(&trace::explain(&registry.trace)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_as(cmd: Command, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, cmd)
    }

    fn mode_of(args: &[&str]) -> Mode {
        parse_as(Command::Experiments, args).expect("valid").mode
    }

    #[test]
    fn each_mode_flag_chooses_its_mode() {
        assert_eq!(mode_of(&[]), Mode::Output(OutputMode::Text));
        assert_eq!(mode_of(&["--json"]), Mode::Output(OutputMode::Json));
        assert_eq!(mode_of(&["--jsonl"]), Mode::Output(OutputMode::Jsonl));
        assert_eq!(
            mode_of(&["--telemetry"]),
            Mode::Output(OutputMode::TextWithTelemetry)
        );
        assert_eq!(mode_of(&["--trace"]), Mode::Output(OutputMode::Trace));
    }

    #[test]
    fn a_second_mode_flag_is_an_error_naming_both() {
        for cmd in [Command::Experiments, Command::Campaign] {
            for (args, named) in [
                (&["--json", "--trace"][..], "'--json' and '--trace'"),
                (&["--trace", "--json"][..], "'--trace' and '--json'"),
                (&["--jsonl", "--json"][..], "'--jsonl' and '--json'"),
                (
                    &["--telemetry", "--jsonl"][..],
                    "'--telemetry' and '--jsonl'",
                ),
                (&["--json", "--json"][..], "'--json' and '--json'"),
            ] {
                let err = parse_as(cmd, args).expect_err("two modes");
                assert!(err.starts_with(named), "{args:?}: {err}");
            }
        }
        for (args, named) in [
            (&["--audit", "--json"][..], "'--audit' and '--json'"),
            (
                &["--trace", "--audit=json"][..],
                "'--trace' and '--audit=json'",
            ),
            (
                &["--trace-diff", "1", "2", "--audit"][..],
                "'--trace-diff' and '--audit'",
            ),
        ] {
            let err = parse_as(Command::Campaign, args).expect_err("two modes");
            assert!(err.starts_with(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn trace_capacity_sizes_the_ring_without_choosing_a_mode() {
        let a = parse_as(
            Command::Experiments,
            &["--trace", "--trace-capacity", "128"],
        )
        .expect("valid");
        assert_eq!(
            (a.mode, a.trace_capacity),
            (Mode::Output(OutputMode::Trace), 128)
        );
        let b = parse_as(Command::Experiments, &["--trace-capacity=64"]).expect("valid");
        assert_eq!(
            (b.mode, b.trace_capacity),
            (Mode::Output(OutputMode::Text), 64)
        );
        let c = parse_as(Command::Experiments, &["--json"]).expect("valid");
        assert_eq!(c.trace_capacity, DEFAULT_TRACE_CAPACITY);
        let handle = OutputMode::Trace.telemetry_handle(b.trace_capacity);
        assert_eq!(handle.trace_capacity(), Some(64));
        assert!(!OutputMode::Text.telemetry_handle(64).is_enabled());
        assert_eq!(OutputMode::Json.telemetry_handle(64).trace_capacity(), None);
    }

    #[test]
    fn campaign_flags_parse_in_both_value_forms() {
        let a = parse_as(
            Command::Campaign,
            &[
                "--shards",
                "4",
                "--synthetic=200",
                "--checkpoint",
                "j.ckpt",
                "--impair",
                "--progress=50",
                "--audit=json",
                "--trace-capacity=8",
                "--profile-json",
                "p.json",
            ],
        )
        .expect("valid");
        assert_eq!((a.shards, a.synthetic), (4, Some(200)));
        assert_eq!(a.mode, Mode::Audit { json: true });
        assert_eq!(a.checkpoint, Some(PathBuf::from("j.ckpt")));
        assert!(a.impair && !a.profile);
        assert_eq!(a.progress.map(|p| p.every_trials), Some(50));
        assert_eq!(a.trace_capacity, 8);
        assert_eq!(a.profile_json, Some(PathBuf::from("p.json")));
        let b = parse_as(
            Command::Campaign,
            &["--shards=2", "--shards", "3", "--trace-diff", "3", "7"],
        )
        .expect("valid");
        assert_eq!(b.shards, 3, "the last --shards wins");
        assert_eq!(b.mode, Mode::TraceDiff(3, 7));
        assert_eq!(
            format!("{:?}", parse_as(Command::Campaign, &[]).expect("valid")),
            format!("{:?}", Args::default())
        );
    }

    #[test]
    fn bad_arguments_are_errors_that_name_the_input() {
        for (args, named) in [
            (&["--shard", "4"][..], "unknown flag '--shard'"),
            (
                &["--synthetic", "200", "--bogus"][..],
                "unknown flag '--bogus'",
            ),
            (&["--service"][..], "unknown flag '--service'"),
            (&["--json=1"][..], "unknown flag '--json=1'"),
            (&["--audit=text"][..], "unknown flag '--audit=text'"),
            (&["--progress", "5"][..], "unexpected argument '5'"),
            (&["--shards", "x"][..], "--shards: 'x'"),
            (&["--shards"][..], "--shards needs a value"),
            (&["--synthetic", "-3"][..], "--synthetic: '-3'"),
            (&["--progress=soon"][..], "--progress: 'soon'"),
            (&["--trace-capacity", "0"][..], "--trace-capacity: '0'"),
            (&["--trace-capacity=many"][..], "--trace-capacity: 'many'"),
            (&["--trace-diff", "1"][..], "--trace-diff needs a value"),
            (&["--checkpoint"][..], "--checkpoint needs a value"),
        ] {
            let err = parse_as(Command::Campaign, args).expect_err("rejected");
            assert!(err.starts_with(named), "{args:?}: {err}");
        }
        for (args, named) in [
            (&["--jsno"][..], "unknown flag '--jsno'"),
            (&["--trace-capacity", "abc"][..], "--trace-capacity: 'abc'"),
            (&["--trace-capacity"][..], "--trace-capacity needs a value"),
            (&["--shards", "4"][..], "unknown flag '--shards'"),
            (&["--audit"][..], "unknown flag '--audit'"),
            (
                &["--trace-diff", "0", "1"][..],
                "unknown flag '--trace-diff'",
            ),
            (&["e2"][..], "unexpected argument 'e2'"),
        ] {
            let err = parse_as(Command::Experiments, args).expect_err("rejected");
            assert!(err.starts_with(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn experiments_reject_bad_names_and_flags_on_all() {
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            experiments(&args)
        };
        for (args, named) in [
            (&["all", "--json"][..], "'--json'"),
            (&["--trace"][..], "'--trace'"),
            (&["e99"][..], "unknown experiment 'e99'"),
            (&["e2", "--jsno"][..], "unknown flag '--jsno'"),
        ] {
            match run(args) {
                Err(Failure::Usage(msg)) => assert!(msg.contains(named), "{args:?}: {msg}"),
                other => panic!("{args:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_rendering_is_one_object_per_line_plus_telemetry() {
        let tel = Telemetry::enabled();
        tel.count("x", 2);
        let out = render_jsonl("e00", "alpha\nbeta \"q\"\n", &tel.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"experiment\":\"e00\",\"line\":0,\"text\":\"alpha\"}"
        );
        assert_eq!(
            lines[1],
            "{\"experiment\":\"e00\",\"line\":1,\"text\":\"beta \\\"q\\\"\"}"
        );
        assert!(lines[2].starts_with("{\"experiment\":\"e00\",\"telemetry\":{"));
        assert!(lines[2].contains("\"counters\":{\"x\":2}"));
    }

    #[test]
    fn trace_rendering_starts_with_the_unchanged_report() {
        let tel = Telemetry::with_trace(8);
        tel.tracer().record(underradar_telemetry::TraceRecord {
            t_ns: 5,
            seq: 0,
            stage: "stream",
            kind: "ooo_held",
            flow: None,
            fields: vec![],
        });
        let out = render_trace("report line\n", &tel.snapshot());
        assert!(out.starts_with("report line\n--- trace ---\n"));
        assert!(out.contains("{\"kind\":\"ooo_held\""));
        assert!(out.contains("--- explain ---\n"));
        assert!(out.contains("because=stream.ooo_held@t=5ns"));
    }

    #[test]
    fn json_envelope_escapes_the_report() {
        let tel = Telemetry::enabled();
        tel.count("x", 1);
        let out = render_json("e00", "line1\nline2\t\"q\"", &tel.snapshot());
        assert!(out.starts_with("{\"experiment\":\"e00\",\"report\":\"line1\\nline2"));
        assert!(out.contains("\\\"q\\\""));
        assert!(out.contains("\"telemetry\":{\"counters\":{\"x\":1}"));
        assert!(out.ends_with('}'));
    }
}
