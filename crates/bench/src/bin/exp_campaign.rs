//! Runs the paper-scale measurement campaign (all 8 methods × 4 censor
//! policies × 4 targets × 4 seeds = 512 trials) through the run service
//! (`underradar-runner`): work-stealing scheduling, streaming rows, and
//! (with `--checkpoint`) a crash-safe journal.
//!
//! Flags:
//!
//! * `--shards N` — worker threads (default 1). Output is byte-identical
//!   for every `N`, which `scripts/ci.sh` checks (1 vs 4).
//! * `--impair` — enable the adversarial client-link impairment knobs
//!   (reorder 0.2 with 2 ms displacement, duplicate 0.1). Deterministic:
//!   every impairment draw comes from the per-trial simulator RNG in
//!   simulated-time order, so the 1-vs-4-shard byte identity must hold
//!   here too (`scripts/ci.sh` checks both).
//! * `--json` — one JSON object `{"experiment", "report", "telemetry"}`
//!   where `report` is the structured campaign report (cells + trials).
//! * `--telemetry` (or `UNDERRADAR_TELEMETRY=1`) — text report plus the
//!   merged registry's text rendering.
//! * `--trace` (or `UNDERRADAR_TRACE=1`) — text report plus the flight
//!   recorder: every stage decision as JSON lines (sorted keys,
//!   byte-identical for any shard count) and the explainer's per-trial
//!   causal chains.
//! * `--trace-diff A B` — run with the flight recorder and print the
//!   first divergent stage decision between trial `A`'s and trial `B`'s
//!   trace segments (campaign markers excluded — they name the trials and
//!   would differ trivially).
//! * `--profile` — print a wall-clock profile footer (prepare/run/score
//!   stage timings) to stderr; stdout stays deterministic.
//! * `--profile-json PATH` — write the stage timings plus the service's
//!   per-worker busy/attempt counts and steal/retry totals to `PATH` as
//!   sorted-key JSON.
//! * `--audit` (or `--audit=json`) — run with telemetry enabled and print
//!   the report followed by the adversary-eye **safety audit**: per-host
//!   attributability scores reconstructed from the merged `exposure.*`
//!   registry entries, folded against each cell's declared evasion counts.
//!   Cells that declared themselves fully evaded while the adversary holds
//!   attributable events are surfaced as divergences. Byte-identical for
//!   any `--shards` value.
//! * `--progress` (or `--progress=N`, snapshot every `N` trials) — stream
//!   interval snapshots (done/total, rows/sec, ETA, per-worker busy
//!   fractions, steal/retry counts, journal lag) as JSONL on **stderr**;
//!   stdout bytes are untouched.
//! * `--trace-capacity N` (or `UNDERRADAR_TRACE_CAPACITY=N`) — size the
//!   flight-recorder ring for `--trace` / `--trace-diff` runs.
//! * `--checkpoint PATH` — journal every completed trial to `PATH`. A
//!   killed run resumed with the same flags skips journaled trials and
//!   produces byte-identical final output.
//! * `--synthetic N` — replace the paper matrix with an `N`-trial
//!   synthetic scale matrix (cheap scan trials; for million-trial runs).
//! * `--jsonl` — emit one JSON row per trial the moment it completes
//!   (completion order; each row carries its `index`).
//!
//! An unknown flag, a missing value, or a malformed number exits with
//! status 2 and a message naming the flag.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use underradar_bench::cli::{OutputMode, OutputSpec};
use underradar_bench::experiments::campaign::{paper_campaign, synthetic_campaign};
use underradar_campaign::report::{CampaignReport, CellStat};
use underradar_campaign::spec::CampaignSpec;
use underradar_runner::{
    run_service, CollectSink, JsonlSink, NullSink, ProgressConfig, RowSink, RunConfig, RunProfile,
    ServiceOutcome,
};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::{trace, Registry, Telemetry, TraceRecord, DEFAULT_TRACE_CAPACITY};

const USAGE: &str = "usage: exp_campaign [--shards N] [--impair] \
[--json|--jsonl|--telemetry|--trace] [--trace-capacity N] [--trace-diff A B] \
[--audit[=json]] [--progress[=N]] [--profile] [--profile-json PATH] \
[--checkpoint PATH] [--synthetic N]";

/// Wall-clock accumulator for the named stages of one run (`prepare`,
/// `run`, `score`), reported by `--profile` and `--profile-json`.
#[derive(Default)]
struct StageClock {
    stages: Mutex<BTreeMap<&'static str, (Duration, u64)>>,
}

impl StageClock {
    /// Time `f` under `stage`, accumulating elapsed wall time and a call
    /// count.
    fn time<R>(&self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let mut stages = self.stages.lock().expect("stage clock poisoned");
        let entry = stages.entry(stage).or_insert((Duration::ZERO, 0));
        entry.0 += elapsed;
        entry.1 += 1;
        out
    }

    /// Accumulated `(stage, total, calls)` rows in stage-name order.
    fn rows(&self) -> Vec<(&'static str, Duration, u64)> {
        self.stages
            .lock()
            .expect("stage clock poisoned")
            .iter()
            .map(|(&stage, &(total, calls))| (stage, total, calls))
            .collect()
    }
}

/// The parsed command line.
#[derive(Debug, Default)]
struct Args {
    /// Worker threads; 0 (the default) runs one.
    shards: usize,
    impair: bool,
    profile: bool,
    profile_json: Option<String>,
    /// `Some(json)` under `--audit` (`false`) or `--audit=json` (`true`).
    audit: Option<bool>,
    progress: Option<ProgressConfig>,
    checkpoint: Option<PathBuf>,
    synthetic: Option<usize>,
    trace_diff: Option<(u64, u64)>,
    out: OutputSpec,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a non-negative integer"))
}

/// Parse `args` on top of `out`, the output spec the environment selects.
/// Later occurrences of a flag override earlier ones. An unknown flag, a
/// missing value or a malformed number is an error that names the flag.
fn parse_args(args: &[String], out: OutputSpec) -> Result<Args, String> {
    let mut parsed = Args {
        out,
        ..Args::default()
    };
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
        match (flag, inline) {
            ("--shards", _) => parsed.shards = number(flag, &value()?)?,
            ("--synthetic", _) => parsed.synthetic = Some(number(flag, &value()?)?),
            ("--checkpoint", _) => parsed.checkpoint = Some(PathBuf::from(value()?)),
            ("--profile-json", _) => parsed.profile_json = Some(value()?),
            ("--trace-capacity", _) => {
                let v = value()?;
                let capacity = trace::capacity_from_env(Some(v.clone()))
                    .ok_or_else(|| format!("{flag}: '{v}' is not a positive integer"))?;
                parsed.out = parsed.out.trace_capacity(Some(capacity));
            }
            ("--progress", None) => parsed.progress = Some(ProgressConfig::default()),
            ("--progress", Some(v)) => {
                let every_trials = number(flag, v)?;
                parsed.progress = Some(ProgressConfig {
                    every_trials,
                    ..ProgressConfig::default()
                });
            }
            ("--audit", None) => parsed.audit = Some(false),
            ("--audit", Some("json")) => parsed.audit = Some(true),
            ("--trace-diff", None) => {
                parsed.trace_diff = Some((number(flag, &value()?)?, number(flag, &value()?)?));
            }
            ("--impair", None) => parsed.impair = true,
            ("--profile", None) => parsed.profile = true,
            ("--json", None) => parsed.out = parsed.out.json(true),
            ("--jsonl", None) => parsed.out = parsed.out.jsonl(true),
            ("--telemetry", None) => parsed.out = parsed.out.telemetry(true),
            ("--trace", None) => parsed.out = parsed.out.trace(true),
            _ if arg.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    Ok(parsed)
}

/// Trial `index`'s stage decisions: its trace segment minus the campaign
/// markers (which carry the trial identity and would differ trivially).
fn trial_decisions(records: &[TraceRecord], index: u64) -> Option<Vec<TraceRecord>> {
    trace::split_trials(records)
        .into_iter()
        .find(|seg| {
            seg.first()
                .is_some_and(|r| r.kind == "trial_start" && r.field_u64("trial") == Some(index))
        })
        .map(|seg| {
            seg.iter()
                .filter(|r| r.stage != "campaign")
                .cloned()
                .collect()
        })
}

/// Run the campaign through the service, or print the cause and exit 1.
/// With a checkpoint, report on stderr what the journal restored.
fn run(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    tel: &Telemetry,
    sink: &mut dyn RowSink,
    clock: &StageClock,
) -> ServiceOutcome {
    let outcome = clock
        .time("run", || run_service(spec, cfg, tel, sink))
        .unwrap_or_else(|e| {
            eprintln!("service run failed: {e}");
            std::process::exit(1);
        });
    if cfg.checkpoint.is_some() {
        eprintln!(
            "service: {} executed, {} restored, {} resumed retries, {} journal bytes truncated",
            outcome.executed, outcome.restored, outcome.resumed_retries, outcome.journal_truncated
        );
    }
    outcome
}

fn run_trace_diff(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    a: u64,
    b: u64,
    trace_capacity: usize,
    clock: &StageClock,
) {
    let tel = Telemetry::with_trace(trace_capacity);
    run(spec, cfg, &tel, &mut NullSink, clock);
    let snap = tel.snapshot();
    let left = trial_decisions(&snap.trace, a)
        .unwrap_or_else(|| panic!("trial {a} not found in the campaign trace"));
    let right = trial_decisions(&snap.trace, b)
        .unwrap_or_else(|| panic!("trial {b} not found in the campaign trace"));
    println!("trace diff: trial {a} (a) vs trial {b} (b)");
    print!(
        "{}",
        trace::render_diff(trace::diff(&left, &right).as_ref())
    );
}

/// Reconstruct the campaign-wide exposure ledger from the merged registry,
/// fold it against the declared per-cell evasion counts, and render the
/// safety audit (text, or sorted-key JSON under `--audit=json`).
fn render_audit(cells: &[CellStat], registry: &Registry, json: bool) -> String {
    let ledger = ExposureLedger::from_registry(registry);
    let declared: Vec<DeclaredCell> = cells
        .iter()
        .map(|c| DeclaredCell {
            cell: format!("{}/{}", c.method, c.policy),
            trials: c.trials as u64,
            evaded: c.evaded as u64,
        })
        .collect();
    let audit = SafetyAudit::build(&ledger, &declared);
    if json {
        let mut out = audit.render_json();
        out.push('\n');
        out
    } else {
        audit.render_text()
    }
}

/// `--profile-json PATH`: stage timings plus the service's run profile,
/// as sorted-key JSON.
fn write_profile_json(path: &str, clock: &StageClock, p: &RunProfile) {
    let join = |v: &[u64]| {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"service\":{{\"prepare_ms\":{},\"retries_seen\":{},\"snapshots\":{},\"steals\":{},\
         \"wall_ms\":{},\"worker_attempts\":[{}],\"worker_busy_ns\":[{}]}}",
        p.prepare_ms,
        p.retries_seen,
        p.snapshots,
        p.steals,
        p.wall_ms,
        join(&p.worker_attempts),
        join(&p.worker_busy_ns)
    );
    out.push_str(",\"stages\":{");
    for (i, (stage, total, calls)) in clock.rows().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{stage}\":{{\"calls\":{calls},\"ns\":{}}}",
            total.as_nanos()
        ));
    }
    out.push_str("}}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("--profile-json {path}: {e}");
        std::process::exit(1);
    }
}

/// Run the campaign and print what `mode` asks for. Rows stream in
/// completion order under `--jsonl`; every other mode's stdout is
/// byte-identical for any `--shards` value. Returns the run's wall-clock
/// profile for `--profile-json`.
fn run_mode(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    mode: OutputMode,
    trace_capacity: usize,
    clock: &StageClock,
) -> RunProfile {
    match mode {
        OutputMode::Text => {
            let outcome = run(spec, cfg, &Telemetry::disabled(), &mut NullSink, clock);
            print!("{}", clock.time("score", || outcome.report.render_text()));
            outcome.profile
        }
        OutputMode::TextWithTelemetry => {
            let tel = Telemetry::enabled();
            let outcome = run(spec, cfg, &tel, &mut NullSink, clock);
            print!("{}", outcome.report.render_text());
            println!("--- telemetry ---");
            print!("{}", clock.time("score", || tel.snapshot().render_text()));
            outcome.profile
        }
        OutputMode::Json => {
            let tel = Telemetry::enabled();
            let mut sink = CollectSink::new();
            let outcome = run(spec, cfg, &tel, &mut sink, clock);
            if outcome.restored > 0 {
                eprintln!(
                    "--json needs every trial row, but {} trials were restored from the \
                     checkpoint without their rows; rerun without --checkpoint",
                    outcome.restored
                );
                std::process::exit(1);
            }
            let report = CampaignReport {
                trials: sink.into_index_order(),
                summary: outcome.report,
            };
            println!(
                "{{\"experiment\":\"campaign\",\"report\":{},\"telemetry\":{}}}",
                report.to_json(),
                clock.time("score", || tel.snapshot().to_json())
            );
            outcome.profile
        }
        OutputMode::Jsonl => {
            let stdout = std::io::stdout();
            let mut sink = JsonlSink::new(std::io::BufWriter::new(stdout.lock()));
            run(spec, cfg, &Telemetry::disabled(), &mut sink, clock).profile
        }
        OutputMode::Trace => {
            let tel = Telemetry::with_trace(trace_capacity);
            let outcome = run(spec, cfg, &tel, &mut NullSink, clock);
            let out = clock.time("score", || {
                underradar_bench::cli::render_trace(&outcome.report.render_text(), &tel.snapshot())
            });
            print!("{out}");
            outcome.profile
        }
    }
}

/// `--audit`: run with telemetry forced on, print the report, then the
/// safety audit reconstructed from the merged registry.
fn run_audit(spec: &CampaignSpec, cfg: &RunConfig, json: bool, clock: &StageClock) -> RunProfile {
    let tel = Telemetry::enabled();
    let outcome = run(spec, cfg, &tel, &mut NullSink, clock);
    print!("{}", outcome.report.render_text());
    println!("--- audit ---");
    let cells = outcome.report.cells();
    let audit = clock.time("score", || render_audit(&cells, &tel.snapshot(), json));
    print!("{audit}");
    outcome.profile
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv, OutputSpec::from_cli(std::iter::empty())).unwrap_or_else(|e| {
        eprintln!("exp_campaign: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let trace_capacity = args
        .out
        .trace_capacity_value()
        .unwrap_or(DEFAULT_TRACE_CAPACITY);
    let clock = StageClock::default();
    let mut spec = clock.time("prepare", || match args.synthetic {
        Some(n) => synthetic_campaign(n),
        None => paper_campaign(4),
    });
    spec = spec.trace_capacity(args.out.trace_capacity_value());
    if args.impair {
        spec = spec.client_link_reorder(0.2).client_link_duplicate(0.1);
    }
    let mut cfg = RunConfig::new(args.shards.max(1));
    if let Some(path) = args.checkpoint {
        cfg = cfg.checkpoint(path);
    }
    if let Some(p) = args.progress {
        cfg = cfg.progress(p);
    }
    if let Some((a, b)) = args.trace_diff {
        run_trace_diff(&spec, &cfg, a, b, trace_capacity, &clock);
        return;
    }
    let run_profile = match args.audit {
        Some(json) => run_audit(&spec, &cfg, json, &clock),
        None => run_mode(&spec, &cfg, args.out.mode(), trace_capacity, &clock),
    };
    if let Some(path) = args.profile_json {
        write_profile_json(&path, &clock, &run_profile);
    }
    if args.profile {
        eprintln!("--- profile ---");
        for (stage, total, calls) in clock.rows() {
            eprintln!(
                "stage {stage}: {:.3}s over {calls} calls",
                total.as_secs_f64()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args, OutputSpec::new())
    }

    #[test]
    fn flags_parse_in_both_value_forms() {
        let a = parse(&[
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
        ])
        .expect("valid");
        assert_eq!((a.shards, a.synthetic, a.audit), (4, Some(200), Some(true)));
        assert_eq!(a.checkpoint, Some(PathBuf::from("j.ckpt")));
        assert!(a.impair && !a.profile);
        assert_eq!(a.progress.map(|p| p.every_trials), Some(50));
        assert_eq!(a.out.trace_capacity_value(), Some(8));
        assert_eq!(a.profile_json.as_deref(), Some("p.json"));
        let b = parse(&[
            "--shards=2",
            "--shards",
            "3",
            "--trace-diff",
            "3",
            "7",
            "--json",
        ])
        .expect("valid");
        assert_eq!(b.shards, 3, "the last --shards wins");
        assert_eq!(b.trace_diff, Some((3, 7)));
        assert_eq!(b.out.mode(), OutputMode::Json);
        assert_eq!(parse(&[]).expect("valid").out.mode(), OutputMode::Text);
    }

    #[test]
    fn bad_arguments_are_errors_that_name_the_flag() {
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
            let err = parse(args).expect_err("rejected");
            assert!(err.starts_with(named), "{args:?}: {err}");
        }
    }
}
