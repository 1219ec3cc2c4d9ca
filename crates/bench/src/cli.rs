//! Shared command-line front end for the `exp_*` binaries.
//!
//! Every experiment binary is `exp_main(name, run)`. Modes:
//!
//! * default — print the plain-text report, exactly as before;
//! * `--json` — run with telemetry enabled and print one JSON object
//!   `{"experiment": .., "report": .., "telemetry": <registry>}` suitable
//!   for piping into analysis tooling;
//! * `--jsonl` — stream one JSON object per row: generic experiments emit
//!   a row per report line plus a trailing telemetry row; campaign-backed
//!   binaries emit true per-trial verdict rows;
//! * `--telemetry` (or `UNDERRADAR_TELEMETRY=1`) — print the report
//!   followed by the registry's text rendering;
//! * `--trace` (or `UNDERRADAR_TRACE=1`) — run with the flight recorder
//!   live and print the report, then the trace as JSON lines, then the
//!   explainer's causal chains. The report section is byte-identical to
//!   the default mode's output;
//! * `--trace-capacity N` (or `UNDERRADAR_TRACE_CAPACITY=N`) — size the
//!   flight-recorder ring for traced runs (default 4096 records). The
//!   knob only tunes the ring: it never turns tracing on by itself.

use underradar_telemetry::{
    json, trace, Telemetry, DEFAULT_TRACE_CAPACITY, TELEMETRY_ENV, TRACE_CAPACITY_ENV, TRACE_ENV,
};

/// How the binary was asked to present its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Plain-text report only.
    Text,
    /// Report plus a text rendering of the telemetry registry.
    TextWithTelemetry,
    /// One JSON object carrying the report and the registry.
    Json,
    /// One JSON object per row, streamed as rows complete. Campaign-backed
    /// binaries emit true per-trial rows (`exp_campaign --jsonl`
    /// streams them the moment each trial finishes); generic experiments
    /// emit one row per report line plus a trailing telemetry row.
    Jsonl,
    /// Report plus the flight-recorder trace (JSON lines) and the
    /// explainer's per-trial causal chains.
    Trace,
}

/// Typed accumulation of the output flags. Each `--json` / `--jsonl` /
/// `--telemetry` / `--trace` occurrence (or its env-var equivalent) sets
/// an independent bit; [`OutputSpec::mode`] resolves any combination with
/// one precedence order — trace ≻ jsonl ≻ json ≻ telemetry ≻ text — so
/// flag order never matters and every combination is defined. A trace
/// subsumes the registry, and the JSON envelopes deliberately exclude
/// trace records, which is why trace outranks everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutputSpec {
    json: bool,
    jsonl: bool,
    telemetry: bool,
    trace: bool,
    trace_capacity: Option<usize>,
}

impl OutputSpec {
    /// A spec with no flags set (plain-text report).
    pub fn new() -> OutputSpec {
        OutputSpec::default()
    }

    /// Request the `--json` envelope.
    pub fn json(mut self, on: bool) -> OutputSpec {
        self.json = on;
        self
    }

    /// Request the `--jsonl` row stream.
    pub fn jsonl(mut self, on: bool) -> OutputSpec {
        self.jsonl = on;
        self
    }

    /// Request the `--telemetry` text appendix.
    pub fn telemetry(mut self, on: bool) -> OutputSpec {
        self.telemetry = on;
        self
    }

    /// Request the `--trace` flight-recorder dump.
    pub fn trace(mut self, on: bool) -> OutputSpec {
        self.trace = on;
        self
    }

    /// Override the flight-recorder ring capacity (tunes `--trace` runs;
    /// never turns tracing on by itself).
    pub fn trace_capacity(mut self, capacity: Option<usize>) -> OutputSpec {
        self.trace_capacity = capacity;
        self
    }

    /// The configured ring capacity override, if any.
    pub fn trace_capacity_value(self) -> Option<usize> {
        self.trace_capacity
    }

    /// Parse a spec from CLI arguments plus the ambient telemetry/trace
    /// env vars.
    pub fn from_cli<I: IntoIterator<Item = String>>(args: I) -> OutputSpec {
        Self::from_parts(
            std::env::var(TELEMETRY_ENV).ok(),
            std::env::var(TRACE_ENV).ok(),
            std::env::var(TRACE_CAPACITY_ENV).ok(),
            args,
        )
    }

    /// [`OutputSpec::from_cli`] with the env vars' values passed
    /// explicitly (testable regardless of the ambient environment).
    pub fn from_parts<I: IntoIterator<Item = String>>(
        tel_env: Option<String>,
        trace_env: Option<String>,
        capacity_env: Option<String>,
        args: I,
    ) -> OutputSpec {
        let mut spec = OutputSpec::new()
            .telemetry(env_set(tel_env))
            .trace(env_set(trace_env))
            .trace_capacity(trace::capacity_from_env(capacity_env));
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--json" => spec.json = true,
                "--jsonl" => spec.jsonl = true,
                "--telemetry" => spec.telemetry = true,
                "--trace" => spec.trace = true,
                "--trace-capacity" => {
                    if let Some(v) = args.get(i + 1) {
                        if let Some(c) = trace::capacity_from_env(Some(v.clone())) {
                            spec.trace_capacity = Some(c);
                            i += 1;
                        }
                    }
                }
                other => {
                    if let Some(v) = other.strip_prefix("--trace-capacity=") {
                        if let Some(c) = trace::capacity_from_env(Some(v.to_string())) {
                            spec.trace_capacity = Some(c);
                        }
                    }
                }
            }
            i += 1;
        }
        spec
    }

    /// Resolve the accumulated flags into one output mode.
    pub fn mode(self) -> OutputMode {
        if self.trace {
            OutputMode::Trace
        } else if self.jsonl {
            OutputMode::Jsonl
        } else if self.json {
            OutputMode::Json
        } else if self.telemetry {
            OutputMode::TextWithTelemetry
        } else {
            OutputMode::Text
        }
    }

    /// The telemetry handle an experiment should run under: disabled for
    /// plain text, trace-carrying for `--trace`, enabled otherwise.
    pub fn telemetry_handle(self) -> Telemetry {
        match self.mode() {
            OutputMode::Text => Telemetry::disabled(),
            OutputMode::Trace => {
                Telemetry::with_trace(self.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY))
            }
            _ => Telemetry::enabled(),
        }
    }

    /// Render the complete stdout for this spec — the single place the
    /// mode-to-bytes mapping lives. Byte-identical to what each mode has
    /// always printed (pinned by the CLI golden test).
    pub fn render(
        self,
        name: &str,
        report: &str,
        registry: &underradar_telemetry::Registry,
    ) -> String {
        match self.mode() {
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

/// Decide the output mode from flags plus the telemetry/trace env vars.
pub fn output_mode<I: IntoIterator<Item = String>>(args: I) -> OutputMode {
    OutputSpec::from_cli(args).mode()
}

fn env_set(v: Option<String>) -> bool {
    v.is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
fn mode_from<I: IntoIterator<Item = String>>(
    tel_env: Option<String>,
    trace_env: Option<String>,
    args: I,
) -> OutputMode {
    OutputSpec::from_parts(tel_env, trace_env, None, args).mode()
}

/// Render the `--json` envelope for one experiment.
pub fn render_json(name: &str, report: &str, registry: &underradar_telemetry::Registry) -> String {
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

/// Render the `--jsonl` stream for a generic experiment: one JSON object
/// per report line (self-describing, pipeline-friendly) followed by one
/// telemetry object. Campaign-backed binaries emit true per-trial rows
/// instead (see `exp_campaign`).
pub fn render_jsonl(name: &str, report: &str, registry: &underradar_telemetry::Registry) -> String {
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

/// The whole body of an `exp_*` binary.
pub fn exp_main(name: &str, run: fn(&Telemetry) -> String) {
    let spec = OutputSpec::from_cli(std::env::args().skip(1));
    let tel = spec.telemetry_handle();
    let report = run(&tel);
    print!("{}", spec.render(name, &report, &tel.snapshot()));
}

/// Render the `--trace` output: the unchanged report, the trace as JSON
/// lines, then the explainer's causal chains.
pub fn render_trace(report: &str, registry: &underradar_telemetry::Registry) -> String {
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_flag_wins() {
        assert_eq!(mode_from(None, None, args(&[])), OutputMode::Text);
        assert_eq!(mode_from(None, None, args(&["--json"])), OutputMode::Json);
        assert_eq!(
            mode_from(None, None, args(&["--telemetry"])),
            OutputMode::TextWithTelemetry
        );
        assert_eq!(
            mode_from(None, None, args(&["--telemetry", "--json"])),
            OutputMode::Json
        );
    }

    #[test]
    fn jsonl_flag_outranks_json_but_not_trace() {
        assert_eq!(mode_from(None, None, args(&["--jsonl"])), OutputMode::Jsonl);
        assert_eq!(
            mode_from(None, None, args(&["--json", "--jsonl"])),
            OutputMode::Jsonl
        );
        assert_eq!(
            mode_from(None, None, args(&["--jsonl", "--json"])),
            OutputMode::Jsonl
        );
        assert_eq!(
            mode_from(None, None, args(&["--jsonl", "--trace"])),
            OutputMode::Trace
        );
        assert_eq!(
            mode_from(None, None, args(&["--trace", "--jsonl"])),
            OutputMode::Trace
        );
    }

    #[test]
    fn trace_capacity_flag_and_env_tune_the_ring() {
        let spec = OutputSpec::from_parts(
            None,
            None,
            None,
            args(&["--trace", "--trace-capacity", "128"]),
        );
        assert_eq!(spec.trace_capacity_value(), Some(128));
        assert_eq!(spec.mode(), OutputMode::Trace);
        let eq =
            OutputSpec::from_parts(None, None, None, args(&["--trace", "--trace-capacity=64"]));
        assert_eq!(eq.trace_capacity_value(), Some(64));
        // Capacity alone never turns tracing on.
        let plain = OutputSpec::from_parts(None, None, None, args(&["--trace-capacity", "64"]));
        assert_eq!(plain.mode(), OutputMode::Text);
        assert_eq!(plain.trace_capacity_value(), Some(64));
        // The env var seeds the capacity; an explicit flag overrides it.
        let env = OutputSpec::from_parts(
            None,
            Some("1".to_string()),
            Some("32".to_string()),
            args(&[]),
        );
        assert_eq!(env.trace_capacity_value(), Some(32));
        assert_eq!(env.mode(), OutputMode::Trace);
        let both = OutputSpec::from_parts(
            None,
            None,
            Some("32".to_string()),
            args(&["--trace-capacity", "16"]),
        );
        assert_eq!(both.trace_capacity_value(), Some(16));
        // Invalid or missing values are ignored (and don't eat flags).
        let bad = OutputSpec::from_parts(None, None, None, args(&["--trace-capacity", "abc"]));
        assert_eq!(bad.trace_capacity_value(), None);
        let tail = OutputSpec::from_parts(None, None, None, args(&["--trace-capacity", "--json"]));
        assert_eq!(tail.trace_capacity_value(), None);
        assert_eq!(tail.mode(), OutputMode::Json);
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
    fn env_var_enables_telemetry_output() {
        let on = |v: &str| mode_from(Some(v.to_string()), None, args(&[]));
        assert_eq!(on("1"), OutputMode::TextWithTelemetry);
        assert_eq!(on("0"), OutputMode::Text);
        assert_eq!(on(""), OutputMode::Text);
        assert_eq!(
            mode_from(Some("1".to_string()), None, args(&["--json"])),
            OutputMode::Json
        );
    }

    #[test]
    fn trace_flag_and_env_outrank_other_modes() {
        assert_eq!(mode_from(None, None, args(&["--trace"])), OutputMode::Trace);
        assert_eq!(
            mode_from(None, None, args(&["--trace", "--json"])),
            OutputMode::Trace
        );
        assert_eq!(
            mode_from(None, None, args(&["--json", "--trace"])),
            OutputMode::Trace
        );
        assert_eq!(
            mode_from(None, Some("1".to_string()), args(&[])),
            OutputMode::Trace
        );
        assert_eq!(
            mode_from(None, Some("0".to_string()), args(&[])),
            OutputMode::Text
        );
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
