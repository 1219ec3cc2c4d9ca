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
//! * `--service` — accepted for compatibility and changes nothing: every
//!   run goes through the run service.
//! * `--checkpoint PATH` — journal every completed trial to `PATH`. A
//!   killed run resumed with the same flags skips journaled trials and
//!   produces byte-identical final output.
//! * `--synthetic N` — replace the paper matrix with an `N`-trial
//!   synthetic scale matrix (cheap scan trials; for million-trial runs).
//! * `--jsonl` — emit one JSON row per trial the moment it completes
//!   (completion order; each row carries its `index`).

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

/// The value following `--flag` (or inline `--flag=value`), when present.
fn parse_value(args: &[String], flag: &str) -> Option<String> {
    let inline = format!("{flag}=");
    let mut it = args.iter();
    let mut found = None;
    while let Some(arg) = it.next() {
        if arg == flag {
            found = it.next().cloned();
        } else if let Some(v) = arg.strip_prefix(&inline) {
            found = Some(v.to_string());
        }
    }
    found
}

/// `--trace-diff A B`: the two trial indices to diff, when present.
fn parse_trace_diff(args: &[String]) -> Option<(u64, u64)> {
    let pos = args.iter().position(|a| a == "--trace-diff")?;
    let a = args.get(pos + 1)?.parse().ok()?;
    let b = args.get(pos + 2)?.parse().ok()?;
    Some((a, b))
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shards = parse_value(&args, "--shards")
        .map_or(1, |v| v.parse().expect("--shards needs a positive integer"))
        .max(1);
    let profile = args.iter().any(|a| a == "--profile");
    let profile_json = parse_value(&args, "--profile-json");
    let audit = args.iter().rev().find_map(|a| match a.as_str() {
        "--audit" => Some(false),
        "--audit=json" => Some(true),
        _ => None,
    });
    let progress = args.iter().rev().find_map(|a| {
        if a == "--progress" {
            return Some(ProgressConfig::default());
        }
        a.strip_prefix("--progress=").map(|v| ProgressConfig {
            every_trials: v.parse().expect("--progress=N needs a positive integer"),
            ..ProgressConfig::default()
        })
    });
    let out_spec = OutputSpec::from_cli(args.iter().cloned());
    let trace_capacity = out_spec
        .trace_capacity_value()
        .unwrap_or(DEFAULT_TRACE_CAPACITY);
    let clock = StageClock::default();
    let mut spec = clock.time("prepare", || match parse_value(&args, "--synthetic") {
        Some(n) => synthetic_campaign(n.parse().expect("--synthetic needs a trial count")),
        None => paper_campaign(4),
    });
    spec = spec.trace_capacity(out_spec.trace_capacity_value());
    if args.iter().any(|a| a == "--impair") {
        spec = spec.client_link_reorder(0.2).client_link_duplicate(0.1);
    }
    let mut cfg = RunConfig::new(shards);
    if let Some(path) = parse_value(&args, "--checkpoint") {
        cfg = cfg.checkpoint(PathBuf::from(path));
    }
    if let Some(p) = progress {
        cfg = cfg.progress(p);
    }
    if let Some((a, b)) = parse_trace_diff(&args) {
        run_trace_diff(&spec, &cfg, a, b, trace_capacity, &clock);
        return;
    }
    let run_profile = match audit {
        Some(json) => run_audit(&spec, &cfg, json, &clock),
        None => run_mode(&spec, &cfg, out_spec.mode(), trace_capacity, &clock),
    };
    if let Some(path) = profile_json {
        write_profile_json(&path, &clock, &run_profile);
    }
    if profile {
        eprintln!("--- profile ---");
        for (stage, total, calls) in clock.rows() {
            eprintln!(
                "stage {stage}: {:.3}s over {calls} calls",
                total.as_secs_f64()
            );
        }
    }
}
