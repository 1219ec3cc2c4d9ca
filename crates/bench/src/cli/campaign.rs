//! `underradar campaign`: the paper-scale measurement campaign (all 8
//! methods × 4 censor policies × 4 targets × 4 seeds = 512 trials) run
//! through the run service (`underradar-runner`): one shared trial
//! cursor, streaming rows, and (with `--checkpoint`) a crash-safe
//! journal.
//!
//! Besides the shared output modes (see [`super`]) it takes:
//!
//! * `--shards N` — worker threads (default 1). Output is byte-identical
//!   for every `N`, which `scripts/ci.sh` checks (1 vs 4).
//! * `--impair` — enable the adversarial client-link impairment knobs
//!   (reorder 0.2 with 2 ms displacement, duplicate 0.1). Deterministic:
//!   every impairment draw comes from the per-trial simulator RNG in
//!   simulated-time order, so the 1-vs-4-shard byte identity must hold
//!   here too (`scripts/ci.sh` checks both).
//! * `--json` prints the structured campaign report (cells + trials) as
//!   `report`; `--jsonl` emits one JSON row per trial the moment it
//!   completes (completion order; each row carries its `index`).
//! * `--trace-diff A B` (a mode) — run with the flight recorder and print
//!   the first divergent stage decision between trial `A`'s and trial
//!   `B`'s trace segments (campaign markers excluded — they name the
//!   trials and would differ trivially).
//! * `--audit` or `--audit=json` (a mode) — run with telemetry enabled
//!   and print the report followed by the adversary-eye **safety audit**:
//!   per-host attributability scores reconstructed from the merged
//!   `exposure.*` registry entries, folded against each cell's declared
//!   evasion counts. Cells that declared themselves fully evaded while
//!   the adversary holds attributable events are surfaced as divergences.
//!   Byte-identical for any `--shards` value.
//! * `--profile` — print a wall-clock profile footer (prepare/run/score
//!   stage timings) to stderr; stdout stays deterministic.
//! * `--profile-json PATH` — write the stage timings plus the service's
//!   per-worker busy/attempt counts and the retry total to `PATH` as
//!   sorted-key JSON.
//! * `--progress` (or `--progress=N`, snapshot every `N` trials) — stream
//!   interval snapshots (done/total, rows/sec, ETA, per-worker busy
//!   fractions, retry count, journal lag) as JSONL on **stderr**;
//!   stdout bytes are untouched.
//! * `--checkpoint PATH` — journal every completed trial to `PATH`. A
//!   killed run resumed with the same flags skips journaled trials and
//!   produces byte-identical final output. The journal is keyed by the
//!   spec and the telemetry mode (off for plain and `--jsonl`, on for
//!   `--telemetry`, `--json` and `--audit`, traced at the ring capacity
//!   for `--trace` and `--trace-diff`), so a resume in another mode is
//!   refused instead of restoring registries of the wrong kind.
//! * `--synthetic N` — replace the paper matrix with an `N`-trial
//!   synthetic scale matrix (cheap scan trials; for million-trial runs).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use underradar_campaign::report::{CampaignReport, CellStat};
use underradar_campaign::spec::CampaignSpec;
use underradar_runner::{
    run_service, CollectSink, JsonlSink, NullSink, RowSink, RunConfig, RunProfile, ServiceOutcome,
};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::{trace, Registry, Telemetry, TraceRecord};

use super::{parse, write_stdout, Command, Failure, Mode, OutputMode};
use crate::experiments::campaign::{paper_campaign, synthetic_campaign};

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

/// Run the campaign through the service. With a checkpoint, report on
/// stderr what the journal restored.
fn run(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    tel: &Telemetry,
    sink: &mut dyn RowSink,
    clock: &StageClock,
) -> Result<ServiceOutcome, Failure> {
    let outcome = clock
        .time("run", || run_service(spec, cfg, tel, sink))
        .map_err(|e| Failure::Run(format!("service run failed: {e}")))?;
    if cfg.checkpoint.is_some() {
        eprintln!(
            "service: {} executed, {} restored, {} resumed retries, {} journal bytes truncated",
            outcome.executed, outcome.restored, outcome.resumed_retries, outcome.journal_truncated
        );
    }
    Ok(outcome)
}

/// `--trace-diff A B` names two trials of the matrix.
fn check_trace_diff(a: u64, b: u64, trials: usize) -> Result<(), Failure> {
    match [a, b].into_iter().find(|&i| i >= trials as u64) {
        Some(i) => Err(Failure::Usage(format!(
            "--trace-diff: trial {i} is not in the campaign, which has {trials} trials"
        ))),
        None => Ok(()),
    }
}

fn run_trace_diff(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    (a, b): (u64, u64),
    trace_capacity: usize,
    clock: &StageClock,
) -> Result<RunProfile, Failure> {
    let tel = Telemetry::with_trace(trace_capacity);
    let outcome = run(spec, cfg, &tel, &mut NullSink, clock)?;
    let snap = tel.snapshot();
    let decisions = |i: u64| {
        trial_decisions(&snap.trace, i).ok_or_else(|| {
            Failure::Run(format!(
                "--trace-diff: trial {i}'s trace lost its start marker to ring eviction; \
                 raise --trace-capacity"
            ))
        })
    };
    let (left, right) = (decisions(a)?, decisions(b)?);
    write_stdout(&format!(
        "trace diff: trial {a} (a) vs trial {b} (b)\n{}",
        trace::render_diff(trace::diff(&left, &right).as_ref())
    ))?;
    Ok(outcome.profile)
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
fn write_profile_json(path: &Path, clock: &StageClock, p: &RunProfile) -> Result<(), Failure> {
    let join = |v: &[u64]| {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"service\":{{\"prepare_ms\":{},\"retries_seen\":{},\"snapshots\":{},\
         \"wall_ms\":{},\"worker_attempts\":[{}],\"worker_busy_ns\":[{}]}}",
        p.prepare_ms,
        p.retries_seen,
        p.snapshots,
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
    std::fs::write(path, out)
        .map_err(|e| Failure::Run(format!("--profile-json {}: {e}", path.display())))
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
) -> Result<RunProfile, Failure> {
    match mode {
        OutputMode::Json => {
            let tel = Telemetry::enabled();
            let mut sink = CollectSink::new();
            let outcome = run(spec, cfg, &tel, &mut sink, clock)?;
            if outcome.restored > 0 {
                return Err(Failure::Run(format!(
                    "--json needs every trial row, but {} trials were restored from the \
                     checkpoint without their rows; rerun without --checkpoint",
                    outcome.restored
                )));
            }
            let report = CampaignReport {
                trials: sink.into_index_order(),
                summary: outcome.report,
            };
            let telemetry = clock.time("score", || tel.snapshot().to_json());
            write_stdout(&format!(
                "{{\"experiment\":\"campaign\",\"report\":{},\"telemetry\":{telemetry}}}\n",
                report.to_json()
            ))?;
            Ok(outcome.profile)
        }
        OutputMode::Jsonl => {
            let stdout = std::io::stdout();
            let mut sink = JsonlSink::new(std::io::BufWriter::new(stdout.lock()));
            Ok(run(spec, cfg, &Telemetry::disabled(), &mut sink, clock)?.profile)
        }
        OutputMode::Text | OutputMode::TextWithTelemetry | OutputMode::Trace => {
            let tel = mode.telemetry_handle(trace_capacity);
            let outcome = run(spec, cfg, &tel, &mut NullSink, clock)?;
            let out = clock.time("score", || {
                mode.render("campaign", &outcome.report.render_text(), &tel.snapshot())
            });
            write_stdout(&out)?;
            Ok(outcome.profile)
        }
    }
}

/// `--audit`: run with telemetry on, print the report, then the safety
/// audit reconstructed from the merged registry.
fn run_audit(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    json: bool,
    clock: &StageClock,
) -> Result<RunProfile, Failure> {
    let tel = Telemetry::enabled();
    let outcome = run(spec, cfg, &tel, &mut NullSink, clock)?;
    let cells = outcome.report.cells();
    let audit = clock.time("score", || render_audit(&cells, &tel.snapshot(), json));
    write_stdout(&format!(
        "{}--- audit ---\n{audit}",
        outcome.report.render_text()
    ))?;
    Ok(outcome.profile)
}

/// `underradar campaign [flags]`.
pub fn campaign(argv: &[String]) -> Result<(), Failure> {
    let args = parse(argv, Command::Campaign).map_err(Failure::Usage)?;
    let clock = StageClock::default();
    let mut spec = clock.time("prepare", || match args.synthetic {
        Some(n) => synthetic_campaign(n),
        None => paper_campaign(4),
    });
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
    let run_profile = match args.mode {
        Mode::TraceDiff(a, b) => {
            check_trace_diff(a, b, spec.trial_count())?;
            run_trace_diff(&spec, &cfg, (a, b), args.trace_capacity, &clock)?
        }
        Mode::Audit { json } => run_audit(&spec, &cfg, json, &clock)?,
        Mode::Output(mode) => run_mode(&spec, &cfg, mode, args.trace_capacity, &clock)?,
    };
    if let Some(path) = args.profile_json {
        write_profile_json(&path, &clock, &run_profile)?;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_diff_of_an_unknown_trial_is_a_usage_error() {
        let argv: Vec<String> = ["--synthetic", "20", "--trace-diff", "3", "999"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        match campaign(&argv) {
            Err(Failure::Usage(msg)) => {
                assert!(msg.contains("trial 999"), "{msg}");
                assert!(msg.contains("20 trials"), "{msg}");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        assert!(check_trace_diff(0, 19, 20).is_ok());
        assert!(check_trace_diff(20, 0, 20).is_err());
    }
}
