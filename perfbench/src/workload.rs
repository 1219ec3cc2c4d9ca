//! The three campaign workloads and the timed runs through the run
//! service.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use underradar_bench::experiments::campaign::{paper_campaign, synthetic_campaign};
use underradar_campaign::engine;
use underradar_campaign::{CampaignSpec, CellStat};
use underradar_runner::{
    run_service, Journal, JsonlSink, NullSink, RowSink, RunConfig, RunProfile,
};
use underradar_surveil::exposure::{DeclaredCell, ExposureLedger, SafetyAudit};
use underradar_telemetry::{Registry, Telemetry};

use crate::host;

/// Repeats per cell of the paper matrix (8 methods x 4 policies x 4
/// targets), so one campaign is 128 x this many trials.
pub const PAPER_REPEATS: usize = 8;
/// Trials in one scan-only campaign.
pub const SCAN_TRIALS: usize = 2048;
/// The service's default journal fsync cadence, in records.
pub const FSYNC_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMix,
    ScanJournal,
    PaperAudit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::ScanJournal,
        Workload::PaperAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::ScanJournal => "scan_journal",
            Workload::PaperAudit => "paper_audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign this workload runs. The seed reaches the program only
    /// as the spec's master seed.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let mut spec = match self {
            Workload::PaperMix | Workload::PaperAudit => paper_campaign(PAPER_REPEATS),
            Workload::ScanJournal => synthetic_campaign(SCAN_TRIALS),
        };
        spec.master_seed = seed;
        spec
    }

    /// A fresh telemetry handle of the kind the workload runs with.
    pub fn telemetry(self) -> Telemetry {
        match self {
            Workload::PaperAudit => Telemetry::enabled(),
            _ => Telemetry::disabled(),
        }
    }

    pub fn journals(self) -> bool {
        self == Workload::ScanJournal
    }
}

/// Reconstruct the exposure ledger from a merged registry, fold it against
/// the declared per-cell evasion counts and render the safety audit, as
/// `exp_campaign --audit` does.
pub fn render_audit(cells: &[CellStat], registry: &Registry) -> String {
    let ledger = ExposureLedger::from_registry(registry);
    let declared: Vec<DeclaredCell> = cells
        .iter()
        .map(|c| DeclaredCell {
            cell: format!("{}/{}", c.method, c.policy),
            trials: c.trials as u64,
            evaded: c.evaded as u64,
        })
        .collect();
    SafetyAudit::build(&ledger, &declared).render_text()
}

/// One timed campaign through the service.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub trials: usize,
    pub text: String,
    pub audit: Option<String>,
    pub profile: RunProfile,
}

/// Run the campaign once through `run_service`, timing from the call to
/// the rendered report (and audit).
pub fn service_rep(
    workload: Workload,
    spec: &CampaignSpec,
    workers: usize,
    journal_path: &Path,
) -> Result<Rep, String> {
    let mut cfg = RunConfig::new(workers).fsync_every(FSYNC_EVERY);
    if workload.journals() {
        remove_if_present(journal_path)?;
        cfg = cfg.checkpoint(journal_path.to_path_buf());
    }
    let tel = workload.telemetry();
    let mut sink: Box<dyn RowSink> = if workload.journals() {
        Box::new(JsonlSink::new(io::sink()))
    } else {
        Box::new(NullSink)
    };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let outcome =
        run_service(spec, &cfg, &tel, sink.as_mut()).map_err(|e| format!("run_service: {e}"))?;
    let text = outcome.report.render_text();
    let audit = tel
        .is_enabled()
        .then(|| render_audit(&outcome.report.cells(), &tel.snapshot()));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    if workload.journals() {
        remove_if_present(journal_path)?;
    }
    if outcome.executed != spec.trial_count() || outcome.restored != 0 {
        return Err(format!(
            "service executed {} and restored {} of {} trials",
            outcome.executed,
            outcome.restored,
            spec.trial_count()
        ));
    }
    Ok(Rep {
        wall_s,
        cpu_s,
        trials: outcome.report.trial_count(),
        text,
        audit,
        profile: outcome.profile,
    })
}

/// Wall seconds of one set-up as the service does it before its first
/// trial, and the `engine::prepare` part of it.
pub struct Setup {
    pub total_s: f64,
    pub prepare_s: f64,
}

/// Expand the matrix, open a fresh journal when the workload journals,
/// and build the policy preps, in the service's order.
pub fn setup_once(
    workload: Workload,
    spec: &CampaignSpec,
    journal_path: &Path,
) -> Result<Setup, String> {
    if workload.journals() {
        remove_if_present(journal_path)?;
    }
    let t0 = Instant::now();
    let trials = spec.expand();
    let journal = if workload.journals() {
        let (mut j, _) =
            Journal::open_or_create(journal_path, spec.fingerprint(), trials.len() as u64)
                .map_err(|e| format!("journal open: {e}"))?;
        j.set_fsync_every(FSYNC_EVERY);
        Some(j)
    } else {
        None
    };
    let t1 = Instant::now();
    let preps = engine::prepare(spec);
    let t2 = Instant::now();
    drop((preps, journal, trials));
    if workload.journals() {
        remove_if_present(journal_path)?;
    }
    Ok(Setup {
        total_s: (t2 - t0).as_secs_f64(),
        prepare_s: (t2 - t1).as_secs_f64(),
    })
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

/// Where a run keeps its journals and span files, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-work")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_only_the_master_seed() {
        for w in Workload::ALL {
            let a = w.spec(1);
            let mut b = w.spec(99);
            assert_eq!(a.master_seed, 1);
            assert_eq!(b.master_seed, 99);
            assert_ne!(a.fingerprint(), b.fingerprint());
            b.master_seed = a.master_seed;
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name());
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
