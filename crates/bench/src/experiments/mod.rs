//! One module per reproduced table/figure. See `DESIGN.md` §4 for the
//! experiment ↔ paper mapping.

use underradar_campaign::sched::run_indexed;
use underradar_telemetry::{Registry, Telemetry};

pub mod a1_ablations;
pub mod campaign;
pub mod e01_testbed;
pub mod e02_scan;
pub mod e03_fig2_spam_cdf;
pub mod e04_gfc_dns;
pub mod e05_ddos;
pub mod e06_fig3a_stateless;
pub mod e07_fig3b_stateful;
pub mod e08_syria;
pub mod e09_mvr;
pub mod e10_spoofability;
pub mod e11_ethics_load;
pub mod e12_risk_matrix;
pub mod e13_evasion;
pub mod e14_scale;

/// A named experiment entry point. The function records metrics into the
/// given [`Telemetry`] handle (a disabled handle costs one branch per
/// site, so `run_with(&Telemetry::disabled())` is the plain run).
pub type Experiment = (&'static str, fn(&Telemetry) -> String);

/// Every experiment, in report order: `(name, run_with)`.
pub const ALL: [Experiment; 15] = [
    ("e01_testbed", e01_testbed::run_with),
    ("e02_scan", e02_scan::run_with),
    ("e03_fig2_spam_cdf", e03_fig2_spam_cdf::run_with),
    ("e04_gfc_dns", e04_gfc_dns::run_with),
    ("e05_ddos", e05_ddos::run_with),
    ("e06_fig3a_stateless", e06_fig3a_stateless::run_with),
    ("e07_fig3b_stateful", e07_fig3b_stateful::run_with),
    ("e08_syria", e08_syria::run_with),
    ("e09_mvr", e09_mvr::run_with),
    ("e10_spoofability", e10_spoofability::run_with),
    ("e11_ethics_load", e11_ethics_load::run_with),
    ("e12_risk_matrix", e12_risk_matrix::run_with),
    ("e13_evasion", e13_evasion::run_with),
    ("e14_scale", e14_scale::run_with),
    ("a1_ablations", a1_ablations::run_with),
];

/// The experiment `underradar experiments <name>` runs: the short name
/// is the entry's prefix without leading zeros (`e1` for `e01_testbed`,
/// `a1` for `a1_ablations`), matched case-insensitively.
pub fn find(short: &str) -> Option<Experiment> {
    ALL.iter().copied().find(|(name, _)| {
        let prefix = name.split('_').next().unwrap_or(name);
        let (letter, number) = prefix.split_at(1);
        let short_name = format!("{letter}{}", number.trim_start_matches('0'));
        short_name.eq_ignore_ascii_case(short)
    })
}

/// Worker threads for the experiment fan-out: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Run every experiment, concatenating reports (used by the `cargo bench`
/// harness so one command regenerates all tables and figures).
///
/// The experiments fan out across worker threads with the campaign
/// scheduler ([`run_indexed`]); the concatenation is in [`ALL`] order,
/// and each experiment seeds its own RNGs, so the report is byte-identical
/// to a sequential run.
pub fn run_all() -> String {
    run_indexed(ALL.len(), workers(), |i| ALL[i].1(&Telemetry::disabled())).concat()
}

/// One experiment's outcome: name, rendered report, telemetry registry.
pub type ExperimentResult = (&'static str, String, Registry);

/// Run `experiments` with telemetry enabled, sharded across worker
/// threads. Each experiment records into its own registry, so results are
/// independent of scheduling; the output is in item order and
/// byte-identical to [`collect_sequential`].
pub fn collect(experiments: &[Experiment]) -> Vec<ExperimentResult> {
    run_indexed(experiments.len(), workers(), |i| {
        let (name, run) = experiments[i];
        let tel = Telemetry::enabled();
        let report = run(&tel);
        (name, report, tel.snapshot())
    })
}

/// Run `experiments` with telemetry enabled, one after another on this
/// thread (the reference ordering [`collect`] must match byte-for-byte).
pub fn collect_sequential(experiments: &[Experiment]) -> Vec<ExperimentResult> {
    experiments
        .iter()
        .map(|&(name, run)| {
            let tel = Telemetry::enabled();
            let report = run(&tel);
            (name, report, tel.snapshot())
        })
        .collect()
}

/// Render `BENCH_telemetry.json`: every experiment's registry in run
/// order, plus a merged view folding all of them together (counters add,
/// gauges overwrite, histograms bucket-add). Deterministic: same inputs,
/// same bytes.
pub fn telemetry_json(results: &[ExperimentResult]) -> String {
    let mut merged = Registry::default();
    let mut out = String::from("{\"experiments\":{");
    for (i, (name, _, registry)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        underradar_telemetry::json::push_key(&mut out, name);
        out.push_str(&registry.to_json());
        merged.merge(registry);
    }
    out.push_str("},\"merged\":");
    out.push_str(&merged.to_json());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_is_reachable_by_its_short_name() {
        let shorts: Vec<String> = (1..=14)
            .map(|n| format!("e{n}"))
            .chain(["a1".to_string()])
            .collect();
        assert_eq!(shorts.len(), ALL.len());
        for (short, (name, _)) in shorts.iter().zip(ALL.iter()) {
            let found = find(short).map(|(n, _)| n);
            assert_eq!(found, Some(*name), "{short}");
            assert_eq!(find(&short.to_uppercase()).map(|(n, _)| n), Some(*name));
        }
        assert!(find("e15").is_none());
        assert!(find("e01").is_none());
        assert!(find("all").is_none());
    }
}
