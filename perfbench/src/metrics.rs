//! Metric names, units, and the per-layer figures derived from a traced
//! pass.

use std::collections::BTreeMap;

use underradar_campaign::MethodKind;
use underradar_runner::RunProfile;

use crate::replica::PassOutput;
use crate::trace::{self_time_by_name, self_times, CAMPAIGN_ID};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("trials_per_s", "1/s"),
    ("cpu_ms_per_trial", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics that do not depend on the method set.
const LAYER_FIXED: [(&str, &str); 35] = [
    ("campaign.prepare_us", "us"),
    ("campaign.trial_us.p50", "us"),
    ("campaign.trial_us.p99", "us"),
    ("campaign.attempts_per_trial", "count"),
    ("campaign.worker_busy_frac", "frac"),
    ("campaign.worker_skew", "ratio"),
    ("campaign.steals", "count"),
    ("core.instantiate_us", "us"),
    ("core.spawn_us", "us"),
    ("core.score_us", "us"),
    ("core.teardown_us", "us"),
    ("netsim.run_us", "us"),
    ("netsim.events_per_trial", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.stack_us", "us"),
    ("ids.replay_us", "us"),
    ("ids.packets_per_trial", "count"),
    ("ids.bytes_scanned_per_trial", "bytes"),
    ("ids.flows_per_trial", "count"),
    ("censor.replay_us", "us"),
    ("censor.actions_per_trial", "count"),
    ("surveil.replay_us", "us"),
    ("surveil.mvr_us", "us"),
    ("surveil.retained_frac", "frac"),
    ("surveil.audit_us", "us"),
    ("telemetry.export_us", "us"),
    ("telemetry.keys_per_trial", "count"),
    ("telemetry.merge_us", "us"),
    ("runner.encode_us", "us"),
    ("runner.journal_append_us", "us"),
    ("runner.journal_bytes_per_trial", "bytes"),
    ("runner.sink_row_us", "us"),
    ("runner.report_absorb_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.trace_overhead_paired_frac", "frac"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for m in MethodKind::ALL {
        out.push((format!("campaign.trial_us.{}.mean", m.label()), "us"));
    }
    out.push(("bench.unattributed_frac".to_string(), "frac"));
    for m in MethodKind::ALL {
        out.push((format!("bench.unattributed_frac.{}", m.label()), "frac"));
    }
    out
}

/// Figures taken outside the traced pass that feed per-layer metrics.
pub struct Untraced<'a> {
    pub prepare_s: f64,
    pub cpu_ms_per_trial: f64,
    pub profiles: &'a [(RunProfile, f64)],
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `values`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Spans of the service's commit path, which `engine::run_trial` does not
/// include.
fn is_commit(name: &str) -> bool {
    name.starts_with("runner.") || name == "telemetry.merge"
}

/// Derive every per-layer metric from a traced pass.
pub fn layer_metrics(pass: &PassOutput, untraced: &Untraced<'_>) -> BTreeMap<String, f64> {
    let spans = pass.spans.spans();
    let selfs = self_times(spans);
    let n = pass.trials.len() as f64;
    let method_of = |id: u64| pass.trials.get(id as usize).and_then(|t| t.method);

    // Per-trial self time, summed over the trial spans of each name.
    let mut trial_spans: Vec<_> = Vec::new();
    let mut trial_selfs: Vec<u64> = Vec::new();
    let mut campaign_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        if s.id == CAMPAIGN_ID {
            *campaign_ns.entry(s.name).or_insert(0) += t;
        } else {
            trial_spans.push(s.clone());
            trial_selfs.push(*t);
        }
    }
    let by_name = self_time_by_name(&trial_spans, &trial_selfs);
    let us = |name: &str| ratio(*by_name.get(name).unwrap_or(&0) as f64, n) / 1000.0;
    let campaign_us = |name: &str| *campaign_ns.get(name).unwrap_or(&0) as f64 / 1000.0;

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    put("campaign.prepare_us", untraced.prepare_s * 1e6);
    let mut engine_us: Vec<f64> = Vec::new();
    let mut by_method: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut cover: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut engine_ns = 0;
    let mut commit_ns = 0;
    for (s, t) in spans.iter().zip(&selfs) {
        let Some(method) = method_of(s.id) else {
            continue;
        };
        match s.name {
            "campaign.engine_trial" => {
                engine_ns += s.duration_ns();
                let v = s.duration_ns() as f64 / 1000.0;
                engine_us.push(v);
                let e = by_method.entry(method.label()).or_insert((0.0, 0.0));
                e.0 += v;
                e.1 += 1.0;
            }
            "campaign.trial" => {
                let c = cover.entry(method.label()).or_insert((0, 0));
                c.0 += t;
                c.1 += s.duration_ns();
            }
            name if is_commit(name)
                && s.parent.is_some_and(|p| spans[p].name == "campaign.trial") =>
            {
                commit_ns += s.duration_ns()
            }
            _ => {}
        }
    }
    engine_us.sort_by(f64::total_cmp);
    put("campaign.trial_us.p50", percentile(&engine_us, 50.0));
    put("campaign.trial_us.p99", percentile(&engine_us, 99.0));
    for method in MethodKind::ALL {
        let (sum, count) = by_method.get(method.label()).copied().unwrap_or((0.0, 0.0));
        put(
            &format!("campaign.trial_us.{}.mean", method.label()),
            ratio(sum, count),
        );
        let (unattributed, total) = cover.get(method.label()).copied().unwrap_or((0, 0));
        put(
            &format!("bench.unattributed_frac.{}", method.label()),
            ratio(unattributed as f64, total as f64),
        );
    }
    let (unattributed, total) = cover
        .values()
        .fold((0, 0), |acc, (u, t)| (acc.0 + u, acc.1 + t));
    put(
        "bench.unattributed_frac",
        ratio(unattributed as f64, total as f64),
    );
    let traced_ms_per_trial = ratio(total as f64, n) / 1e6;
    put(
        "bench.trace_overhead_frac",
        ratio(traced_ms_per_trial, untraced.cpu_ms_per_trial) - 1.0,
    );
    put(
        "bench.trace_overhead_paired_frac",
        ratio(total.saturating_sub(commit_ns) as f64, engine_ns as f64) - 1.0,
    );

    let sum = |f: fn(&crate::replica::TrialStats) -> u64| -> f64 {
        pass.trials.iter().map(f).sum::<u64>() as f64
    };
    put(
        "campaign.attempts_per_trial",
        ratio(sum(|t| t.attempts.into()), n),
    );
    let mut busy: Vec<f64> = Vec::new();
    let mut skew: Vec<f64> = Vec::new();
    let mut steals: Vec<f64> = Vec::new();
    for (p, wall_s) in untraced.profiles {
        let workers = p.worker_busy_ns.len() as f64;
        let total_busy: u64 = p.worker_busy_ns.iter().sum();
        busy.push(ratio(total_busy as f64 / 1e9, workers * wall_s));
        let max = p.worker_busy_ns.iter().copied().max().unwrap_or(0);
        let min = p.worker_busy_ns.iter().copied().min().unwrap_or(0);
        skew.push(ratio(max as f64, min as f64));
        steals.push(p.steals as f64);
    }
    put("campaign.worker_busy_frac", median(&mut busy));
    put("campaign.worker_skew", median(&mut skew));
    put("campaign.steals", median(&mut steals));

    put("core.instantiate_us", us("core.instantiate"));
    put("core.spawn_us", us("core.spawn"));
    put("core.score_us", us("core.score"));
    put("core.teardown_us", us("core.teardown"));

    let run_us = us("netsim.run");
    let events = sum(|t| t.events);
    let censor_us = us("censor.replay") - us("censor.replay_null");
    let surveil_us = us("surveil.replay");
    put("netsim.run_us", run_us);
    put("netsim.events_per_trial", ratio(events, n));
    put(
        "netsim.ns_per_event",
        ratio(*by_name.get("netsim.run").unwrap_or(&0) as f64, events),
    );
    put("netsim.stack_us", run_us - censor_us - surveil_us);

    put("ids.replay_us", us("ids.replay"));
    put("ids.packets_per_trial", ratio(sum(|t| t.ids_packets), n));
    put(
        "ids.bytes_scanned_per_trial",
        ratio(sum(|t| t.ids_bytes_scanned), n),
    );
    put("ids.flows_per_trial", ratio(sum(|t| t.ids_flows), n));

    put("censor.replay_us", censor_us);
    put(
        "censor.actions_per_trial",
        ratio(sum(|t| t.censor_actions), n),
    );

    put("surveil.replay_us", surveil_us);
    put("surveil.mvr_us", us("surveil.mvr"));
    put(
        "surveil.retained_frac",
        ratio(sum(|t| t.surveil_retained), sum(|t| t.surveil_observed)),
    );
    put("surveil.audit_us", campaign_us("surveil.audit"));

    put("telemetry.export_us", us("telemetry.export"));
    put(
        "telemetry.keys_per_trial",
        ratio(sum(|t| t.telemetry_keys), n),
    );
    put(
        "telemetry.merge_us",
        us("telemetry.merge") + ratio(campaign_us("telemetry.merge"), n),
    );

    put("runner.encode_us", us("runner.encode"));
    put("runner.journal_append_us", us("runner.journal_append"));
    put(
        "runner.journal_bytes_per_trial",
        ratio(pass.journal_bytes as f64, n),
    );
    put("runner.sink_row_us", us("runner.sink_row"));
    put("runner.report_absorb_us", us("runner.report_absorb"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `section` in BENCHMARK.json: every `"name"`
    /// value between that key and the next top-level section.
    fn declared(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"));
        let end = next
            .and_then(|n| json[start..].find(&format!("\"{n}\"")).map(|i| start + i))
            .unwrap_or(json.len());
        json[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let value = rest.split('"').nth(1).expect("quoted name");
                value.to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_names_equal_the_declared_sets() {
        let json = benchmark_json();
        let mut e2e_declared = declared(&json, "end_to_end", Some("per_layer"));
        let mut layer_declared = declared(&json, "per_layer", None);
        let mut e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let mut layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        for names in [&mut e2e_declared, &mut layer_declared, &mut e2e, &mut layer] {
            names.sort();
        }
        assert_eq!(e2e, e2e_declared);
        assert_eq!(layer, layer_declared);
        let mut all = e2e.clone();
        all.extend(layer.iter().cloned());
        for name in &all {
            assert!(valid(name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layer.len(), "names are unique");
    }

    #[test]
    fn declared_units_match_the_emitted_units() {
        let json = benchmark_json();
        let units: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .collect();
        for (name, unit) in units {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "{needle}");
        }
    }

    #[test]
    fn workload_names_match_the_declared_ones() {
        let json = benchmark_json();
        let mut declared = declared(&json, "workloads", Some("end_to_end"));
        let mut ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        declared.sort();
        ours.sort();
        assert_eq!(ours, declared);
    }

    #[test]
    fn percentiles_and_medians() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
