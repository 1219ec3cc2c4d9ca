//! Telemetry determinism regression (ISSUE satellite): the registries an
//! experiment produces — and the `BENCH_telemetry.json` rendering built
//! from them — must be byte-identical run-to-run and between the
//! sequential and sharded (`run_indexed`) execution paths.
//!
//! Uses the cheaper experiments so the double-run stays fast; the sharded
//! path is the same code `cargo bench --bench experiments` uses for all
//! fifteen.

use underradar_bench::experiments::{collect, collect_sequential, telemetry_json, Experiment, ALL};
use underradar_runner::{run_in_memory, JournalError};

/// A representative, fast subset: pure-generator (E3, E8, E10) and
/// pipeline (E9) experiments.
fn subset() -> Vec<Experiment> {
    ALL.iter()
        .copied()
        .filter(|(name, _)| {
            matches!(
                *name,
                "e03_fig2_spam_cdf" | "e08_syria" | "e09_mvr" | "e10_spoofability"
            )
        })
        .collect()
}

#[test]
fn telemetry_json_is_identical_across_repeat_runs() {
    let exps = subset();
    let a = telemetry_json(&collect_sequential(&exps));
    let b = telemetry_json(&collect_sequential(&exps));
    assert_eq!(a, b, "same experiments, same seed, same bytes");
    assert!(a.contains("\"e09_mvr\""));
    assert!(a.contains("\"merged\""));
}

#[test]
fn sharded_and_sequential_runs_agree_byte_for_byte() {
    let exps = subset();
    let sequential = collect_sequential(&exps);
    let sharded = collect(&exps);
    for ((n1, r1, reg1), (n2, r2, reg2)) in sequential.iter().zip(sharded.iter()) {
        assert_eq!(n1, n2);
        assert_eq!(r1, r2, "{n1}: report differs under sharding");
        assert_eq!(
            reg1.to_json(),
            reg2.to_json(),
            "{n1}: registry differs under sharding"
        );
    }
    assert_eq!(telemetry_json(&sequential), telemetry_json(&sharded));
}

#[test]
fn campaign_sequential_and_sharded_agree_byte_for_byte() -> Result<(), JournalError> {
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_protocols::dns::DnsName;
    use underradar_telemetry::Telemetry;

    // Flat + routed methods across two policies so the sharded path
    // crosses policy-prep and method boundaries, not just trial repeats.
    // The client-link impairment knobs are on: every reorder/duplicate/
    // corrupt draw comes from the per-trial simulator RNG in simulated-
    // time order, so shard scheduling must not change a single byte.
    let blocked = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
    let spec = CampaignSpec::new("determinism", 42)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Overt, MethodKind::Scan, MethodKind::Stateful])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("dns-block", blocked))
        .trials_per_cell(2)
        .client_link_reorder(0.2)
        .client_link_duplicate(0.1)
        .client_link_corrupt(0.05)
        .run_secs(30);
    let sequential_tel = Telemetry::enabled();
    let sequential = run_in_memory(&spec, 1, &sequential_tel)?;
    let sharded_tel = Telemetry::enabled();
    let sharded = run_in_memory(&spec, 4, &sharded_tel)?;
    assert_eq!(
        sequential.to_json(),
        sharded.to_json(),
        "campaign report differs under sharding"
    );
    assert_eq!(
        sequential_tel.snapshot().to_json(),
        sharded_tel.snapshot().to_json(),
        "merged campaign telemetry differs under sharding"
    );
    Ok(())
}

/// ISSUE satellite: the flight recorder must be as deterministic as the
/// report — a traced campaign run yields byte-identical trace JSONL (and
/// explainer chains) whether it runs sequentially or across 4 workers.
#[test]
fn campaign_trace_is_byte_identical_across_shard_counts() -> Result<(), JournalError> {
    use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
    use underradar_censor::CensorPolicy;
    use underradar_protocols::dns::DnsName;
    use underradar_telemetry::{trace, Telemetry, DEFAULT_TRACE_CAPACITY};

    let blocked = CensorPolicy::new()
        .block_domain(&DnsName::parse("twitter.com").expect("n"))
        .block_keyword("falun");
    let spec = CampaignSpec::new("trace-determinism", 7)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Overt, MethodKind::Scan])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new("blocked", blocked))
        .trials_per_cell(2)
        .run_secs(30);
    let run = |shards: usize| {
        let tel = Telemetry::with_trace(DEFAULT_TRACE_CAPACITY);
        let report = run_in_memory(&spec, shards, &tel)?;
        let snap = tel.snapshot();
        let chains = trace::render_chains(&trace::explain(&snap.trace));
        Ok::<_, JournalError>((report.render_text(), snap.trace_jsonl(), chains))
    };
    let (report_1, jsonl_1, chains_1) = run(1)?;
    let (report_4, jsonl_4, chains_4) = run(4)?;
    assert_eq!(report_1, report_4, "report differs under sharding");
    assert_eq!(jsonl_1, jsonl_4, "trace JSONL differs under sharding");
    assert_eq!(chains_1, chains_4, "explainer chains differ under sharding");
    // And the trace actually recorded the pipeline: stream-stage records
    // exist, the blocked cells produced censor actions, and every line
    // parses as a JSON object with the mandatory keys.
    assert!(!jsonl_1.is_empty(), "traced campaign produced no records");
    assert!(jsonl_1.lines().count() > 16);
    for line in jsonl_1.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad row: {line}"
        );
        for key in ["\"kind\":", "\"stage\":", "\"t_ns\":"] {
            assert!(line.contains(key), "row missing {key}: {line}");
        }
    }
    assert!(jsonl_1.contains("\"stage\":\"campaign\""));
    assert!(jsonl_1.contains("\"kind\":\"verdict\""));
    assert!(jsonl_1.contains("\"stage\":\"censor\""));
    Ok(())
}

#[test]
fn e09_registry_covers_the_surveillance_pipeline() {
    let exps: Vec<Experiment> = ALL
        .iter()
        .copied()
        .filter(|(name, _)| *name == "e09_mvr")
        .collect();
    let results = collect_sequential(&exps);
    let registry = &results[0].2;
    assert!(registry.counter("surveil.observed") > 0);
    assert!(registry.counter("surveil.mvr.total_bytes") > 0);
    assert!(registry.counter("surveil.store.metadata.inserted") > 0);
    assert!(registry.counter("workloads.population.packets") > 0);
    assert!(
        !registry.histograms["workloads.population.pkt_bytes"].is_empty(),
        "packet-size histogram populated"
    );
    assert_eq!(
        registry.histograms["span.workloads.population.ns"].count(),
        1,
        "one observation of the generation window's simulated length"
    );
}
