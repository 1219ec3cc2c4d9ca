//! `cargo bench --bench experiments` regenerates every paper table and
//! figure in one run (E1–E14, A1). Not a timing benchmark — a
//! reproduction harness (harness = false).
//!
//! Alongside the stdout report it writes `BENCH_telemetry.json`: every
//! experiment's telemetry registry (netsim scheduler, censor, ids,
//! surveillance, workload metrics) plus a merged view. The experiments
//! shard across worker threads but each records into its own registry, so
//! the file is byte-identical to a sequential run of the same seed.

use std::time::Instant;

fn main() {
    // Respect `cargo bench -- --list`-style probing by ignoring args.
    let start = Instant::now();
    let results = underradar_bench::experiments::collect(&underradar_bench::experiments::ALL);
    for (_, report, _) in &results {
        print!("{report}");
    }
    // Wall-clock time goes to stderr, so the stdout report stays
    // deterministic.
    eprintln!(
        "{} experiments in {:.3}s",
        results.len(),
        start.elapsed().as_secs_f64()
    );
    let json = underradar_bench::experiments::telemetry_json(&results);
    // cargo runs benches with cwd = the package dir; anchor the artifact
    // at the workspace root so it lands next to the other reports.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("telemetry registry written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
