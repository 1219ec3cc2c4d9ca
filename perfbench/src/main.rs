//! Campaign benchmark for `underradar`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mix --seed 2015 --seconds 12 --trace 0
//! ```
//!
//! One run, from the checkout root:
//!
//! 1. times the service's set-up (`CampaignSpec::expand`, the journal
//!    open on journaling workloads, `engine::prepare`) many times;
//! 2. runs the workload's campaign through `runner::run_service` with one
//!    worker per core, once to warm up and then for `--seconds`, timing
//!    each campaign from the call to the rendered report;
//! 3. drives every trial of the campaign once more through the replica in
//!    [`replica`], checking it against `engine::run_trial`, and checks
//!    that the replica's report and audit equal the service's bytes;
//! 4. prints a host line and then one JSON result line: end-to-end
//!    metrics with `--trace 0`, per-layer metrics with `--trace 1` (spans
//!    are also written to `.bench_build/perfbench-work/`).
//!
//! A failed check prints `"correct": false` and exits with code 1.

mod host;
mod metrics;
mod replica;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{median, Untraced};
use workload::{service_rep, setup_once, work_dir, Rep, Workload};

/// Set-ups timed before each campaign; `setup_s` is the median of all.
const SETUPS_PER_CAMPAIGN: usize = 8;
/// Campaigns timed at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if map.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_mix|scan_journal|paper_audit> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", host::Fingerprint::probe(workers).to_json());
    match run(&args, workers) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err((attempted, message)) => {
            eprintln!(
                "perfbench: {} seed {}: {message}",
                args.workload.name(),
                args.seed
            );
            println!(
                "{}",
                result_line(false, attempted.max(1), attempted.max(1), &[])
            );
            ExitCode::from(1)
        }
    }
}

/// The whole run; on failure, the trials attempted so far and the cause.
fn run(args: &Args, workers: usize) -> Result<String, (usize, String)> {
    let w = args.workload;
    let spec = w.spec(args.seed);
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| (0, format!("create {}: {e}", dir.display())))?;
    let journal = dir.join(format!("journal-{}-{}.bin", w.name(), std::process::id()));

    let mut setup = Vec::new();
    let mut prepare = Vec::new();
    let mut time_setups = |n: usize| -> Result<(), (usize, String)> {
        for _ in 0..n {
            let s = setup_once(w, &spec, &journal).map_err(|e| (0, e))?;
            setup.push(s.total_s);
            prepare.push(s.prepare_s);
        }
        Ok(())
    };
    time_setups(SETUPS_PER_CAMPAIGN)?;
    let mut attempted = 0;
    let warm = service_rep(w, &spec, workers, &journal).map_err(|e| (spec.trial_count(), e))?;
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        // Set-ups are timed between campaigns, so that their median
        // samples the whole run rather than one moment of it.
        time_setups(SETUPS_PER_CAMPAIGN)?;
        let rep = service_rep(w, &spec, workers, &journal)
            .map_err(|e| (attempted + spec.trial_count(), e))?;
        attempted += rep.trials;
        if rep.text != warm.text || rep.audit != warm.audit {
            return Err((attempted, "service output differs between repeats".into()));
        }
        reps.push(rep);
    }
    let timed_wall = start.elapsed().as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();
    let t_check = Instant::now();

    let pass = replica::check_pass(w, &spec, args.trace, &journal).map_err(|e| (attempted, e))?;
    if pass.text != warm.text {
        return Err((
            attempted,
            format!(
                "replica report differs from the service's:\n--- service\n{}--- replica\n{}",
                warm.text, pass.text
            ),
        ));
    }
    if pass.audit != warm.audit {
        return Err((attempted, "replica audit differs from the service's".into()));
    }
    let failed_per_campaign = pass.trials.iter().filter(|t| t.failed).count();
    let failed = failed_per_campaign * reps.len();

    let mut tps: Vec<f64> = reps.iter().map(|r| r.trials as f64 / r.wall_s).collect();
    let mut cpu: Vec<f64> = reps
        .iter()
        .map(|r| r.cpu_s * 1000.0 / r.trials as f64)
        .collect();
    let cpu_ms_per_trial = median(&mut cpu);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let profiles: Vec<_> = reps.iter().map(|r| (r.profile.clone(), r.wall_s)).collect();
        let values = metrics::layer_metrics(
            &pass,
            &Untraced {
                prepare_s: median(&mut prepare),
                cpu_ms_per_trial,
                profiles: &profiles,
            },
        );
        let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        write_spans(&pass, &path).map_err(|e| (attempted, format!("{}: {e}", path.display())))?;
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values[&name];
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [
            median(&mut tps),
            cpu_ms_per_trial,
            peak_rss_mb,
            median(&mut setup),
            1.0 - failed as f64 / attempted as f64,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect()
    };
    eprintln!(
        "perfbench: {} seed {}: {} campaigns of {} trials in {timed_wall:.2} s, check {:.2} s",
        w.name(),
        args.seed,
        reps.len(),
        spec.trial_count(),
        t_check.elapsed().as_secs_f64()
    );
    Ok(result_line(true, attempted, failed, &metrics))
}

fn write_spans(pass: &replica::PassOutput, path: &std::path::Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    pass.spans.write_jsonl(&mut out)?;
    out.flush()
}
