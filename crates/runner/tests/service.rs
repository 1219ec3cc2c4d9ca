//! End-to-end determinism and durability tests for the run service.
//!
//! The contract under test: service output (final report text, cell
//! stats, merged telemetry JSON, trace JSONL) is byte-identical to a
//! sequential index-order reference, at any worker count, with or without
//! checkpointing, and across a resume at **every** checkpoint boundary.
//! The service also fails stop: a sink error returns promptly.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{
    CampaignSpec, MethodKind, NamedPolicy, RetryPolicy, StreamReport, TrialResult,
};
use underradar_censor::CensorPolicy;
use underradar_runner::{
    run_in_memory, run_service, CollectSink, JournalError, ProgressConfig, RowSink, RunConfig,
};
use underradar_telemetry::Telemetry;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("underradar-service-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A small matrix mixing flat and routed methods across two policies.
fn spec() -> CampaignSpec {
    CampaignSpec::new("service-e2e", 2015)
        .targets(["twitter.com", "bbc.com"])
        .methods([MethodKind::Scan, MethodKind::Overt, MethodKind::Hops])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .policy(NamedPolicy::new(
            "dns-blocking",
            CensorPolicy::new().block_keyword("twitter"),
        ))
        .trials_per_cell(2)
        .run_secs(30)
}

/// A lossy matrix that actually exercises retries: heavy client link
/// loss drives `Inconclusive` verdicts into the backoff path.
fn lossy_spec() -> CampaignSpec {
    CampaignSpec::new("service-lossy", 6)
        .targets(["twitter.com"])
        .method(MethodKind::Spam)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(6)
        .retry(RetryPolicy {
            max_retries: 2,
            backoff_secs: 30,
        })
        .client_link_loss(0.4)
        .warmup(false)
        .run_secs(40)
}

/// Sorted JSON rows of what a sink collected.
fn sorted_rows(sink: CollectSink) -> Vec<String> {
    let mut rows: Vec<String> = sink.rows.iter().map(TrialResult::to_json_row).collect();
    rows.sort();
    rows
}

/// Everything the determinism contract covers, as comparable strings.
fn fingerprint_run(spec: &CampaignSpec, cfg: &RunConfig) -> (String, String, String, Vec<String>) {
    let tel = Telemetry::with_trace(4096);
    let mut sink = CollectSink::new();
    let outcome = run_service(spec, cfg, &tel, &mut sink).expect("service run");
    let snap = tel.snapshot();
    (
        outcome.report.render_text(),
        snap.to_json(),
        snap.trace_jsonl(),
        sorted_rows(sink),
    )
}

/// The sequential reference: every trial on the calling thread in index
/// order, each registry merged into `tel` in index order.
fn reference(spec: &CampaignSpec, tel: &Telemetry) -> (StreamReport, Vec<TrialResult>) {
    let preps = engine::prepare(spec);
    let cfg = ScopeConfig::of(tel);
    let mut report = StreamReport::new(&spec.name);
    let mut trials = Vec::new();
    for trial in spec.expand() {
        let (result, registry) = engine::run_trial(spec, &preps[trial.policy_idx], &trial, cfg);
        tel.merge_registry(&registry);
        report.absorb(&result);
        trials.push(result);
    }
    (report, trials)
}

#[test]
fn service_matches_the_sequential_reference_byte_for_byte() {
    let spec = spec();
    let tel = Telemetry::with_trace(4096);
    let (reference, trials) = reference(&spec, &tel);
    let reference_snap = tel.snapshot();

    let (report, tel_json, trace, rows) = fingerprint_run(&spec, &RunConfig::new(3));
    assert_eq!(report, reference.render_text());
    assert_eq!(tel_json, reference_snap.to_json());
    assert_eq!(trace, reference_snap.trace_jsonl());
    let mut reference_rows: Vec<String> = trials.iter().map(|t| t.to_json_row()).collect();
    reference_rows.sort();
    assert_eq!(rows, reference_rows);
}

#[test]
fn in_memory_runs_return_rows_in_matrix_order() {
    let spec = spec();
    let tel = Telemetry::disabled();
    let (reference, trials) = reference(&spec, &tel);
    for workers in [1, 4] {
        let report = run_in_memory(&spec, workers, &tel).expect("in-memory run");
        let indices: Vec<usize> = report.trials.iter().map(|t| t.index).collect();
        assert_eq!(indices, (0..spec.trial_count()).collect::<Vec<_>>());
        let rows: Vec<String> = report.trials.iter().map(|t| t.to_json_row()).collect();
        let expected: Vec<String> = trials.iter().map(|t| t.to_json_row()).collect();
        assert_eq!(rows, expected, "{workers} workers");
        assert_eq!(report.render_text(), reference.render_text());
    }
}

/// A sink whose `n`th row (1-based) fails.
struct FailingSink {
    seen: usize,
    fail_at: usize,
}

impl RowSink for FailingSink {
    fn row(&mut self, _result: &TrialResult) -> io::Result<()> {
        self.seen += 1;
        if self.seen == self.fail_at {
            return Err(io::Error::other("sink refused the row"));
        }
        Ok(())
    }
}

/// A committer error must stop the run: the receiver is dropped, workers
/// blocked on the full channel see a failed send and exit, and the error
/// comes back instead of hanging the scope.
#[test]
fn a_failing_sink_returns_its_error_promptly() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let spec = CampaignSpec::new("failing-sink", 3)
            .target("twitter.com")
            .method(MethodKind::Scan)
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .trials_per_cell(400)
            .run_secs(20);
        let mut sink = FailingSink {
            seen: 0,
            fail_at: 2,
        };
        let result = run_service(&spec, &RunConfig::new(2), &Telemetry::disabled(), &mut sink);
        let _ = done_tx.send(result.map(|o| o.executed));
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(JournalError::Sink(e))) => assert_eq!(e.to_string(), "sink refused the row"),
        Ok(other) => panic!("expected the sink's error, got {other:?}"),
        Err(_) => panic!("run_service did not return within 60 s after a sink error"),
    }
}

#[test]
fn one_and_many_workers_agree_with_and_without_checkpointing() {
    let spec = spec();
    let baseline = fingerprint_run(&spec, &RunConfig::new(1));
    for workers in [2, 8] {
        assert_eq!(
            fingerprint_run(&spec, &RunConfig::new(workers)),
            baseline,
            "{workers} workers"
        );
    }
    let path = tmp("workers");
    assert_eq!(
        fingerprint_run(&spec, &RunConfig::new(4).checkpoint(path.clone())),
        baseline,
        "checkpointed run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inline_retries_match_the_reference() {
    let spec = lossy_spec();
    let tel = Telemetry::enabled();
    let (reference, _) = reference(&spec, &tel);
    let retried: u64 = reference.cells().iter().map(|c| c.retries).sum();
    assert!(retried > 0, "lossy spec must exercise retries");

    let tel2 = Telemetry::enabled();
    let mut sink = CollectSink::new();
    let outcome = run_service(&spec, &RunConfig::new(4), &tel2, &mut sink).expect("service run");
    assert_eq!(outcome.report.render_text(), reference.render_text());
    assert_eq!(tel2.snapshot().to_json(), tel.snapshot().to_json());
}

/// Interrupt a journaled run after every record boundary and resume;
/// assert each resumed run's report, telemetry, and trace are
/// byte-identical to the uninterrupted baseline. Returns the boundary
/// count so callers can assert coverage.
fn assert_resume_at_every_boundary(name: &str, spec: &CampaignSpec) -> usize {
    let baseline = fingerprint_run(spec, &RunConfig::new(1));
    let trials = spec.trial_count();

    // Run once to completion with fsync after every record, then replay
    // prefixes of the finished journal as kill points.
    let path = tmp(name);
    let tel = Telemetry::with_trace(4096);
    let mut sink = CollectSink::new();
    let cfg = RunConfig::new(2).checkpoint(path.clone()).fsync_every(1);
    run_service(spec, &cfg, &tel, &mut sink).expect("full run");
    let full = std::fs::read(&path).expect("journal bytes");

    // Every record boundary in the journal is a legal kill point. Walk
    // the framing to enumerate them.
    let mut boundaries = vec![underradar_runner::journal::HEADER_LEN as usize];
    let mut pos = underradar_runner::journal::HEADER_LEN as usize;
    while pos + 8 <= full.len() {
        let len =
            u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]]) as usize;
        pos += 8 + len;
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().expect("nonempty"), full.len());
    assert!(boundaries.len() > trials, "journal holds every completion");

    for (i, &cut) in boundaries.iter().enumerate() {
        std::fs::write(&path, &full[..cut]).expect("truncate to boundary");
        let tel = Telemetry::with_trace(4096);
        let mut sink = CollectSink::new();
        let outcome = run_service(spec, &cfg, &tel, &mut sink).expect("resumed run");
        assert_eq!(outcome.restored + outcome.executed, trials, "boundary {i}");
        let snap = tel.snapshot();
        assert_eq!(outcome.report.render_text(), baseline.0, "boundary {i}");
        assert_eq!(snap.to_json(), baseline.1, "boundary {i}");
        assert_eq!(snap.trace_jsonl(), baseline.2, "boundary {i}");
    }
    let _ = std::fs::remove_file(&path);
    boundaries.len()
}

/// The resume property test (satellite 4): every checkpoint boundary of a
/// small campaign is a safe kill point.
#[test]
fn resume_at_every_checkpoint_boundary_is_byte_identical() {
    let spec = CampaignSpec::new("service-resume", 11)
        .targets(["twitter.com"])
        .methods([MethodKind::Scan, MethodKind::StatelessSyn])
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(3)
        .run_secs(20);
    assert_resume_at_every_boundary("boundaries", &spec);
}

/// The same property over a campaign with retry records in the journal:
/// killing between a retry handoff and its completion must resume the
/// trial mid-attempt with its backoff budget and accumulated telemetry
/// intact, not restart it from attempt 0.
#[test]
fn resume_mid_retry_preserves_backoff_budgets() {
    let spec = lossy_spec();
    let trials = spec.trial_count();
    let boundaries = assert_resume_at_every_boundary("midretry", &spec);
    // completions + header + at least one retry handoff record.
    assert!(
        boundaries > trials + 1,
        "journal must contain retry records ({boundaries} boundaries, {trials} trials)"
    );
}

/// A journaled retry is the start state of its trial: a resume runs only
/// the attempts the journal has not recorded. (Restarting the trial from
/// attempt 0 would reproduce the same bytes, so only the attempt count
/// can tell the two apart.)
#[test]
fn a_resumed_retry_runs_only_its_remaining_attempts() {
    let spec = lossy_spec();
    let path = tmp("retry-start");
    let cfg = RunConfig::new(1).checkpoint(path.clone()).fsync_every(1);
    let mut sink = CollectSink::new();
    run_service(&spec, &cfg, &Telemetry::disabled(), &mut sink).expect("full run");
    let full = std::fs::read(&path).expect("journal bytes");

    // Cut the journal just after its first retry record (tag 2:
    // index u64, next_attempt u32).
    let mut pos = underradar_runner::journal::HEADER_LEN as usize;
    let (cut, journaled_attempts) = loop {
        let len =
            u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]]) as usize;
        let payload = &full[pos + 8..pos + 8 + len];
        pos += 8 + len;
        if payload[0] == 2 {
            let next = u32::from_le_bytes([payload[9], payload[10], payload[11], payload[12]]);
            break (pos, u64::from(next));
        }
    };
    std::fs::write(&path, &full[..cut]).expect("cut after the retry record");
    let outcome =
        run_service(&spec, &cfg, &Telemetry::disabled(), &mut CollectSink::new()).expect("resume");
    assert_eq!(outcome.resumed_retries, 1);
    // One worker completes trials in index order, so the rows after the
    // restored ones are exactly the frontier.
    let frontier_attempts: u64 = sink.rows[outcome.restored..]
        .iter()
        .map(|t| u64::from(t.retries) + 1)
        .sum();
    assert_eq!(
        outcome.profile.worker_attempts.iter().sum::<u64>(),
        frontier_attempts - journaled_attempts,
        "the resumed trial skips the {journaled_attempts} journaled attempt(s)"
    );
    let _ = std::fs::remove_file(&path);
}

/// Mid-record kills (satellite 3, end to end): cut the journal at
/// arbitrary *non*-boundary offsets — recovery truncates to the last
/// valid frontier, never panics, never double-counts a trial.
#[test]
fn mid_record_kill_recovers_without_double_counting() {
    let spec = CampaignSpec::new("service-kill", 23)
        .targets(["twitter.com"])
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(4)
        .run_secs(20);
    let baseline = fingerprint_run(&spec, &RunConfig::new(1));
    let trials = spec.trial_count();

    let path = tmp("midrecord");
    let cfg = RunConfig::new(2).checkpoint(path.clone()).fsync_every(1);
    let tel = Telemetry::with_trace(4096);
    run_service(&spec, &cfg, &tel, &mut CollectSink::new()).expect("full run");
    let full = std::fs::read(&path).expect("journal bytes");

    let header = underradar_runner::journal::HEADER_LEN as usize;
    let step = ((full.len() - header) / 13).max(1);
    for cut in (header..full.len()).step_by(step) {
        std::fs::write(&path, &full[..cut]).expect("mid-record cut");
        let tel = Telemetry::with_trace(4096);
        let outcome =
            run_service(&spec, &cfg, &tel, &mut CollectSink::new()).expect("recovered run");
        assert_eq!(outcome.restored + outcome.executed, trials, "cut {cut}");
        assert_eq!(
            outcome.report.trial_count(),
            trials,
            "cut {cut}: no loss, no double-count"
        );
        assert_eq!(outcome.report.render_text(), baseline.0, "cut {cut}");
        assert_eq!(tel.snapshot().to_json(), baseline.1, "cut {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Progress snapshots ride stderr and `runner.progress.*` metrics only:
/// the report, the rows, and every other registry entry are byte-identical
/// to a silent run.
#[test]
fn progress_snapshots_leave_rows_report_and_registry_unchanged() {
    let spec = spec();
    let baseline = fingerprint_run(&spec, &RunConfig::new(2));

    let tel = Telemetry::with_trace(4096);
    let mut sink = CollectSink::new();
    let cfg = RunConfig::new(2).progress(ProgressConfig {
        every_trials: 1,
        every_ms: 10_000,
    });
    let outcome = run_service(&spec, &cfg, &tel, &mut sink).expect("progress run");
    assert_eq!(outcome.report.render_text(), baseline.0);
    assert_eq!(sorted_rows(sink), baseline.3);

    // At least the final snapshot always fires, and it reaches the
    // registry as runner.progress.* entries.
    assert!(outcome.profile.snapshots >= 1);
    let mut snap = tel.snapshot();
    assert!(snap.counter("runner.progress.snapshots") >= 1);
    assert_eq!(
        snap.gauge("runner.progress.done"),
        spec.trial_count() as i64
    );
    // Strip the progress namespace: everything else matches the silent run.
    snap.counters
        .retain(|k, _| !k.starts_with("runner.progress."));
    snap.gauges
        .retain(|k, _| !k.starts_with("runner.progress."));
    snap.histograms
        .retain(|k, _| !k.starts_with("runner.progress."));
    assert_eq!(snap.to_json(), baseline.1);
    assert_eq!(snap.trace_jsonl(), baseline.2);
}

/// The run profile accounts for every attempt and every worker.
#[test]
fn service_outcome_carries_a_populated_profile() {
    let spec = spec();
    let tel = Telemetry::disabled();
    let mut sink = CollectSink::new();
    let outcome = run_service(&spec, &RunConfig::new(3), &tel, &mut sink).expect("service run");
    let p = &outcome.profile;
    assert_eq!(p.worker_busy_ns.len(), 3);
    assert_eq!(p.worker_attempts.len(), 3);
    let attempts: u64 = p.worker_attempts.iter().sum();
    assert!(
        attempts >= outcome.executed as u64,
        "attempts {attempts} cover every executed trial"
    );
    assert!(p.worker_busy_ns.iter().sum::<u64>() > 0);
    assert!(p.wall_ms >= p.prepare_ms);
    assert_eq!(p.snapshots, 0, "no progress requested");
}

/// The inline retry loop counts each attempt once: the workers' attempt
/// counts sum to one attempt per trial plus its retries, and the
/// committer sees one retry handoff per retry.
#[test]
fn worker_attempts_and_retry_handoffs_add_up_to_the_trials_retries() {
    let spec = lossy_spec();
    for workers in [1, 2, 8] {
        let mut sink = CollectSink::new();
        let outcome = run_service(
            &spec,
            &RunConfig::new(workers),
            &Telemetry::disabled(),
            &mut sink,
        )
        .expect("service run");
        let retries: u64 = sink.rows.iter().map(|t| u64::from(t.retries)).sum();
        assert!(retries > 0, "lossy spec must exercise retries");
        let p = &outcome.profile;
        let attempts: u64 = p.worker_attempts.iter().sum();
        assert_eq!(
            attempts,
            retries + sink.rows.len() as u64,
            "{workers} workers: Σ worker_attempts == Σ (retries + 1)"
        );
        assert_eq!(
            p.retries_seen, retries,
            "{workers} workers: retries_seen == Σ retries"
        );
    }
}

#[test]
fn resuming_a_finished_run_executes_nothing() {
    let spec = spec();
    let path = tmp("finished");
    let cfg = RunConfig::new(2).checkpoint(path.clone());
    let tel = Telemetry::with_trace(4096);
    run_service(&spec, &cfg, &tel, &mut CollectSink::new()).expect("full run");

    let tel2 = Telemetry::with_trace(4096);
    let mut sink = CollectSink::new();
    let outcome = run_service(&spec, &cfg, &tel2, &mut sink).expect("no-op resume");
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.restored, spec.trial_count());
    assert!(sink.rows.is_empty(), "restored rows are not re-emitted");
    assert_eq!(tel2.snapshot().to_json(), tel.snapshot().to_json());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_from_a_different_spec_is_refused() {
    let path = tmp("wrongspec");
    let cfg = RunConfig::new(1).checkpoint(path.clone());
    let tel = Telemetry::disabled();
    run_service(&spec(), &cfg, &tel, &mut CollectSink::new()).expect("first spec");
    let other = spec().run_secs(31);
    match run_service(&other, &cfg, &tel, &mut CollectSink::new()) {
        Err(JournalError::SpecMismatch { .. }) => {}
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_from_another_telemetry_scope_is_refused() {
    // Each journaled trial carries the registry its scope recorded, so a
    // resume under another scope would restore empty (or differently
    // evicted) registries as if they were real: a plain checkpoint
    // resumed under an audit would report zero exposure.
    let spec = CampaignSpec::new("scope", 3)
        .target("twitter.com")
        .method(MethodKind::Scan)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .trials_per_cell(2)
        .run_secs(30);
    let names = ["disabled", "enabled", "trace 4096", "trace 128"];
    let scope = |i: usize| match i {
        0 => Telemetry::disabled(),
        1 => Telemetry::enabled(),
        2 => Telemetry::with_trace(4096),
        _ => Telemetry::with_trace(128),
    };
    for (written, resumed) in [(0, 1), (0, 2), (2, 3)] {
        let (wrote, resumes) = (names[written], names[resumed]);
        let path = tmp(&format!("scope-{written}-{resumed}"));
        let cfg = RunConfig::new(2).checkpoint(path.clone());
        run_service(&spec, &cfg, &scope(written), &mut CollectSink::new())
            .expect("checkpointed run");
        match run_service(&spec, &cfg, &scope(resumed), &mut CollectSink::new()) {
            Err(JournalError::SpecMismatch { .. }) => {}
            other => panic!("{wrote} journal resumed under {resumes}: {other:?}"),
        }
        let same = run_service(&spec, &cfg, &scope(written), &mut CollectSink::new())
            .expect("same-scope resume");
        assert_eq!(
            (same.executed, same.restored),
            (0, spec.trial_count()),
            "{wrote} journal resumed under {wrote}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
