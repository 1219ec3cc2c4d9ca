//! The run service, the one executor every campaign goes through:
//! workers drawing trials from one shared cursor, a completion-order
//! committer, and an optional checkpoint journal — composed so the final
//! report and merged telemetry are **byte-identical** at any worker
//! count, interrupted or not.
//!
//! ## Architecture
//!
//! ```text
//!  workers (scope threads)            committer (calling thread)
//!  ┌─────────────────────┐  Msg  ┌──────────────────────────────┐
//!  │ draw from cursor    │ ────▶ │ journal.append_{complete,     │
//!  │  └ run whole trial  │ chan  │                retry}         │
//!  │    (retries inline) │       │ sink.row (completion order)   │
//!  │   └ exit when drawn │       │ StreamReport / StreamMerger   │
//!  └─────────────────────┘       └──────────────────────────────┘
//! ```
//!
//! Each worker draws the next frontier position from one shared
//! [`Cursor`] and runs that trial to its final verdict. An `Inconclusive`
//! attempt is retried inline on the same worker; each retry decision is
//! sent to the committer first, with the accumulated registry and the
//! next attempt number, so the journal can record it. A worker holds one
//! trial at a time, so a heavy trial never keeps other work waiting
//! behind it, and a worker exits as soon as the cursor is exhausted.
//!
//! The committer runs on the calling thread (so a [`RowSink`] need not be
//! `Send`): it journals each decision, streams the verdict row, and folds
//! the result into a [`StreamReport`] and the telemetry delta into a
//! [`StreamMerger`] keyed by trial index — both order-independent, which
//! is where completion-order scheduling and index-order determinism meet.
//!
//! The committer fails stop: when a journal append or the sink fails, it
//! returns the error and drops the channel's receiver, so every worker's
//! next send fails and the worker exits instead of blocking on a full
//! channel.
//!
//! ## Resume
//!
//! With a checkpoint path, completed trials replayed from the journal are
//! absorbed directly (their journaled rows are **not** re-emitted to the
//! sink — they streamed before the interruption), and only the remaining
//! frontier is scheduled. A trial with a journaled retry starts from that
//! record's attempt and accumulated registry instead of attempt 0. Memory
//! stays bounded by the in-flight channel, never by campaign size.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use underradar_campaign::engine::{self, PolicyPrep, ScopeConfig};
use underradar_campaign::sched::Cursor;
use underradar_campaign::{CampaignReport, CampaignSpec, StreamReport, Trial, TrialResult};
use underradar_telemetry::{Registry, StreamMerger, Telemetry};

use crate::journal::{Journal, JournalError, Replay};
use crate::sink::{CollectSink, RowSink};

/// Cadence of live progress snapshots: a snapshot is emitted when either
/// threshold is reached since the previous one, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct ProgressConfig {
    /// Committed trials between snapshots.
    pub every_trials: u64,
    /// Wall milliseconds between snapshots (also the committer's poll
    /// interval while workers are busy).
    pub every_ms: u64,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            every_trials: 1000,
            every_ms: 500,
        }
    }
}

/// Tuning for one service run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads (1 = sequential; still exercises the full
    /// journal/stream path).
    pub workers: usize,
    /// Checkpoint journal path; `None` runs without durability.
    pub checkpoint: Option<PathBuf>,
    /// Journal fsync cadence in records (see [`Journal::set_fsync_every`]).
    pub fsync_every: u64,
    /// Stream interval snapshots as JSONL on **stderr** (stdout bytes are
    /// untouched, so row/report determinism survives). `None` = silent.
    pub progress: Option<ProgressConfig>,
}

impl RunConfig {
    /// A config with `workers` threads and no checkpointing.
    pub fn new(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            checkpoint: None,
            fsync_every: 64,
            progress: None,
        }
    }

    /// Enable the checkpoint journal at `path`.
    pub fn checkpoint(mut self, path: PathBuf) -> RunConfig {
        self.checkpoint = Some(path);
        self
    }

    /// Set the journal fsync cadence in records.
    pub fn fsync_every(mut self, n: u64) -> RunConfig {
        self.fsync_every = n;
        self
    }

    /// Enable progress snapshots with cadence `progress`.
    pub fn progress(mut self, progress: ProgressConfig) -> RunConfig {
        self.progress = Some(progress);
        self
    }
}

/// Wall-clock accounting for one service run. Every field is measured
/// host time, so none of it may feed deterministic output paths — it is
/// surfaced only through `--profile-json` and `--progress`.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Wall milliseconds for the whole run (prepare + execute + commit).
    pub wall_ms: u64,
    /// Wall milliseconds spent building policy preps.
    pub prepare_ms: u64,
    /// Per-worker busy nanoseconds (time inside trial attempts).
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker attempt counts.
    pub worker_attempts: Vec<u64>,
    /// Always 0: workers draw single trials from one shared cursor and
    /// never take work from each other. Kept because the benchmark
    /// harness still reports it.
    pub steals: u64,
    /// Retry handoffs the committer observed.
    pub retries_seen: u64,
    /// Progress snapshots emitted (0 when progress is disabled).
    pub snapshots: u64,
}

/// What a service run did, beyond its report.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The campaign report, built incrementally in completion order.
    pub report: StreamReport,
    /// Trials completed by *this* process.
    pub executed: usize,
    /// Trials restored from the journal instead of re-run.
    pub restored: usize,
    /// Trials resumed mid-retry: each started from its journaled attempt
    /// and accumulated registry.
    pub resumed_retries: usize,
    /// Bytes of damaged journal tail discarded during recovery.
    pub journal_truncated: u64,
    /// Wall-clock profile of this run (never feeds deterministic output).
    pub profile: RunProfile,
}

/// Shared worker accounting, updated with relaxed atomics on the hot path
/// (two fetch_adds per trial — negligible against a simulated trial).
struct WorkerStats {
    busy_ns: Vec<AtomicU64>,
    attempts: Vec<AtomicU64>,
}

impl WorkerStats {
    fn new(workers: usize) -> WorkerStats {
        WorkerStats {
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            attempts: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The committer's progress bookkeeping: when to emit, what changed.
struct ProgressState {
    cfg: ProgressConfig,
    start: Instant,
    last_emit: Instant,
    last_done: u64,
    snapshots: u64,
}

impl ProgressState {
    fn new(cfg: ProgressConfig, start: Instant) -> ProgressState {
        ProgressState {
            cfg,
            start,
            last_emit: start,
            last_done: 0,
            snapshots: 0,
        }
    }

    fn due(&self, done: u64) -> bool {
        done.saturating_sub(self.last_done) >= self.cfg.every_trials.max(1)
            || self.last_emit.elapsed() >= Duration::from_millis(self.cfg.every_ms)
    }

    /// Emit one snapshot line to stderr and mirror it into `tel` as
    /// `runner.progress.*` metrics. Wall-clock values are nondeterministic
    /// by nature, which is why they only exist when progress is enabled —
    /// default runs keep registries byte-identical across hosts.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        tel: &Telemetry,
        stats: &WorkerStats,
        done: u64,
        total: u64,
        restored: u64,
        retries: u64,
        journal_lag: u64,
    ) {
        let elapsed_ms = (self.start.elapsed().as_millis() as u64).max(1);
        let committed = done.saturating_sub(restored);
        let rows_per_sec = committed.saturating_mul(1000) / elapsed_ms;
        let eta_ms = total
            .saturating_sub(done)
            .saturating_mul(elapsed_ms)
            .checked_div(committed)
            .unwrap_or(0);
        let elapsed_ns = (self.start.elapsed().as_nanos() as u64).max(1);
        let busy: Vec<String> = stats
            .busy_ns
            .iter()
            .map(|b| {
                (b.load(Ordering::Relaxed).saturating_mul(1000) / elapsed_ns)
                    .min(1000)
                    .to_string()
            })
            .collect();
        let line = format!(
            "{{\"done\":{done},\"elapsed_ms\":{elapsed_ms},\"eta_ms\":{eta_ms},\
             \"journal_lag\":{journal_lag},\"restored\":{restored},\"retries\":{retries},\
             \"rows_per_sec\":{rows_per_sec},\"total\":{total},\
             \"worker_busy_permille\":[{}]}}",
            busy.join(",")
        );
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
        if tel.is_enabled() {
            tel.set_gauge("runner.progress.done", done as i64);
            tel.set_gauge("runner.progress.total", total as i64);
            tel.set_gauge("runner.progress.journal_lag", journal_lag as i64);
            tel.counter("runner.progress.snapshots").incr();
            tel.observe("runner.progress.rows_per_sec", rows_per_sec);
            tel.observe("runner.progress.eta_ms", eta_ms);
        }
        self.last_emit = Instant::now();
        self.last_done = done;
        self.snapshots += 1;
    }
}

/// What a worker tells the committer.
enum Msg {
    /// Trial `index` reached a final verdict; `acc` is its complete
    /// telemetry delta (all attempts).
    Done {
        index: usize,
        result: Box<TrialResult>,
        acc: Box<Registry>,
    },
    /// Trial `index` will run `next_attempt` next; `acc` snapshots the
    /// registry accumulated so far, for the journal.
    Retry {
        index: usize,
        next_attempt: u32,
        acc: Box<Registry>,
    },
}

/// Run `spec` as a durable service: schedule from one shared cursor, stream
/// rows into `sink` as trials complete, journal to `cfg.checkpoint`, and
/// merge telemetry into `tel`. Resumes automatically when the journal
/// already holds progress for this spec under the same telemetry scope
/// (off, on, or traced at the same ring capacity); a journal written
/// under another scope is refused with [`JournalError::SpecMismatch`].
pub fn run_service(
    spec: &CampaignSpec,
    cfg: &RunConfig,
    tel: &Telemetry,
    sink: &mut dyn RowSink,
) -> Result<ServiceOutcome, JournalError> {
    let run_start = Instant::now();
    let trials = spec.expand();
    let scope_cfg = ScopeConfig::of(tel);
    let (mut journal, replay) = match &cfg.checkpoint {
        Some(path) => {
            let fingerprint = scope_cfg.fingerprint(spec.fingerprint());
            let (mut j, replay) = Journal::open_or_create(path, fingerprint, trials.len() as u64)?;
            j.set_fsync_every(cfg.fsync_every);
            (Some(j), replay)
        }
        None => (None, Replay::default()),
    };

    let mut report = StreamReport::new(&spec.name);
    let mut merger = StreamMerger::new();
    for (index, (result, delta)) in &replay.completed {
        report.absorb(result);
        merger.absorb(*index, delta);
    }

    // The remaining frontier: every trial with no complete record. A
    // trial with a journaled retry starts from that record's attempt and
    // accumulated registry; the rest start from attempt 0.
    let frontier: Vec<usize> = trials
        .iter()
        .map(|t| t.index)
        .filter(|index| !replay.completed.contains_key(&(*index as u64)))
        .collect();
    let resumed = &replay.retries;
    let expected = frontier.len();
    let restored = replay.completed.len();
    let resumed_retries = frontier
        .iter()
        .filter(|index| resumed.contains_key(&(**index as u64)))
        .count();

    let mut progress = cfg.progress.map(|p| ProgressState::new(p, run_start));
    let mut retries_seen = 0u64;
    let mut stats = WorkerStats::new(cfg.workers.clamp(1, expected.max(1)));
    let mut prepare_ms = 0u64;

    if expected > 0 {
        let prep_start = Instant::now();
        let preps = engine::prepare(spec);
        prepare_ms = prep_start.elapsed().as_millis() as u64;
        let workers = cfg.workers.clamp(1, expected);
        let cursor = Cursor::new(expected);
        let (tx, rx) = mpsc::sync_channel::<Msg>(workers * 4);

        std::thread::scope(|scope| -> Result<(), JournalError> {
            for w in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let frontier = &frontier;
                let trials = &trials;
                let preps = &preps;
                let stats = &stats;
                scope.spawn(move || {
                    worker_loop(
                        w, spec, trials, preps, scope_cfg, cursor, frontier, resumed, &tx, stats,
                    );
                });
            }
            drop(tx);
            // The receiver lives in this closure, so an early return drops
            // it and unblocks every worker waiting in `send`.
            let rx = rx;
            // Committer: the calling thread absorbs completions until
            // every remaining trial has a final verdict. With progress
            // enabled it polls on the snapshot cadence so a long-running
            // trial can't silence the stream.
            let mut done = 0usize;
            while done < expected {
                let msg = match &progress {
                    Some(p) => {
                        match rx.recv_timeout(Duration::from_millis(p.cfg.every_ms.max(1))) {
                            Ok(m) => Some(m),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                panic!("workers ended with trials outstanding")
                            }
                        }
                    }
                    None => Some(rx.recv().expect("workers ended with trials outstanding")),
                };
                match msg {
                    Some(Msg::Done { index, result, acc }) => {
                        if let Some(j) = journal.as_mut() {
                            j.append_complete(index as u64, &result, &acc)?;
                        }
                        sink.row(&result).map_err(JournalError::Sink)?;
                        report.absorb(&result);
                        merger.absorb(index as u64, &acc);
                        done += 1;
                    }
                    Some(Msg::Retry {
                        index,
                        next_attempt,
                        acc,
                    }) => {
                        if let Some(j) = journal.as_mut() {
                            j.append_retry(index as u64, next_attempt, &acc)?;
                        }
                        retries_seen += 1;
                    }
                    None => {}
                }
                let total_done = (restored + done) as u64;
                if let Some(p) = progress.as_mut() {
                    if p.due(total_done) {
                        let lag = journal.as_ref().map(|j| j.unsynced()).unwrap_or(0);
                        p.emit(
                            tel,
                            &stats,
                            total_done,
                            trials.len() as u64,
                            restored as u64,
                            retries_seen,
                            lag,
                        );
                    }
                }
            }
            Ok(())
        })?;
    }

    if let Some(j) = journal.as_mut() {
        j.sync()?;
    }
    sink.flush().map_err(JournalError::Sink)?;
    tel.merge_registry(&merger.finish());
    if let Some(p) = progress.as_mut() {
        // Always close the stream with a final snapshot: done == total,
        // journal fully synced.
        p.emit(
            tel,
            &stats,
            (restored + expected) as u64,
            trials.len() as u64,
            restored as u64,
            retries_seen,
            0,
        );
    }
    let profile = RunProfile {
        wall_ms: run_start.elapsed().as_millis() as u64,
        prepare_ms,
        worker_busy_ns: stats.busy_ns.iter_mut().map(|b| *b.get_mut()).collect(),
        worker_attempts: stats.attempts.iter_mut().map(|a| *a.get_mut()).collect(),
        steals: 0,
        retries_seen,
        snapshots: progress.as_ref().map(|p| p.snapshots).unwrap_or(0),
    };
    Ok(ServiceOutcome {
        report,
        executed: expected,
        restored,
        resumed_retries,
        journal_truncated: replay.truncated_bytes,
        profile,
    })
}

/// Run `spec` in memory on `workers` workers: the run service with no
/// journal and a sink that keeps every row. Returns the trials in matrix
/// order with the service's fold of them, and merges telemetry into `tel`.
pub fn run_in_memory(
    spec: &CampaignSpec,
    workers: usize,
    tel: &Telemetry,
) -> Result<CampaignReport, JournalError> {
    let mut sink = CollectSink::new();
    let outcome = run_service(spec, &RunConfig::new(workers), tel, &mut sink)?;
    Ok(CampaignReport {
        trials: sink.into_index_order(),
        summary: outcome.report,
    })
}

/// One worker: draw frontier positions from the cursor and run each
/// trial to its final verdict, retries inline. Every retry decision goes
/// to the committer before the next attempt runs, so the journal holds
/// the start state a resume needs.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    spec: &CampaignSpec,
    trials: &[Trial],
    preps: &[PolicyPrep<'_>],
    scope_cfg: ScopeConfig,
    cursor: &Cursor,
    frontier: &[usize],
    resumed: &BTreeMap<u64, (u32, Registry)>,
    tx: &mpsc::SyncSender<Msg>,
    stats: &WorkerStats,
) {
    while let Some(pos) = cursor.draw() {
        let index = frontier[pos];
        let trial = &trials[index];
        let (attempt, acc) = resumed
            .get(&(index as u64))
            .map_or_else(|| (0, Registry::new()), |(a, acc)| (*a, acc.clone()));
        let mut attempts = 1u64;
        let t0 = Instant::now();
        let (result, acc) = engine::run_trial_from(
            spec,
            &preps[trial.policy_idx],
            trial,
            scope_cfg,
            attempt,
            acc,
            |next_attempt, acc| {
                attempts += 1;
                // A failed send means the committer has returned; the
                // trial's final send below fails too and the worker stops.
                let _ = tx.send(Msg::Retry {
                    index,
                    next_attempt,
                    acc: Box::new(acc.clone()),
                });
            },
        );
        stats.busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.attempts[w].fetch_add(attempts, Ordering::Relaxed);
        let done = Msg::Done {
            index,
            result: Box::new(result),
            acc: Box::new(acc),
        };
        if tx.send(done).is_err() {
            return;
        }
    }
}
