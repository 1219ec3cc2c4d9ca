//! Streaming row output: verdict rows emitted the moment a trial
//! completes, instead of an end-of-run report dump.
//!
//! A [`RowSink`] receives each [`TrialResult`] in **completion order** —
//! with several workers that order varies with the worker count and
//! scheduling, so the live row stream is an observability surface, not a
//! determinism surface. Rows are self-describing (each carries its trial
//! `index`), so consumers needing canonical order sort or key by index;
//! the byte-identity guarantees live in the final report and merged
//! telemetry, which the service builds order-independently.

use std::io::{self, Write};

use underradar_campaign::TrialResult;

/// A consumer of completed trial rows.
pub trait RowSink {
    /// Accept one completed trial. Called once per trial, in completion
    /// order.
    fn row(&mut self, result: &TrialResult) -> io::Result<()>;

    /// Flush any buffered rows to the underlying medium.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every row (service mode without `--jsonl`).
pub struct NullSink;

impl RowSink for NullSink {
    fn row(&mut self, _result: &TrialResult) -> io::Result<()> {
        Ok(())
    }
}

/// Writes each row as one JSON line (the `TrialResult::to_json_row`
/// object) to any [`Write`] — a file, stdout, or a pipe.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSON lines to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }

    /// Unwrap the inner writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RowSink for JsonlSink<W> {
    fn row(&mut self, result: &TrialResult) -> io::Result<()> {
        self.out.write_all(result.to_json_row().as_bytes())?;
        self.out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Keeps every row in memory: the sink behind [`crate::run_in_memory`]
/// and `underradar campaign --json`, which need the trials themselves.
#[derive(Default)]
pub struct CollectSink {
    /// Trials in completion order.
    pub rows: Vec<TrialResult>,
}

impl CollectSink {
    /// An empty sink.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The collected trials in trial-index order.
    pub fn into_index_order(mut self) -> Vec<TrialResult> {
        self.rows.sort_by_key(|t| t.index);
        self.rows
    }
}

impl RowSink for CollectSink {
    fn row(&mut self, result: &TrialResult) -> io::Result<()> {
        self.rows.push(result.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_campaign::MethodKind;
    use underradar_core::verdict::Verdict;

    fn result() -> TrialResult {
        TrialResult {
            index: 3,
            method: MethodKind::Scan,
            policy: "control".into(),
            target: "a.com".into(),
            seed: 9,
            verdict: Verdict::Reachable,
            verdict_correct: true,
            evaded: true,
            alerts_on_client: 0,
            attributed: false,
            pursued: false,
            anonymity_set: None,
            retries: 0,
            evidence: Vec::new(),
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_row() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.row(&result()).expect("writes");
        sink.row(&result()).expect("writes");
        sink.flush().expect("flushes");
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"index\":3,\"method\":\"scan\""));
    }

    #[test]
    fn collect_sink_orders_by_index_and_null_sink_discards() {
        let mut v = CollectSink::new();
        let mut late = result();
        late.index = 7;
        v.row(&late).expect("collects");
        v.row(&result()).expect("collects");
        let rows: Vec<usize> = v.into_index_order().iter().map(|t| t.index).collect();
        assert_eq!(rows, [3, 7]);
        NullSink.row(&result()).expect("discards");
    }
}
