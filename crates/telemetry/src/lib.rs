//! Deterministic observability for the measurement pipeline.
//!
//! The paper's safety argument is quantitative — what the MVR retains, what
//! each store tier holds, what the analyst queue costs — so every subsystem
//! records into a shared, deterministic metric registry instead of ad-hoc
//! stat structs. A registry holds exactly two kinds of data: metrics
//! (counters, gauges, histograms) and, when the flight recorder is
//! attached, its per-decision [`TraceRecord`]s. Three design rules:
//!
//! 1. **Zero overhead when disabled.** A [`Telemetry`] handle is either
//!    live or a null handle; pre-resolved [`Counter`]/[`Gauge`]/
//!    [`HistogramHandle`]s cost one null check per operation when disabled.
//!    The perf bench asserts the bound.
//! 2. **Deterministic output.** Metrics are integers, histogram buckets
//!    have fixed boundaries, snapshots serialize in sorted key order, and
//!    flight-recorder records are keyed to *simulated* time (nanoseconds,
//!    as produced by the netsim clock) — so the same seed yields
//!    byte-identical JSON, sequential or sharded.
//! 3. **No dependencies.** The simulator depends on this crate, not the
//!    other way round; timestamps cross the API as raw `u64` nanoseconds.
//!
//! ```
//! use underradar_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let pkts = tel.counter("netsim.events");
//! pkts.add(3);
//! tel.observe("ids.segment_bytes", 1460);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("netsim.events"), 3);
//! assert_eq!(snap.histogram("ids.segment_bytes").map(|h| h.sum()), Some(1460));
//! assert!(snap.to_json().starts_with("{\"counters\""));
//!
//! let off = Telemetry::disabled();
//! off.counter("netsim.events").add(1); // a null check, nothing else
//! assert!(off.snapshot().is_empty());
//! ```
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod hist;
pub mod json;
pub mod registry;
pub mod stream;
pub mod trace;

pub use hist::{Histogram, BUCKET_COUNT};
pub use registry::{FieldValue, Registry};
pub use stream::StreamMerger;
pub use trace::{TraceBuf, TraceFlow, TraceRecord, Tracer, DEFAULT_TRACE_CAPACITY};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

struct Inner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<i64>>>,
    histograms: BTreeMap<String, Rc<RefCell<Histogram>>>,
    trace: Option<Rc<RefCell<TraceBuf>>>,
}

/// A cheaply-cloneable recording handle. Either live (shared registry) or
/// disabled (all operations are a null check).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The null handle: every operation is a no-op after one null check.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh, empty registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                trace: None,
            }))),
        }
    }

    /// A live handle with the flight recorder attached: decision records
    /// go into a per-handle ring of `capacity` records (oldest evicted
    /// deterministically, counted in `telemetry.trace.dropped`).
    pub fn with_trace(capacity: usize) -> Self {
        let tel = Telemetry::enabled();
        if let Some(inner) = &tel.inner {
            inner.borrow_mut().trace = Some(Rc::new(RefCell::new(TraceBuf::new(capacity))));
        }
        tel
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The flight recorder's ring capacity, when tracing is attached.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().trace.as_ref().map(|b| b.borrow().capacity()))
    }

    /// Resolve the flight-recorder handle. Disabled (one branch per
    /// decision site) unless this handle was built with
    /// [`Telemetry::with_trace`]; hot paths resolve once and reuse it.
    pub fn tracer(&self) -> Tracer {
        Tracer(
            self.inner
                .as_ref()
                .and_then(|inner| inner.borrow().trace.clone()),
        )
    }

    /// Resolve (creating on first use) a counter handle. Handles for the
    /// same name share one cell; resolution is a map lookup, so hot paths
    /// should resolve once and reuse the handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Rc::clone(
                inner
                    .borrow_mut()
                    .counters
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolve (creating on first use) a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Rc::clone(
                inner
                    .borrow_mut()
                    .gauges
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolve (creating on first use) a histogram handle.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.inner.as_ref().map(|inner| {
            Rc::clone(
                inner
                    .borrow_mut()
                    .histograms
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Add `n` to counter `name` (resolves by name; use [`Counter`] handles
    /// on hot paths).
    pub fn count(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Set counter `name` to an absolute total (idempotent export-style
    /// mirroring of an existing stat struct).
    pub fn set_counter(&self, name: &str, total: u64) {
        if self.inner.is_some() {
            self.counter(name).set(total);
        }
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// Observe `value` into histogram `name` (resolves by name).
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).observe(value);
        }
    }

    /// A fresh sub-registry, enabled iff this handle is enabled. Scopes
    /// isolate absolute-total exports (`set_counter`-style mirroring) from
    /// one another: record each scenario, shard, or trial into its own
    /// scope and fold finished scopes back with [`Telemetry::absorb`] so
    /// totals accumulate instead of overwriting.
    pub fn scope(&self) -> Telemetry {
        match self.trace_capacity() {
            Some(capacity) => Telemetry::with_trace(capacity),
            None if self.is_enabled() => Telemetry::enabled(),
            None => Telemetry::disabled(),
        }
    }

    /// Fold a finished scope's totals into this handle (counters add,
    /// gauges overwrite, histograms bucket-add, trace records append).
    /// Absorbing in a fixed order keeps merged registries deterministic
    /// regardless of which worker produced each scope.
    pub fn absorb(&self, sub: &Telemetry) {
        if self.is_enabled() {
            self.merge_registry(&sub.snapshot());
        }
    }

    /// Fold an already-snapshotted registry into this live handle
    /// (deterministic sub-shard merging, e.g. an experiment's internal
    /// sharded sweep). Trace records append in merge order (trial
    /// grouping is the point) without the live ring bound.
    pub fn merge_registry(&self, other: &Registry) {
        let Some(inner) = &self.inner else { return };
        for (name, v) in &other.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &other.histograms {
            if let HistogramHandle(Some(cell)) = self.histogram(name) {
                cell.borrow_mut().merge(h);
            }
        }
        if !other.trace.is_empty() {
            if let Some(buf) = &inner.borrow().trace {
                buf.borrow_mut().extend_unbounded(&other.trace);
            }
        }
    }

    /// An owned snapshot of everything recorded so far. When the flight
    /// recorder is attached, the snapshot carries its records and mirrors
    /// the eviction count into the `telemetry.trace.dropped` counter.
    pub fn snapshot(&self) -> Registry {
        let Some(inner) = &self.inner else {
            return Registry::new();
        };
        let inner = inner.borrow();
        let mut counters: BTreeMap<String, u64> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let trace = match &inner.trace {
            Some(buf) => {
                let buf = buf.borrow();
                *counters
                    .entry("telemetry.trace.dropped".to_string())
                    .or_insert(0) += buf.dropped();
                buf.records().cloned().collect()
            }
            None => Vec::new(),
        };
        Registry {
            counters,
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.borrow().clone()))
                .collect(),
            trace,
        }
    }
}

/// Pre-resolved counter handle; disabled handles cost one null check per op.
#[derive(Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.set(cell.get().wrapping_add(n));
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Overwrite with an absolute total (export-style mirroring).
    #[inline]
    pub fn set(&self, total: u64) {
        if let Some(cell) = &self.0 {
            cell.set(total);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|c| c.get()).unwrap_or(0)
    }

    /// Whether this handle records.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// Pre-resolved gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Option<Rc<Cell<i64>>>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.set(value);
        }
    }
}

/// Pre-resolved histogram handle.
#[derive(Clone, Default)]
pub struct HistogramHandle(Option<Rc<RefCell<Histogram>>>);

impl HistogramHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        HistogramHandle(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.borrow_mut().observe(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("c").incr();
        tel.set_gauge("g", 7);
        tel.observe("h", 3);
        assert!(tel.snapshot().is_empty());
    }

    #[test]
    fn handles_share_cells_by_name() {
        let tel = Telemetry::enabled();
        let a = tel.counter("x");
        let b = tel.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(tel.snapshot().counter("x"), 5);
    }

    #[test]
    fn clone_shares_registry() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.count("shared", 4);
        assert_eq!(tel.snapshot().counter("shared"), 4);
    }

    #[test]
    fn merge_registry_folds_everything() {
        let src = Telemetry::enabled();
        src.count("c", 2);
        src.set_gauge("g", -1);
        src.observe("h", 9);
        let snap = src.snapshot();

        let dst = Telemetry::enabled();
        dst.count("c", 1);
        dst.merge_registry(&snap);
        let merged = dst.snapshot();
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.gauge("g"), -1);
        assert_eq!(merged.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn scope_and_absorb_accumulate_absolute_totals() {
        let parent = Telemetry::enabled();
        for _ in 0..3 {
            let sub = parent.scope();
            assert!(sub.is_enabled());
            sub.set_counter("x.total", 5); // absolute total per scope
            parent.absorb(&sub);
        }
        assert_eq!(parent.snapshot().counter("x.total"), 15);
    }

    #[test]
    fn disabled_parent_yields_disabled_scope() {
        let parent = Telemetry::disabled();
        let sub = parent.scope();
        assert!(!sub.is_enabled());
        parent.absorb(&sub); // no-op, must not panic
        assert!(parent.snapshot().is_empty());
    }

    #[test]
    fn configured_trace_capacity_pins_eviction_counting() {
        // A 2-record ring keeps the newest records, evicts the oldest
        // deterministically, and mirrors the eviction count into the
        // `telemetry.trace.dropped` counter at snapshot time.
        let tel = Telemetry::with_trace(2);
        assert_eq!(tel.trace_capacity(), Some(2));
        let tracer = tel.tracer();
        for t in 1..=5u64 {
            tracer.record(TraceRecord {
                t_ns: t,
                seq: 0,
                stage: "link",
                kind: "drop",
                flow: None,
                fields: vec![],
            });
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("telemetry.trace.dropped"), 3);
        let times: Vec<u64> = snap.trace.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, vec![4, 5], "newest records survive");
        // The default-capacity handle reports the documented default.
        assert_eq!(
            Telemetry::with_trace(DEFAULT_TRACE_CAPACITY).trace_capacity(),
            Some(DEFAULT_TRACE_CAPACITY)
        );
    }

    #[test]
    fn set_counter_is_idempotent() {
        let tel = Telemetry::enabled();
        tel.set_counter("total", 10);
        tel.set_counter("total", 10);
        assert_eq!(tel.snapshot().counter("total"), 10);
    }
}
