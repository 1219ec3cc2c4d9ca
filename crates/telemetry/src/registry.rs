//! The registry snapshot: an owned, mergeable, serializable view of every
//! metric and flight-recorder record a [`crate::Telemetry`] handle
//! recorded.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json;
use crate::trace::TraceRecord;

/// A flight-recorder field value (integers and strings only — deterministic
/// output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// An owned snapshot of a telemetry registry.
///
/// Snapshots merge deterministically: counters add, gauges take the merged
/// snapshot's value (last write wins, in merge order), histograms add
/// bucket-wise, and flight-recorder trace records append in merge order
/// (the run service merges per-trial registries in trial-index order,
/// which keeps trial segments contiguous and shard-invariant).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log-bucketed histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Flight-recorder decision records in recording/merge order.
    /// Deliberately excluded from [`Registry::to_json`] so non-trace
    /// output stays byte-identical whether or not tracing ran; render
    /// with [`Registry::trace_jsonl`].
    pub trace: Vec<TraceRecord>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fold `other` into `self` (see type docs for per-kind semantics).
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.trace.extend(other.trace.iter().cloned());
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.trace.is_empty()
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic single-line JSON: keys in `BTreeMap` order, integer
    /// values only, non-zero histogram buckets as `[low_bound, count]`
    /// pairs. Byte-identical for equal registries on every platform.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        json::push_key(&mut out, "counters");
        out.push('{');
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push('}');
        out.push(',');
        json::push_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push('{');
            json::push_key(&mut out, "count");
            out.push_str(&h.count().to_string());
            out.push(',');
            json::push_key(&mut out, "sum");
            out.push_str(&h.sum().to_string());
            out.push(',');
            json::push_key(&mut out, "min");
            out.push_str(&h.min().to_string());
            out.push(',');
            json::push_key(&mut out, "max");
            out.push_str(&h.max().to_string());
            out.push(',');
            json::push_key(&mut out, "p50");
            out.push_str(&h.quantile(50).to_string());
            out.push(',');
            json::push_key(&mut out, "p90");
            out.push_str(&h.quantile(90).to_string());
            out.push(',');
            json::push_key(&mut out, "p99");
            out.push_str(&h.quantile(99).to_string());
            out.push(',');
            json::push_key(&mut out, "buckets");
            out.push('[');
            let mut first = true;
            for (bi, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let (lo, _) = Histogram::bucket_bounds(bi);
                out.push('[');
                out.push_str(&lo.to_string());
                out.push(',');
                out.push_str(&n.to_string());
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// The flight-recorder trace as JSON lines, one sorted-key object per
    /// decision record, in recording/merge order.
    pub fn trace_jsonl(&self) -> String {
        crate::trace::to_jsonl(&self.trace)
    }

    /// Human-readable text summary: one metric per line, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge   {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist    {name}: count={} sum={} min={} max={} mean={} p50={} p90={} p99={}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(50),
                h.quantile(90),
                h.quantile(99),
            ));
        }
        if !self.trace.is_empty() {
            out.push_str(&format!("trace   {} records\n", self.trace.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counters.insert("b.count".into(), 2);
        r.counters.insert("a.count".into(), 1);
        r.gauges.insert("depth".into(), -3);
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(5);
        r.histograms.insert("sizes".into(), h);
        r
    }

    #[test]
    fn json_is_sorted_and_holds_only_metrics() {
        let j = sample().to_json();
        assert!(j.find("\"a.count\":1").unwrap() < j.find("\"b.count\":2").unwrap());
        assert!(j.contains("\"gauges\":{\"depth\":-3}"));
        assert!(j.contains("\"buckets\":[[0,1],[4,1]]"));
        // Quantiles render between max and buckets, from the fixed buckets:
        // {0, 5} → p50 is the zero bucket, p90/p99 the [4,7] bucket clamped
        // to the observed max.
        assert!(
            j.contains("\"p50\":0,\"p90\":5,\"p99\":5,\"buckets\""),
            "{j}"
        );
        assert!(j.ends_with("[4,1]]}}}"), "histograms close the object: {j}");
    }

    #[test]
    fn merge_semantics() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("a.count"), 2, "counters add");
        assert_eq!(a.gauge("depth"), -3, "gauges overwrite");
        assert_eq!(a.histogram("sizes").unwrap().count(), 4);
    }

    #[test]
    fn equal_registries_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn trace_records_merge_in_order_and_stay_out_of_json() {
        use crate::trace::TraceRecord;
        let mut a = Registry::new();
        a.trace.push(TraceRecord {
            t_ns: 1,
            seq: 0,
            stage: "mvr",
            kind: "retain",
            flow: None,
            fields: vec![],
        });
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.trace.len(), 2);
        assert!(!a.to_json().contains("retain"), "trace excluded from JSON");
        assert_eq!(a.trace_jsonl().lines().count(), 2);
    }

    #[test]
    fn render_text_lists_everything() {
        let t = sample().render_text();
        assert!(t.contains("counter a.count = 1"));
        assert!(t.contains("gauge   depth = -3"));
        assert!(t.contains("hist    sizes: count=2"));
        assert!(t.contains("p50=0 p90=5 p99=5"), "{t}");
    }
}
