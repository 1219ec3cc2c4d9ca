//! Property tests for the histogram, driven by the in-tree seeded
//! property harness `netsim::testprop` (a dev-only dependency — the
//! library itself is dependency-free).

use underradar_netsim::testprop;
use underradar_telemetry::{Histogram, BUCKET_COUNT};

fn arbitrary_value(g: &mut testprop::Gen) -> u64 {
    // Mix small values (dense low buckets) with full-range ones.
    if g.bool() {
        u64::from(g.u16())
    } else {
        g.u64()
    }
}

fn arbitrary_hist(g: &mut testprop::Gen, max_obs: usize) -> Histogram {
    let n = g.usize_in(0, max_obs);
    let mut h = Histogram::new();
    for _ in 0..n {
        h.observe(arbitrary_value(g));
    }
    h
}

#[test]
fn merge_is_associative_and_commutative() {
    testprop::cases(200, 0x1e1e_0001, |g| {
        let a = arbitrary_hist(g, 40);
        let b = arbitrary_hist(g, 40);
        let c = arbitrary_hist(g, 40);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
    });
}

#[test]
fn bucket_index_is_monotone_and_bounds_are_consistent() {
    testprop::cases(500, 0x1e1e_0002, |g| {
        let v = arbitrary_value(g);
        let w = arbitrary_value(g);
        let (lo, hi) = (v.min(w), v.max(w));
        assert!(
            Histogram::bucket_index(lo) <= Histogram::bucket_index(hi),
            "bucket index must be monotone: {lo} -> {hi}"
        );
        let i = Histogram::bucket_index(v);
        assert!(i < BUCKET_COUNT);
        let (b_lo, b_hi) = Histogram::bucket_bounds(i);
        assert!(b_lo <= v && v <= b_hi, "v={v} outside bucket {i}");
    });
}

#[test]
fn count_is_conserved_under_sharded_merge() {
    testprop::cases(100, 0x1e1e_0003, |g| {
        // One logical stream of observations, split across 1..8 shards in
        // round-robin order, then merged — totals and every bucket must
        // equal the unsharded histogram.
        let n = g.usize_in(0, 200);
        let values: Vec<u64> = (0..n).map(|_| arbitrary_value(g)).collect();
        let shards = g.usize_in(1, 8);

        let mut whole = Histogram::new();
        for &v in &values {
            whole.observe(v);
        }

        let mut parts = vec![Histogram::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].observe(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }

        assert_eq!(merged, whole, "sharded merge must conserve all buckets");
        assert_eq!(merged.count() as usize, n);
        let bucket_total: u64 = merged.buckets().iter().sum();
        assert_eq!(bucket_total, merged.count(), "buckets must sum to count");
    });
}

/// A registry exercising every codec section and field-value shape.
fn sample_registry() -> underradar_telemetry::Registry {
    use underradar_telemetry::{FieldValue, Registry, TraceFlow, TraceRecord};
    let mut reg = Registry::new();
    reg.counters
        .insert("censor.tap.actions.keyword_rst".into(), 3);
    reg.gauges.insert("censor.tap.live_flows".into(), -2);
    let mut h = Histogram::new();
    for v in [0u64, 7, 1 << 20] {
        h.observe(v);
    }
    reg.histograms.insert("ids.segment_bytes".into(), h);
    reg.trace.push(TraceRecord {
        t_ns: 1_000,
        seq: 4,
        stage: "censor",
        kind: "rst_pair",
        flow: Some(TraceFlow {
            src: std::net::Ipv4Addr::new(10, 0, 1, 2),
            src_port: 4000,
            dst: std::net::Ipv4Addr::new(93, 184, 0, 10),
            dst_port: 80,
        }),
        fields: vec![
            ("rule", FieldValue::U64(12)),
            ("delta", FieldValue::I64(-1)),
            ("keyword", FieldValue::Str("falun".into())),
        ],
    });
    reg
}

/// Decoding never panics: it returns `Ok` or a named [`CodecError`], and
/// whatever it accepts renders and re-encodes exactly.
fn assert_decode_is_total(bytes: &[u8]) {
    use underradar_telemetry::codec::{decode_registry, encode_registry};
    if let Ok(reg) = decode_registry(bytes) {
        let _ = (reg.to_json(), reg.render_text(), reg.trace_jsonl());
        let again = decode_registry(&encode_registry(&reg)).expect("re-encoding decodes");
        assert_eq!(again, reg, "accepted registries round-trip");
    }
}

#[test]
fn decode_registry_is_total_on_arbitrary_bytes() {
    testprop::cases(500, 0x1e1e_0004, |g| {
        let bytes = g.bytes(0, 256);
        assert_decode_is_total(&bytes);
    });
}

#[test]
fn decode_registry_is_total_on_every_single_byte_mutation() {
    let valid = underradar_telemetry::codec::encode_registry(&sample_registry());
    for pos in 0..valid.len() {
        for value in 0..=u8::MAX {
            if value == valid[pos] {
                continue;
            }
            let mut bytes = valid.clone();
            bytes[pos] = value;
            assert_decode_is_total(&bytes);
        }
    }
}
