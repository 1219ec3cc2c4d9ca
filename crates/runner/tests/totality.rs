//! Decoder totality: the trial-result codec and journal replay never
//! panic on arbitrary or corrupted bytes. Each returns `Ok` or a named
//! error, and journal recovery always ends truncated to a prefix that
//! replays cleanly. Inputs come from `netsim::testprop`.

use std::path::Path;

use underradar_campaign::{MethodKind, TrialResult};
use underradar_core::verdict::{Mechanism, Verdict};
use underradar_netsim::testprop;
use underradar_runner::codec::{encode_trial_result, read_trial_result};
use underradar_runner::journal::{crc32, HEADER_LEN};
use underradar_runner::Journal;
use underradar_telemetry::codec::Reader;
use underradar_telemetry::Registry;

fn result(verdict: Verdict) -> TrialResult {
    TrialResult {
        index: 5,
        method: MethodKind::StatelessDns,
        policy: "dns-blocking".into(),
        target: "twitter.com".into(),
        seed: 0x5eed,
        verdict,
        verdict_correct: true,
        evaded: false,
        alerts_on_client: 2,
        attributed: true,
        pursued: false,
        anonymity_set: Some(31),
        retries: 1,
        evidence: vec![("cover", "4".into())],
    }
}

/// Decoding returns `Ok` or a named error; an accepted result re-encodes
/// to bytes that decode to the same row.
fn assert_read_is_total(bytes: &[u8]) {
    if let Ok(t) = read_trial_result(&mut Reader::new(bytes)) {
        let mut again = Vec::new();
        encode_trial_result(&mut again, &t);
        let back = read_trial_result(&mut Reader::new(&again)).expect("re-encoding decodes");
        assert_eq!(
            back.to_json_row(),
            t.to_json_row(),
            "accepted results round-trip"
        );
    }
}

#[test]
fn read_trial_result_is_total_on_arbitrary_bytes() {
    testprop::cases(500, 0x70_7a1, |g| assert_read_is_total(&g.bytes(0, 256)));
}

#[test]
fn read_trial_result_is_total_on_every_single_byte_mutation() {
    for verdict in [
        Verdict::Censored(Mechanism::DnsPoison),
        Verdict::Inconclusive("lost 3 of 4 samples".into()),
    ] {
        let mut valid = Vec::new();
        encode_trial_result(&mut valid, &result(verdict));
        for pos in 0..valid.len() {
            for flip in 1..=u8::MAX {
                let mut bytes = valid.clone();
                bytes[pos] ^= flip;
                assert_read_is_total(&bytes);
            }
        }
    }
}

/// Open a journal whose file holds `bytes` (a valid header plus any
/// tail): recovery must succeed and leave a prefix of `bytes` on disk
/// that replays the same frontier with nothing left to cut.
fn assert_recovers_to_a_replaying_prefix(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("write");
    let (_, replay) = Journal::open_or_create(path, 7, 16).expect("a valid header opens");
    let kept = std::fs::read(path).expect("read");
    assert_eq!(
        kept.len() as u64,
        bytes.len() as u64 - replay.truncated_bytes
    );
    assert_eq!(kept[..], bytes[..kept.len()], "recovery keeps a prefix");
    let (_, again) = Journal::open_or_create(path, 7, 16).expect("prefix reopens");
    assert_eq!(again.truncated_bytes, 0, "the kept prefix is clean");
    let frontier = |r: &underradar_runner::Replay| {
        let completed: Vec<u64> = r.completed.keys().copied().collect();
        let retries: Vec<u64> = r.retries.keys().copied().collect();
        (r.records, completed, retries)
    };
    assert_eq!(frontier(&again), frontier(&replay));
}

/// The bytes of a fresh journal at `path` after `append` ran on it.
fn journal_bytes(path: &Path, append: impl FnOnce(&mut Journal)) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut j, _) = Journal::open_or_create(path, 7, 16).expect("create");
    append(&mut j);
    j.sync().expect("sync");
    std::fs::read(path).expect("read")
}

#[test]
fn journal_recovery_is_total_on_an_arbitrary_tail() {
    let path =
        std::env::temp_dir().join(format!("underradar-totality-tail-{}", std::process::id()));
    let header = journal_bytes(&path, |_| {});
    assert_eq!(header.len() as u64, HEADER_LEN);
    testprop::cases(100, 0x70_7a2, |g| {
        assert_recovers_to_a_replaying_prefix(&path, &[&header[..], &g.bytes(0, 512)].concat());
    });
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_recovery_is_total_on_single_byte_mutations_of_its_records() {
    let path = std::env::temp_dir().join(format!("underradar-totality-mut-{}", std::process::id()));
    let mut delta = Registry::new();
    delta.counters.insert("campaign.trials".into(), 1);
    let valid = journal_bytes(&path, |j| {
        j.append_complete(0, &result(Verdict::Reachable), &delta)
            .expect("append");
        j.append_retry(1, 2, &delta).expect("append");
    });
    // Record frames as (frame start, payload start, payload end).
    let mut frames = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < valid.len() {
        let len = u32::from_le_bytes(valid[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        frames.push((pos, pos + 8, pos + 8 + len));
        pos += 8 + len;
    }
    assert_eq!(frames.len(), 2);
    // Each case is a file round trip. The journal's own framing (length
    // and checksum) gets every value; payload bytes, whose decoders get
    // every value above and in the telemetry codec's properties, get
    // three flips plus a rewritten checksum, so the corrupted payload
    // reaches the decoders instead of stopping at the CRC.
    for pos in HEADER_LEN as usize..valid.len() {
        let payload = frames
            .iter()
            .find(|&&(_, body, end)| (body..end).contains(&pos));
        let flips: Vec<u8> = match payload {
            Some(_) => vec![0x01, 0x80, 0xFF],
            None => (1..=u8::MAX).collect(),
        };
        for flip in flips {
            let mut bytes = valid.clone();
            bytes[pos] ^= flip;
            if let Some(&(start, body, end)) = payload {
                let crc = crc32(&bytes[body..end]);
                bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            }
            assert_recovers_to_a_replaying_prefix(&path, &bytes);
        }
    }
    let _ = std::fs::remove_file(&path);
}
