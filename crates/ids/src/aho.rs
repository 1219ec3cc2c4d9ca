//! Substring search for rule verification.
//!
//! [`find_sub`] confirms one `content` pattern (with optional case
//! folding) inside a payload or stream window. The multi-pattern
//! Aho–Corasick prefilter that shortlists rules before this check is
//! [`crate::dfa::PrefilterDfa`]; `tests/engine_equiv.rs` proves the engine
//! built on it against a naive evaluate-every-rule reference.

/// Naive single-pattern search used for rule verification (with optional
/// case folding). Returns the offset of the first occurrence at or after
/// `from`.
pub fn find_sub(haystack: &[u8], needle: &[u8], nocase: bool, from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.min(haystack.len()));
    }
    if from >= haystack.len() || haystack.len() - from < needle.len() {
        return None;
    }
    let eq = |a: u8, b: u8| {
        if nocase {
            a.eq_ignore_ascii_case(&b)
        } else {
            a == b
        }
    };
    'outer: for start in from..=haystack.len() - needle.len() {
        for (i, &nb) in needle.iter().enumerate() {
            if !eq(haystack[start + i], nb) {
                continue 'outer;
            }
        }
        return Some(start);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_sub_offsets_and_nocase() {
        let hay = b"abcABCabc";
        assert_eq!(find_sub(hay, b"ABC", false, 0), Some(3));
        assert_eq!(find_sub(hay, b"ABC", true, 0), Some(0));
        assert_eq!(find_sub(hay, b"ABC", true, 1), Some(3));
        assert_eq!(find_sub(hay, b"ABC", false, 4), None);
        assert_eq!(find_sub(hay, b"", false, 2), Some(2));
        assert_eq!(find_sub(hay, b"toolongpattern", false, 0), None);
    }
}
