//! Seed derivation: every trial's seed is a pure function of the
//! campaign's master seed and the trial's index in the expanded matrix,
//! so runs on any number of workers agree byte-for-byte.

/// SplitMix64 finalizer — decorrelates seeds that differ in few bits.
///
/// Delegates to the workspace's single shared definition in
/// [`underradar_netsim::rng::splitmix64_mix`].
pub fn splitmix64(x: u64) -> u64 {
    underradar_netsim::rng::splitmix64_mix(x)
}

/// The seed for trial `index` of a campaign with `master_seed`.
pub fn trial_seed(master_seed: u64, index: usize) -> u64 {
    splitmix64(master_seed ^ splitmix64(index as u64))
}

/// The seed for retry `attempt` of a trial. Attempt 0 is the trial seed
/// itself; each retry re-rolls the world deterministically so a loss
/// pattern that swallowed the first attempt's packets is re-drawn.
pub fn attempt_seed(trial_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        trial_seed
    } else {
        splitmix64(trial_seed ^ splitmix64(0x5EED_0000 + attempt as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| trial_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| trial_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no collisions in a small matrix");
    }

    #[test]
    fn attempt_zero_is_the_trial_seed() {
        assert_eq!(attempt_seed(99, 0), 99);
        assert_ne!(attempt_seed(99, 1), 99);
        assert_ne!(attempt_seed(99, 1), attempt_seed(99, 2));
    }
}
