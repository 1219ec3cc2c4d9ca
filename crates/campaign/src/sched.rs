//! Trial scheduling: one shared cursor hands out item positions, one at
//! a time.
//!
//! Every worker draws the next position with a single `fetch_add` and
//! runs that item to completion before drawing again. A worker therefore
//! never holds more than the one item it is running: a run of heavy
//! indices spreads across whichever workers are free, and the makespan
//! stays within one item's cost of `total_work / workers`. The run
//! service (`underradar-runner`) draws trials from a [`Cursor`] over its
//! frontier; [`run_indexed`] is the same cursor with results collected in
//! index order.
//!
//! Determinism: scheduling decides only *where* an item runs, never what
//! it computes. Every trial's seed is a pure function of its index, and
//! results are committed by index, so the output is byte-identical for
//! any worker count and any interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shared cursor over positions `0..n`: each [`Cursor::draw`] hands
/// out the next position exactly once, across all threads.
pub struct Cursor {
    next: AtomicUsize,
    n: usize,
}

impl Cursor {
    /// A cursor over `0..n`.
    pub fn new(n: usize) -> Cursor {
        Cursor {
            next: AtomicUsize::new(0),
            n,
        }
    }

    /// The next undrawn position, or `None` once all `n` are drawn.
    pub fn draw(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }
}

/// Run `run(i)` for every `i in 0..n` across `workers` OS threads drawing
/// from one [`Cursor`], returning results in index order. `workers <= 1`
/// runs inline on the calling thread (the sequential determinism
/// baseline).
pub fn run_indexed<T, F>(n: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    let cursor = Cursor::new(n);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(i) = cursor.draw() {
                    let out = run(i);
                    slots.lock().expect("result lock")[i] = Some(out);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|s| s.expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn indexed_matches_sequential_in_order() {
        let f = |i: usize| i * i + 1;
        let seq = run_indexed(37, 1, f);
        let par = run_indexed(37, 4, f);
        assert_eq!(seq, par);
        assert_eq!(seq[5], 26);
    }

    #[test]
    fn worker_count_clamps_to_item_count() {
        assert_eq!(run_indexed(2, 16, |i| i), vec![0, 1]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn every_index_runs_exactly_once_across_workers() {
        let ran = AtomicU64::new(0);
        let out = run_indexed(1000, 8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn skewed_front_block_still_fills_every_slot() {
        // All the heavy work sits at the front of the index range; the
        // cursor spreads it over every worker and each result still lands
        // in its own slot.
        let out = run_indexed(256, 4, |i| {
            if i < 64 {
                let mut acc = i as u64;
                for k in 0..20_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
            }
            i
        });
        assert_eq!(out, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn a_cursor_hands_out_each_position_once_then_stops() {
        let cursor = Cursor::new(3);
        let drawn: Vec<usize> = std::iter::from_fn(|| cursor.draw()).collect();
        assert_eq!(drawn, vec![0, 1, 2]);
        assert_eq!(cursor.draw(), None, "stays exhausted");
    }
}
