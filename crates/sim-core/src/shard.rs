//! Deterministic partitioning of a node-id space into contiguous shards.
//!
//! The cluster window sweep reads per-node hot state (occupancy, trace
//! activity, linger countdowns) once per window. To let several workers
//! advance one window cooperatively *without* changing any output byte,
//! the id space `0..n` is split into contiguous, 64-aligned ranges: each
//! shard classifies its own nodes into an intent buffer, and a single
//! sequential pass then merges the buffers in ascending shard (and hence
//! ascending node-id) order. Because shard boundaries fall on `u64`
//! bitset word boundaries, a shard can also write its slice of a packed
//! bit mask without atomics or false sharing.
//!
//! The plan is a pure function of `(n, shards)` — the same discipline
//! [`par_map_indexed`](crate::par_map_indexed) uses for index-derived
//! seeding — so a run is reproducible at any worker count: the merge
//! order, and therefore every emitted byte, never depends on which
//! thread ran which shard.

use crate::par::default_jobs;
use std::ops::Range;

/// A deterministic split of the id space `0..n` into contiguous,
/// 64-aligned ranges.
///
/// All ranges except possibly the last hold the same multiple-of-64
/// number of ids; the last takes the remainder. Requesting more shards
/// than the space supports yields fewer (never empty) shards, so every
/// range in [`ShardPlan::ranges`] is non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Plan a split of `0..n` into at most `shards` ranges.
    ///
    /// `shards == 0` is treated as 1. For `n == 0` the plan is empty.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut ranges = Vec::new();
        if n > 0 {
            let words = n.div_ceil(64);
            let per_shard_words = words.div_ceil(shards).max(1);
            let step = per_shard_words * 64;
            let mut start = 0usize;
            while start < n {
                let end = (start + step).min(n);
                ranges.push(start..end);
                start = end;
            }
        }
        ShardPlan { n, ranges }
    }

    /// Run `f(i, part)` once per shard `i`, handing shard `i` the `i`-th
    /// item of `parts` (its buffer, or its slices of the swept lanes).
    ///
    /// Shards run on scoped threads — one per shard — when the plan has
    /// several shards, covers at least `thread_min` ids, and the process
    /// worker pool ([`default_jobs`]) is wider than one; otherwise they
    /// run in-line, in shard order. Either way `f` sees the same
    /// `(i, part)` pairs, so a caller that merges the parts in shard
    /// order afterwards gets the same bytes at any thread count.
    pub fn run<T, F>(&self, thread_min: usize, parts: impl IntoIterator<Item = T>, f: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        let threaded = self.shard_count() > 1 && self.n >= thread_min && default_jobs() > 1;
        if threaded {
            let f = &f;
            std::thread::scope(|scope| {
                for (i, part) in parts.into_iter().enumerate() {
                    scope.spawn(move || f(i, part));
                }
            });
        } else {
            for (i, part) in parts.into_iter().enumerate() {
                f(i, part);
            }
        }
    }

    /// The size of the id space this plan covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the id space is empty (no ranges).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The contiguous id ranges, ascending and non-overlapping; their
    /// concatenation is exactly `0..n`.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of shards actually produced (≤ the requested count).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The range of packed-`u64`-word indices shard `i` owns. Because
    /// every boundary is 64-aligned, word ranges of distinct shards never
    /// overlap — each shard may mutate its own slice of a packed bit
    /// array.
    pub fn word_range(&self, i: usize) -> Range<usize> {
        let r = &self.ranges[i];
        r.start / 64..r.end.div_ceil(64)
    }

    /// Split `slice` (of length `n`) into one mutable sub-slice per
    /// shard, in shard order.
    ///
    /// # Panics
    /// If `slice.len() != n`.
    pub fn split_mut<'a, T>(&self, slice: &'a mut [T]) -> Vec<&'a mut [T]> {
        assert_eq!(slice.len(), self.n, "slice length must match plan");
        let mut out = Vec::with_capacity(self.ranges.len());
        let mut rest = slice;
        let mut consumed = 0usize;
        for r in &self.ranges {
            let (head, tail) = rest.split_at_mut(r.end - consumed);
            out.push(head);
            rest = tail;
            consumed = r.end;
        }
        out
    }

    /// Split a packed bit array of `n.div_ceil(64)` words into one
    /// mutable word sub-slice per shard, in shard order — the word-level
    /// counterpart of [`ShardPlan::split_mut`], valid because every shard
    /// boundary is 64-aligned.
    ///
    /// # Panics
    /// If `words.len() != n.div_ceil(64)`.
    pub fn split_words_mut<'a>(&self, words: &'a mut [u64]) -> Vec<&'a mut [u64]> {
        assert_eq!(words.len(), self.n.div_ceil(64), "word count must match plan");
        let mut out = Vec::with_capacity(self.ranges.len());
        let mut rest = words;
        let mut consumed = 0usize;
        for i in 0..self.ranges.len() {
            let end = self.word_range(i).end;
            let (head, tail) = rest.split_at_mut(end - consumed);
            out.push(head);
            rest = tail;
            consumed = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_space_and_align_to_words() {
        for n in [0usize, 1, 63, 64, 65, 500, 4096, 65_536, 65_537] {
            for shards in [1usize, 2, 3, 7, 16, 1000] {
                let plan = ShardPlan::new(n, shards);
                let mut next = 0usize;
                for (i, r) in plan.ranges().iter().enumerate() {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(r.start < r.end, "non-empty");
                    assert_eq!(r.start % 64, 0, "word-aligned start");
                    if i + 1 < plan.shard_count() {
                        assert_eq!(r.end % 64, 0, "interior boundaries word-aligned");
                    }
                    next = r.end;
                }
                assert_eq!(next, n, "tiles exactly 0..n");
                assert!(plan.shard_count() <= shards.max(1));
            }
        }
    }

    #[test]
    fn plan_is_pure_in_inputs() {
        assert_eq!(ShardPlan::new(4096, 7), ShardPlan::new(4096, 7));
        assert_ne!(
            ShardPlan::new(4096, 7).ranges(),
            ShardPlan::new(4096, 8).ranges()
        );
    }

    #[test]
    fn word_ranges_are_disjoint() {
        let plan = ShardPlan::new(65_537, 16);
        let mut prev_end = 0usize;
        for i in 0..plan.shard_count() {
            let wr = plan.word_range(i);
            assert_eq!(wr.start, prev_end);
            prev_end = wr.end;
        }
        assert_eq!(prev_end, 65_537usize.div_ceil(64));
    }

    #[test]
    fn split_mut_partitions_in_order() {
        let plan = ShardPlan::new(300, 3);
        let mut data: Vec<usize> = (0..300).collect();
        let parts = plan.split_mut(&mut data);
        assert_eq!(parts.len(), plan.shard_count());
        for (part, r) in parts.iter().zip(plan.ranges()) {
            assert_eq!(part.len(), r.len());
            assert_eq!(part[0], r.start);
        }
    }

    #[test]
    fn split_words_mut_mirrors_word_ranges() {
        let plan = ShardPlan::new(300, 3);
        let mut words = vec![0u64; 300usize.div_ceil(64)];
        let parts = plan.split_words_mut(&mut words);
        assert_eq!(parts.len(), plan.shard_count());
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), plan.word_range(i).len());
        }
    }

    #[test]
    fn run_hands_each_shard_its_own_part() {
        let plan = ShardPlan::new(300, 3);
        for thread_min in [0, usize::MAX] {
            let mut data = vec![0usize; 300];
            plan.run(thread_min, plan.split_mut(&mut data), |i, part: &mut [usize]| {
                part.fill(i + 1);
            });
            for (i, r) in plan.ranges().iter().enumerate() {
                assert!(data[r.clone()].iter().all(|&v| v == i + 1));
            }
        }
    }

    #[test]
    fn zero_shards_treated_as_one() {
        let plan = ShardPlan::new(128, 0);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.ranges(), std::slice::from_ref(&(0..128)));
    }
}
