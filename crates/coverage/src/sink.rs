//! The cross-worker coverage sink: a lock-free atomic word map.
//!
//! Parallel campaigns used to funnel every shard sync through a single
//! `Mutex<GlobalCoverage>`, serializing all workers on one lock (and, under
//! oversubscription, donating whole scheduler quanta to convoying). The sink
//! replaces the lock with `MAP_WORDS` relaxed `AtomicU64`s:
//!
//! * Workers publish *deltas* — only the virgin words their local shard
//!   changed since the last sync (tracked by
//!   [`GlobalCoverage::drain_dirty_words`]) — with one `fetch_or` per
//!   changed word. A sync after a no-novelty epoch publishes nothing and
//!   performs zero atomic operations.
//! * `fetch_or` is commutative and idempotent, so the final sink state is
//!   the OR of every shard regardless of thread interleaving — the same
//!   determinism argument the old locked union made, minus the lock.
//!   Campaign results therefore stay a pure function of (worker seeds,
//!   worker count), never of scheduling.
//! * Novelty is still judged against each worker's *local* shard, so the
//!   sink is write-only during the run and collapsed once at the join.

use crate::{GlobalCoverage, MAP_WORDS};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CoverageSink {
    words: Vec<AtomicU64>,
}

impl Default for CoverageSink {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageSink {
    pub fn new() -> Self {
        Self { words: (0..MAP_WORDS).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Publish the shard's changed-since-last-sync words (and clear its
    /// dirty set). Returns how many words were published; `0` means the
    /// epoch was novelty-free and the sync cost no atomics at all.
    pub fn publish_dirty(&self, shard: &mut GlobalCoverage) -> usize {
        shard.drain_dirty_words(|wi, w| {
            self.words[wi].fetch_or(w, Ordering::Relaxed);
        })
    }

    /// Distinct edges currently in the sink (relaxed snapshot; exact once
    /// all workers have flushed).
    pub fn edges_covered(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).to_ne_bytes().iter().filter(|&&b| b != 0).count())
            .sum()
    }

    /// Collapse into a [`GlobalCoverage`] at the campaign join, after every
    /// worker has flushed its shard.
    pub fn into_global(self) -> GlobalCoverage {
        GlobalCoverage::from_words(self.words.into_iter().map(AtomicU64::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CovRecorder, SiteId};

    fn run_with(sites: &[u64]) -> crate::CovMap {
        let mut r = CovRecorder::new();
        for &s in sites {
            r.hit(SiteId::from_raw(s));
        }
        r.into_map()
    }

    #[test]
    fn dirty_publishes_add_up_to_the_whole_map() {
        // Each publish sends only the words changed since the last one;
        // together they carry every word of the shard.
        let mut a = GlobalCoverage::new();
        let sink = CoverageSink::new();
        for sites in [&[1, 2, 3, 900][..], &[3, 4, 65_000], &[1, 2, 3, 900]] {
            a.merge(&run_with(sites));
            sink.publish_dirty(&mut a);
        }
        let g = sink.into_global();
        assert_eq!(g.to_sparse(), a.to_sparse());
        assert_eq!(g.edges_covered(), a.edges_covered());
    }

    #[test]
    fn second_dirty_publish_is_free() {
        let mut a = GlobalCoverage::new();
        a.merge(&run_with(&[5, 6, 7]));
        let sink = CoverageSink::new();
        assert!(sink.publish_dirty(&mut a) > 0);
        // Nothing changed since: the epoch-batched sync publishes nothing.
        assert_eq!(sink.publish_dirty(&mut a), 0);
        // Re-merging an already-seen run changes nothing either.
        a.merge(&run_with(&[5, 6, 7]));
        assert_eq!(sink.publish_dirty(&mut a), 0);
    }

    #[test]
    fn sink_matches_mutex_union_semantics() {
        // Two shards with overlapping coverage, published in either order,
        // collapse to the same global the old Mutex<GlobalCoverage> union
        // produced.
        let runs = [run_with(&[1, 2, 3]), run_with(&[3, 4, 5, 65_000]), run_with(&[1, 9])];
        let mut serial = GlobalCoverage::new();
        for r in &runs {
            serial.merge(r);
        }
        let mut a = GlobalCoverage::new();
        a.merge(&runs[0]);
        let mut b = GlobalCoverage::new();
        b.merge(&runs[1]);
        b.merge(&runs[2]);
        let sink = CoverageSink::new();
        sink.publish_dirty(&mut b);
        sink.publish_dirty(&mut a);
        let global = sink.into_global();
        assert_eq!(global.edges_covered(), serial.edges_covered());
        assert_eq!(global.to_sparse(), serial.to_sparse());
    }

    #[test]
    fn resumed_shard_republishes_through_from_sparse() {
        let mut a = GlobalCoverage::new();
        a.merge(&run_with(&[10, 20, 30]));
        let dump = a.to_sparse();
        // A resumed worker rebuilds its shard from the checkpoint dump; the
        // restored edges are dirty, so the first sync re-seeds the sink.
        let mut resumed = GlobalCoverage::from_sparse(&dump);
        let sink = CoverageSink::new();
        assert!(sink.publish_dirty(&mut resumed) > 0);
        assert_eq!(sink.into_global().to_sparse(), dump);
    }
}
