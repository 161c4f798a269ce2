#![forbid(unsafe_code)]

//! AFL++-style edge-coverage instrumentation for the simulated DBMS engines.
//!
//! The paper's LEGO is built on AFL++, whose feedback signal is a 64 KiB
//! shared-memory byte map: every executed control-flow *edge* `(prev, cur)`
//! increments `map[hash(prev, cur)]`, and hit counts are bucketed into power-
//! of-two classes before novelty comparison. This crate reproduces those
//! semantics in-process:
//!
//! * [`site_id!`] and [`cov!`] give each instrumentation point the explicit
//!   64-bit id written at its call site, mirroring AFL's fixed random block
//!   ids: the id does not depend on where the site sits in the source.
//! * [`CovRecorder`] is carried through one execution and folds edges into a
//!   fresh [`CovMap`].
//! * [`GlobalCoverage`] is the corpus-level accumulator that answers the only
//!   question a coverage-guided fuzzer asks: *did this run hit anything new?*

pub mod map;
pub mod recorder;

pub use map::{bucket, CovMap, BUCKET_LUT, MAP_SIZE};
pub use recorder::{CovRecorder, SiteId};

/// Corpus-level coverage accounting with AFL hit-count bucketing.
///
/// `virgin[i]` holds the OR of all *bucketed* counts ever observed for edge
/// `i`. A run is "interesting" (new coverage) if it sets any bucket bit that
/// was never set before — exactly AFL++'s `has_new_bits`.
#[derive(Clone)]
pub struct GlobalCoverage {
    virgin: Box<[u8]>,
    edges_covered: usize,
}

impl Default for GlobalCoverage {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalCoverage {
    pub fn new() -> Self {
        Self { virgin: vec![0u8; MAP_SIZE].into_boxed_slice(), edges_covered: 0 }
    }

    /// Merge one execution's map; returns `true` if any new bucket bit (and
    /// therefore new behaviour) was observed. Classifies and compares only
    /// the edges the run touched: SQL cases touch tens of edges of the
    /// 65,536, so a walk over the whole map would read mostly zeros.
    pub fn merge(&mut self, run: &CovMap) -> bool {
        let mut new = false;
        for (i, &raw) in run.iter_nonzero() {
            let b = bucket(raw);
            let v = self.virgin[i];
            if v & b != b {
                if v == 0 {
                    self.edges_covered += 1;
                }
                self.virgin[i] = v | b;
                new = true;
            }
        }
        new
    }

    /// OR a sparse dump into this accumulator (the parallel join unions the
    /// workers' final maps and curve snapshots this way).
    pub fn union_sparse(&mut self, entries: &[(usize, u8)]) {
        for &(i, v) in entries {
            if i >= MAP_SIZE || v == 0 {
                continue;
            }
            let d = self.virgin[i];
            if d | v != d {
                if d == 0 {
                    self.edges_covered += 1;
                }
                self.virgin[i] = d | v;
            }
        }
    }

    /// Number of distinct edges seen at least once — the "branches covered"
    /// metric of the paper's Figure 9 / Table IV.
    pub fn edges_covered(&self) -> usize {
        self.edges_covered
    }

    /// Reset to the virgin state.
    pub fn clear(&mut self) {
        self.virgin.iter_mut().for_each(|b| *b = 0);
        self.edges_covered = 0;
    }

    /// Sparse `(edge index, bucket bits)` dump of the virgin map, in index
    /// order. Campaign checkpoints persist this instead of the raw 64 KiB
    /// map: covered edges are a small fraction of `MAP_SIZE`.
    pub fn to_sparse(&self) -> Vec<(usize, u8)> {
        self.virgin.iter().enumerate().filter(|(_, &v)| v != 0).map(|(i, &v)| (i, v)).collect()
    }

    /// Rebuild an accumulator from a [`GlobalCoverage::to_sparse`] dump.
    /// Out-of-range indexes are ignored (corrupt checkpoints fail novelty
    /// checks rather than panicking).
    pub fn from_sparse(entries: &[(usize, u8)]) -> Self {
        let mut g = Self::new();
        g.union_sparse(entries);
        g
    }
}

/// Instrumentation-site id from an explicit constant.
///
/// Every site carries its own 64-bit literal, as AFL++ gives each basic
/// block a fixed random id at compile time. The id is part of the program,
/// not of its layout: moving, adding or deleting code never changes another
/// site's id, so an engine change cannot reshuffle every edge after it. A
/// new site takes a fresh random literal (e.g. `od -An -N8 -tx8 /dev/urandom`);
/// `scripts/check_determinism_lint.sh` rejects two sites with the same id.
#[macro_export]
macro_rules! site_id {
    ($id:literal) => {
        $crate::SiteId::from_raw($id)
    };
}

/// Record a coverage hit at site `$id` on recorder expression `$rec`
/// (anything with a `hit(SiteId)` method: an `ExecCtx` or a `CovRecorder`).
#[macro_export]
macro_rules! cov {
    ($rec:expr, $id:literal) => {
        $rec.hit($crate::site_id!($id))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(sites: &[u64]) -> CovMap {
        let mut r = CovRecorder::new();
        for &s in sites {
            r.hit(SiteId::from_raw(s));
        }
        r.into_map()
    }

    #[test]
    fn fresh_global_has_no_coverage() {
        let g = GlobalCoverage::new();
        assert_eq!(g.edges_covered(), 0);
    }

    #[test]
    fn first_run_is_always_new() {
        let mut g = GlobalCoverage::new();
        assert!(g.merge(&run_with(&[1, 2, 3])));
        assert!(g.edges_covered() > 0);
    }

    #[test]
    fn identical_run_is_not_new() {
        let mut g = GlobalCoverage::new();
        let m = run_with(&[1, 2, 3]);
        assert!(g.merge(&m));
        assert!(!g.merge(&m));
    }

    #[test]
    fn different_edge_order_is_new_coverage() {
        // Edges are (prev, cur) pairs, so visiting the same sites in a
        // different order produces different edges — the property that makes
        // SQL *sequences* matter.
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[10, 20, 30]));
        assert!(g.merge(&run_with(&[30, 20, 10])));
    }

    #[test]
    fn hit_count_bucket_changes_are_new() {
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[7, 8]));
        // Same edges but one edge hit many more times -> new bucket.
        let mut r = CovRecorder::new();
        for _ in 0..10 {
            r.hit(SiteId::from_raw(7));
            r.hit(SiteId::from_raw(8));
        }
        assert!(g.merge(&r.into_map()));
    }

    #[test]
    fn clear_resets_everything() {
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[1]));
        g.clear();
        assert_eq!(g.edges_covered(), 0);
        assert!(g.merge(&run_with(&[1])));
    }

    #[test]
    fn union_matches_sequential_merges() {
        let runs = [run_with(&[1, 2, 3]), run_with(&[3, 4, 5, 900]), run_with(&[1, 7, 65_000])];
        // Sequential merging into one accumulator…
        let mut serial = GlobalCoverage::new();
        for r in &runs {
            serial.merge(r);
        }
        // …vs. merging into per-worker shards and unioning, in either order.
        let mut a = GlobalCoverage::new();
        a.merge(&runs[0]);
        let mut b = GlobalCoverage::new();
        b.merge(&runs[1]);
        b.merge(&runs[2]);
        let mut ab = a.clone();
        ab.union_sparse(&b.to_sparse());
        let mut ba = b.clone();
        ba.union_sparse(&a.to_sparse());
        for g in [ab, ba] {
            assert_eq!(g.edges_covered(), serial.edges_covered());
            assert_eq!(g.to_sparse(), serial.to_sparse());
            for r in &runs {
                assert!(!g.clone().merge(r));
            }
        }
    }

    #[test]
    fn union_is_idempotent() {
        let mut a = GlobalCoverage::new();
        a.merge(&run_with(&[5, 6]));
        let (n, dump) = (a.edges_covered(), a.to_sparse());
        a.union_sparse(&dump);
        assert_eq!(a.edges_covered(), n);
        assert_eq!(a.to_sparse(), dump);
    }

    #[test]
    fn edges_covered_counts_distinct_edges() {
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[1, 2]));
        let n = g.edges_covered();
        // Re-merging the same map adds nothing.
        g.merge(&run_with(&[1, 2]));
        assert_eq!(g.edges_covered(), n);
    }

    #[test]
    fn sparse_roundtrip_is_lossless() {
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[1, 2, 3, 900, 65_000]));
        g.merge(&run_with(&[3, 2, 1]));
        let entries = g.to_sparse();
        assert!(!entries.is_empty());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "index-ordered");
        let mut back = GlobalCoverage::from_sparse(&entries);
        assert_eq!(back.edges_covered(), g.edges_covered());
        assert_eq!(back.to_sparse(), entries);
        assert!(!back.merge(&run_with(&[1, 2, 3])));
    }

    #[test]
    fn from_sparse_ignores_out_of_range_entries() {
        let g = GlobalCoverage::from_sparse(&[(MAP_SIZE + 7, 1), (3, 2)]);
        assert_eq!(g.edges_covered(), 1);
    }
}
