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
pub mod sink;

pub use map::{bucket, bucket_word, CovMap, BUCKET_LUT, MAP_SIZE};
pub use recorder::{CovRecorder, SiteId};
pub use sink::CoverageSink;

/// Number of 8-byte words in the virgin map.
pub const MAP_WORDS: usize = MAP_SIZE / 8;

/// Above this many touched edges, [`GlobalCoverage::merge`] switches from
/// sparse per-edge classification to the AFL++-style sequential word scan:
/// the word scan reads all `MAP_WORDS` words but in cache-friendly order and
/// 8 lanes at a time, which overtakes random-access sparse walks once a run
/// touches a nontrivial fraction of the map.
pub const WORD_SCAN_MIN_EDGES: usize = 1024;

/// Corpus-level coverage accounting with AFL hit-count bucketing.
///
/// `virgin[i]` holds the OR of all *bucketed* counts ever observed for edge
/// `i`. A run is "interesting" (new coverage) if it sets any bucket bit that
/// was never set before — exactly AFL++'s `has_new_bits`.
#[derive(Clone)]
pub struct GlobalCoverage {
    virgin: Box<[u8]>,
    edges_covered: usize,
    /// One bit per 8-byte virgin word that changed since the last
    /// [`GlobalCoverage::drain_dirty_words`] — the epoch-batched delta a
    /// parallel worker publishes to the shared [`CoverageSink`]. Serial
    /// campaigns never drain it; setting bits costs one OR per *changed*
    /// word, so the common no-novelty execution touches it not at all.
    dirty: Box<[u64]>,
}

const DIRTY_WORDS: usize = MAP_WORDS / 64;

impl Default for GlobalCoverage {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalCoverage {
    pub fn new() -> Self {
        Self {
            virgin: vec![0u8; MAP_SIZE].into_boxed_slice(),
            edges_covered: 0,
            dirty: vec![0u64; DIRTY_WORDS].into_boxed_slice(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, word: usize) {
        self.dirty[word >> 6] |= 1u64 << (word & 63);
    }

    /// Merge one execution's map; returns `true` if any new bucket bit (and
    /// therefore new behaviour) was observed.
    ///
    /// Dispatches between the sparse per-edge walk (typical SQL cases touch
    /// a few hundred edges) and the AFL++-style sequential word scan
    /// ([`GlobalCoverage::merge_words`]) for dense runs; both compute the
    /// identical result (pinned by property tests in `tests/word_sparse.rs`).
    pub fn merge(&mut self, run: &CovMap) -> bool {
        if run.edge_count() >= WORD_SCAN_MIN_EDGES {
            self.merge_words(run)
        } else {
            self.merge_sparse(run)
        }
    }

    /// Sparse path: classify and compare only the edges the run touched.
    pub fn merge_sparse(&mut self, run: &CovMap) -> bool {
        let mut new = false;
        for (i, &raw) in run.iter_nonzero() {
            let b = bucket(raw);
            let v = self.virgin[i];
            if v & b != b {
                if v == 0 {
                    self.edges_covered += 1;
                }
                self.virgin[i] = v | b;
                self.mark_dirty(i >> 3);
                new = true;
            }
        }
        new
    }

    /// Word path: scan the run's raw counts 8 bytes at a time, skip all-zero
    /// words with one compare, classify nonzero words through the bucket
    /// LUT, and OR into the virgin map — AFL++'s `has_new_bits` +
    /// `classify_counts` fused into one pass.
    pub fn merge_words(&mut self, run: &CovMap) -> bool {
        let mut new = false;
        let mut added = 0usize;
        for (wi, (dst, src)) in
            self.virgin.chunks_exact_mut(8).zip(run.counts().chunks_exact(8)).enumerate()
        {
            let s = u64::from_ne_bytes(src.try_into().expect("8-byte chunk"));
            if s == 0 {
                continue;
            }
            let c = bucket_word(src);
            let d = u64::from_ne_bytes((&*dst).try_into().expect("8-byte chunk"));
            let m = d | c;
            if m != d {
                let cls = c.to_ne_bytes();
                for k in 0..8 {
                    if dst[k] == 0 && cls[k] != 0 {
                        added += 1;
                    }
                }
                dst.copy_from_slice(&m.to_ne_bytes());
                self.dirty[wi >> 6] |= 1u64 << (wi & 63);
                new = true;
            }
        }
        self.edges_covered += added;
        new
    }

    /// Check for novelty without recording it.
    pub fn would_be_new(&self, run: &CovMap) -> bool {
        run.iter_nonzero().any(|(i, &raw)| self.virgin[i] & bucket(raw) != bucket(raw))
    }

    /// Union another accumulator into this one, word at a time.
    ///
    /// This is the parallel-campaign sync path: worker shards batch their
    /// local virgin maps into the shared global every K cases, so the scan
    /// runs over 8-byte words and skips all-zero source words instead of
    /// walking individual edges. The operation is commutative and
    /// idempotent, which makes the merged result independent of worker
    /// interleaving.
    pub fn union_with(&mut self, other: &GlobalCoverage) {
        let mut added = 0usize;
        for (wi, (dst, src)) in
            self.virgin.chunks_exact_mut(8).zip(other.virgin.chunks_exact(8)).enumerate()
        {
            let s = u64::from_ne_bytes(src.try_into().expect("8-byte chunk"));
            if s == 0 {
                continue;
            }
            let d = u64::from_ne_bytes((&*dst).try_into().expect("8-byte chunk"));
            let m = d | s;
            if m != d {
                for k in 0..8 {
                    if dst[k] == 0 && src[k] != 0 {
                        added += 1;
                    }
                }
                dst.copy_from_slice(&m.to_ne_bytes());
                self.dirty[wi >> 6] |= 1u64 << (wi & 63);
            }
        }
        self.edges_covered += added;
    }

    /// OR a sparse dump into this accumulator (the parallel join unions
    /// worker snapshot dumps without materializing 64 KiB maps first).
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
                self.mark_dirty(i >> 3);
            }
        }
    }

    /// Visit and clear every virgin word changed since the last drain: the
    /// delta a worker publishes to the shared sink. Costs a 128-word bitmap
    /// scan when nothing changed — the lock-free common path of the
    /// epoch-batched sync.
    pub fn drain_dirty_words(&mut self, mut f: impl FnMut(usize, u64)) -> usize {
        let mut published = 0usize;
        for di in 0..DIRTY_WORDS {
            let mut bits = self.dirty[di];
            if bits == 0 {
                continue;
            }
            self.dirty[di] = 0;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let wi = (di << 6) | bit;
                f(wi, self.word(wi));
                published += 1;
            }
        }
        published
    }

    /// The `wi`-th 8-byte word of the virgin map.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        u64::from_ne_bytes(self.virgin[wi * 8..wi * 8 + 8].try_into().expect("8-byte chunk"))
    }

    /// Rebuild from raw virgin words (the sink's collapse at campaign join).
    pub(crate) fn from_words(words: impl Iterator<Item = u64>) -> Self {
        let mut g = Self::new();
        let mut edges = 0usize;
        for (wi, w) in words.enumerate().take(MAP_WORDS) {
            if w == 0 {
                continue;
            }
            let bytes = w.to_ne_bytes();
            edges += bytes.iter().filter(|&&b| b != 0).count();
            g.virgin[wi * 8..wi * 8 + 8].copy_from_slice(&bytes);
            g.mark_dirty(wi);
        }
        g.edges_covered = edges;
        g
    }

    /// Number of distinct edges seen at least once — the "branches covered"
    /// metric of the paper's Figure 9 / Table IV.
    pub fn edges_covered(&self) -> usize {
        self.edges_covered
    }

    /// Reset to the virgin state.
    pub fn clear(&mut self) {
        self.virgin.iter_mut().for_each(|b| *b = 0);
        self.dirty.iter_mut().for_each(|b| *b = 0);
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
    /// checks rather than panicking). Restored edges count as dirty, so a
    /// resumed worker's first sync re-publishes them to the sink.
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
        assert!(!g.would_be_new(&m));
    }

    #[test]
    fn different_edge_order_is_new_coverage() {
        // Edges are (prev, cur) pairs, so visiting the same sites in a
        // different order produces different edges — the property that makes
        // SQL *sequences* matter.
        let mut g = GlobalCoverage::new();
        g.merge(&run_with(&[10, 20, 30]));
        assert!(g.would_be_new(&run_with(&[30, 20, 10])));
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
        assert!(g.would_be_new(&run_with(&[1])));
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
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        for g in [&ab, &ba] {
            assert_eq!(g.edges_covered(), serial.edges_covered());
            for r in &runs {
                assert!(!g.would_be_new(r));
            }
        }
    }

    #[test]
    fn union_is_idempotent() {
        let mut a = GlobalCoverage::new();
        a.merge(&run_with(&[5, 6]));
        let n = a.edges_covered();
        let snapshot = a.clone();
        a.union_with(&snapshot);
        assert_eq!(a.edges_covered(), n);
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
        let back = GlobalCoverage::from_sparse(&entries);
        assert_eq!(back.edges_covered(), g.edges_covered());
        assert_eq!(back.to_sparse(), entries);
        assert!(!back.would_be_new(&run_with(&[1, 2, 3])));
    }

    #[test]
    fn from_sparse_ignores_out_of_range_entries() {
        let g = GlobalCoverage::from_sparse(&[(MAP_SIZE + 7, 1), (3, 2)]);
        assert_eq!(g.edges_covered(), 1);
    }
}
