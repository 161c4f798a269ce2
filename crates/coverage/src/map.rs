//! The per-execution coverage map.

/// Size of the edge map. AFL++ defaults to 64 KiB; we keep the same size so
/// collision behaviour is comparable.
pub const MAP_SIZE: usize = 1 << 16;

/// One execution's edge-hit counts, indexed by `edge_hash % MAP_SIZE`.
#[derive(Clone)]
pub struct CovMap {
    counts: Box<[u8]>,
    /// Indices with nonzero counts. `bump` pushes an index only on its
    /// 0→1 transition, so the list is duplicate-free by construction. SQL
    /// test cases touch a few hundred edges out of 65536, so sparse
    /// iteration is the hot path for merging.
    touched: Vec<u32>,
}

impl Default for CovMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CovMap {
    pub fn new() -> Self {
        Self { counts: vec![0u8; MAP_SIZE].into_boxed_slice(), touched: Vec::new() }
    }

    #[inline]
    pub fn bump(&mut self, index: usize) {
        let i = index & (MAP_SIZE - 1);
        let c = &mut self.counts[i];
        if *c == 0 {
            self.touched.push(i as u32);
        }
        *c = c.saturating_add(1);
    }

    /// Add `n` hits to one edge at once: the same count and `touched` list
    /// as `n` calls to [`CovMap::bump`], saturating at 255.
    #[inline]
    pub fn add(&mut self, index: usize, n: u8) {
        let i = index & (MAP_SIZE - 1);
        let c = &mut self.counts[i];
        if *c == 0 && n != 0 {
            self.touched.push(i as u32);
        }
        *c = c.saturating_add(n);
    }

    /// Iterate `(index, &count)` over nonzero entries.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, &u8)> + '_ {
        self.touched.iter().map(move |&i| (i as usize, &self.counts[i as usize]))
    }

    /// The raw count array, for word-at-a-time scans (`MAP_SIZE` bytes).
    pub fn counts(&self) -> &[u8] {
        &self.counts
    }

    /// Number of distinct edges hit in this run.
    pub fn edge_count(&self) -> usize {
        self.touched.len()
    }

    pub fn get(&self, index: usize) -> u8 {
        self.counts[index & (MAP_SIZE - 1)]
    }

    /// Reset in place, keeping the allocation (AFL's per-run memset, but
    /// sparse).
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// A stable 64-bit digest of the bucketed map — used to group executions
    /// with identical coverage signatures (crash dedup secondary key).
    ///
    /// Each `(index, bucket)` entry is mixed independently and the results
    /// combined with a commutative fold, so the digest is order-insensitive
    /// without cloning and sorting `touched`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &i in &self.touched {
            let b = super::bucket(self.counts[i as usize]);
            h = h.wrapping_add(mix64((i as u64) << 8 | b as u64));
        }
        h
    }
}

/// SplitMix64 finalizer: a cheap bijective scramble so per-entry values are
/// well distributed before the commutative combine in [`CovMap::digest`].
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// AFL++ hit-count bucketing: collapse raw counts into 8 classes so loops
/// don't generate endless "novelty".
#[inline]
pub fn bucket(count: u8) -> u8 {
    BUCKET_LUT[count as usize]
}

/// The bucketing function as a 256-entry table — AFL++'s `count_class_lookup`
/// — so word-at-a-time classification pays one indexed load per byte instead
/// of a branch tree.
pub static BUCKET_LUT: [u8; 256] = build_bucket_lut();

const fn build_bucket_lut() -> [u8; 256] {
    let mut lut = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        lut[c] = match c {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        };
        c += 1;
    }
    lut
}

/// Classify one 8-lane word of raw counts into bucket classes. A zero word
/// stays zero, which is what lets virgin-map scans skip untouched regions
/// with a single compare.
#[inline]
pub fn bucket_word(src: &[u8]) -> u64 {
    debug_assert_eq!(src.len(), 8);
    let mut cls = [0u8; 8];
    let mut k = 0;
    while k < 8 {
        cls[k] = BUCKET_LUT[src[k] as usize];
        k += 1;
    }
    u64::from_ne_bytes(cls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let mut m = CovMap::new();
        m.bump(42);
        m.bump(42);
        assert_eq!(m.get(42), 2);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn index_wraps_to_map_size() {
        let mut m = CovMap::new();
        m.bump(MAP_SIZE + 5);
        assert_eq!(m.get(5), 1);
    }

    #[test]
    fn counts_saturate() {
        let mut m = CovMap::new();
        for _ in 0..300 {
            m.bump(1);
        }
        assert_eq!(m.get(1), 255);
    }

    #[test]
    fn add_matches_repeated_bumps() {
        let (mut added, mut bumped) = (CovMap::new(), CovMap::new());
        for (index, n) in [(7, 3u8), (MAP_SIZE + 9, 1), (7, 200), (7, 100), (12, 0), (9, 255)] {
            added.add(index, n);
            for _ in 0..n {
                bumped.bump(index);
            }
        }
        assert_eq!(added.get(7), 255, "counts saturate at 255");
        assert_eq!(added.get(9), 255);
        assert_eq!(added.get(12), 0, "adding 0 hits touches nothing");
        assert_eq!(added.counts(), bumped.counts());
        let touched = |m: &CovMap| m.iter_nonzero().map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(touched(&added), [7, 9], "0 -> n pushes the edge once, in first-touch order");
        assert_eq!(touched(&added), touched(&bumped));
    }

    #[test]
    fn clear_keeps_reuse_correct() {
        let mut m = CovMap::new();
        m.bump(3);
        m.clear();
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.get(3), 0);
        m.bump(4);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn bucket_classes_match_afl() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 4);
        assert_eq!(bucket(5), 8);
        assert_eq!(bucket(9), 16);
        assert_eq!(bucket(20), 32);
        assert_eq!(bucket(100), 64);
        assert_eq!(bucket(200), 128);
    }

    #[test]
    fn digest_is_order_insensitive_but_content_sensitive() {
        let mut a = CovMap::new();
        a.bump(1);
        a.bump(9);
        let mut b = CovMap::new();
        b.bump(9);
        b.bump(1);
        assert_eq!(a.digest(), b.digest());
        b.bump(2);
        assert_ne!(a.digest(), b.digest());
    }
}
