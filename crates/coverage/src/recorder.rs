//! Per-execution edge recorder.

use crate::map::{CovMap, MAP_SIZE};

/// A stable identifier for one instrumentation point in the engine source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SiteId(u64);

impl SiteId {
    /// Construct from an explicit id: the [`crate::site_id!`] literal of an
    /// instrumentation point, or an arbitrary value in tests.
    pub const fn from_raw(v: u64) -> Self {
        SiteId(v)
    }

    /// Derive a related site, e.g. one per enum discriminant at a single
    /// `cov_n!`-style call site.
    pub const fn with_index(self, idx: u64) -> Self {
        SiteId(self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(idx))
    }

    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Records the AFL edge trace of a single test-case execution.
///
/// Mirrors AFL++'s instrumentation:
/// ```c
/// map[cur ^ prev]++; prev = cur >> 1;
/// ```
pub struct CovRecorder {
    map: CovMap,
    prev: u64,
}

impl Default for CovRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CovRecorder {
    pub fn new() -> Self {
        Self { map: CovMap::new(), prev: 0 }
    }

    /// Build a recorder on top of a recycled map, clearing it in place so
    /// the 64 KiB counts allocation is reused instead of re-zeroed from a
    /// fresh heap block (the campaign hot path runs one map per case).
    pub fn from_recycled(mut map: CovMap) -> Self {
        map.clear();
        Self { map, prev: 0 }
    }

    #[inline]
    pub fn hit(&mut self, site: SiteId) {
        let cur = site.0 as usize & (MAP_SIZE - 1);
        self.map.bump(cur ^ self.prev as usize);
        self.prev = (cur >> 1) as u64;
    }

    /// Reset the edge chain at a statement boundary so edges never span two
    /// statements of the same script in a misleading way. (AFL++ resets prev
    /// at function entry of the persistent-mode loop.)
    pub fn reset_edge_chain(&mut self) {
        self.prev = 0;
    }

    pub fn map(&self) -> &CovMap {
        &self.map
    }

    pub fn into_map(self) -> CovMap {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_depend_on_predecessor() {
        let a = SiteId::from_raw(100);
        let b = SiteId::from_raw(200);
        let mut r1 = CovRecorder::new();
        r1.hit(a);
        r1.hit(b);
        let mut r2 = CovRecorder::new();
        r2.hit(b);
        r2.hit(a);
        assert_ne!(r1.into_map().digest(), r2.into_map().digest());
    }

    #[test]
    fn reset_edge_chain_restores_entry_edge() {
        let a = SiteId::from_raw(7);
        let mut r1 = CovRecorder::new();
        r1.hit(a);
        let mut r2 = CovRecorder::new();
        r2.hit(SiteId::from_raw(9));
        r2.reset_edge_chain();
        r2.hit(a);
        // After the chain reset, hitting `a` produces the same entry edge as a
        // fresh recorder.
        let m1 = r1.into_map();
        let m2 = r2.into_map();
        // Entry edge: prev_loc is 0 after reset, so the edge index is the site.
        let entry_edge = 7usize;
        assert_eq!(m1.get(entry_edge), 1);
        assert_eq!(m2.get(entry_edge), 1);
    }

    #[test]
    fn with_index_generates_distinct_sites() {
        let base = SiteId::from_raw(5);
        assert_ne!(base.with_index(0), base.with_index(1));
        assert_ne!(base.with_index(0), base);
    }
}
