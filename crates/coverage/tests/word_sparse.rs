//! Property tests of the coverage accumulator's sparse paths: union order
//! and idempotence, the sparse dump round trip, and the campaign join, which
//! unions the workers' maps and must give exactly the serial merge.

use lego_coverage::{CovMap, CovRecorder, GlobalCoverage, SiteId};
use proptest::prelude::*;

/// Build a run map from a raw site-id sequence (edges are formed from
/// consecutive pairs, exactly like instrumented execution).
fn run_of(sites: &[u64]) -> CovMap {
    let mut r = CovRecorder::new();
    for &s in sites {
        r.hit(SiteId::from_raw(s));
    }
    r.into_map()
}

/// Full observable state of an accumulator.
fn state(g: &GlobalCoverage) -> (Vec<(usize, u8)>, usize) {
    (g.to_sparse(), g.edges_covered())
}

/// Site sequences of up to a few thousand hits, with a narrowed id range so
/// repeats create high hit counts (exercising every bucket class).
fn sites() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..5_000, 0..2_500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_order_is_irrelevant_and_idempotent(a in sites(), b in sites()) {
        let mut ga = GlobalCoverage::new();
        ga.merge(&run_of(&a));
        let mut gb = GlobalCoverage::new();
        gb.merge(&run_of(&b));
        let mut ab = ga.clone();
        ab.union_sparse(&gb.to_sparse());
        let mut ba = gb;
        ba.union_sparse(&ga.to_sparse());
        prop_assert_eq!(state(&ab), state(&ba));
        let once = state(&ab);
        ab.union_sparse(&ga.to_sparse());
        prop_assert_eq!(state(&ab), once);
    }

    #[test]
    fn sparse_roundtrip_preserves_state(runs in prop::collection::vec(sites(), 1..4)) {
        let mut g = GlobalCoverage::new();
        for s in &runs {
            g.merge(&run_of(s));
        }
        let back = GlobalCoverage::from_sparse(&g.to_sparse());
        prop_assert_eq!(state(&back), state(&g));
    }

    #[test]
    fn sharded_union_equals_serial_merge(
        runs in prop::collection::vec(sites(), 1..8),
        shards in prop::collection::vec(0usize..3, 1..8),
    ) {
        // Serial reference: every run merged into one accumulator.
        let mut serial = GlobalCoverage::new();
        for s in &runs {
            serial.merge(&run_of(s));
        }

        // Parallel model: runs dealt across 3 worker maps (per the `shards`
        // assignment), each judging novelty on its own map; the join unions
        // their sparse dumps in worker order.
        let mut workers = [GlobalCoverage::new(), GlobalCoverage::new(), GlobalCoverage::new()];
        for (i, s) in runs.iter().enumerate() {
            workers[shards[i % shards.len()]].merge(&run_of(s));
        }
        let mut joined = GlobalCoverage::new();
        for w in &workers {
            joined.union_sparse(&w.to_sparse());
        }
        prop_assert_eq!(state(&joined), state(&serial));
    }
}
