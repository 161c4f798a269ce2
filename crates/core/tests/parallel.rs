//! Soundness contracts of N-worker campaigns: the merged coverage, curve,
//! bug list and budget accounting. Their determinism (rerun identity, one
//! worker equals serial) is pinned by `campaign_matrix.rs`.

use lego::campaign::ParallelOpts;
use lego::campaign::{run, run_campaign, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_sqlast::Dialect;

/// Engine factory giving each worker shard its own RNG stream; worker 0
/// uses the base seed itself so `workers == 1` reproduces a serial run.
fn lego_factory(
    dialect: Dialect,
    base_seed: u64,
) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, ..Config::default() };
        Box::new(LegoFuzzer::new(dialect, cfg))
    }
}

/// A campaign over `workers` threads, syncing every 4 cases.
fn parallel<F>(factory: F, dialect: Dialect, budget: Budget, workers: usize) -> CampaignStats
where
    F: Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync,
{
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers, sync_every: 4 },
        ..CampaignSpec::new(dialect, budget)
    };
    run(&spec, &Telemetry::disabled(), factory).expect("campaign completes")
}

fn unique_stack_hashes(stats: &CampaignStats) -> bool {
    let mut hs: Vec<u64> = stats.bugs.iter().map(|b| b.crash.stack_hash()).collect();
    let n = hs.len();
    hs.sort_unstable();
    hs.dedup();
    hs.len() == n
}

#[test]
fn merged_coverage_is_sound() {
    let budget = Budget::units(60_000);
    let one = parallel(lego_factory(Dialect::Postgres, 7), Dialect::Postgres, budget, 1);
    let four = parallel(lego_factory(Dialect::Postgres, 7), Dialect::Postgres, budget, 4);
    // Splitting one budget across four shards trades per-shard depth for
    // seed diversity; the union must stay within a few percent of the
    // single deep run (the values are deterministic, the margin guards
    // against engine evolution).
    assert!(
        four.branches * 100 >= one.branches * 90,
        "4-worker merge lost too much coverage: {} vs {}",
        four.branches,
        one.branches
    );
    // At equal *wall-clock* — every worker gets the budget the single
    // worker had — parallelism must strictly add coverage.
    let wall = Budget { units: budget.units * 4, snapshots: budget.snapshots };
    let four_wall = parallel(lego_factory(Dialect::Postgres, 7), Dialect::Postgres, wall, 4);
    assert!(
        four_wall.branches >= one.branches,
        "equal-wall-clock parallel run lost coverage: {} < {}",
        four_wall.branches,
        one.branches
    );
    // The merged curve is monotone like the serial one.
    for w in four.coverage_curve.windows(2) {
        assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1, "non-monotone curve: {w:?}");
    }
    assert_eq!(four.coverage_curve.len(), budget.snapshots + 1);
    // The last curve point accounts for the whole campaign: nothing any
    // worker observed is dropped by the merge.
    let last = *four.coverage_curve.last().unwrap();
    assert_eq!(last, (four.units, four.branches));
}

#[test]
fn bugs_are_deduplicated_across_workers() {
    let budget = Budget::units(40_000);
    let stats = parallel(lego_factory(Dialect::MariaDb, 1), Dialect::MariaDb, budget, 4);
    assert!(unique_stack_hashes(&stats), "duplicate bug report crossed the worker join");
}

/// Crash-free engine that always replays the same two-statement case, so
/// every execution costs exactly the same number of budget units.
struct FixedCase(std::sync::Arc<lego_sqlast::TestCase>);

impl FixedCase {
    fn new() -> Self {
        Self(std::sync::Arc::new(lego_sqlparser::parse_script("SELECT 1;\nSELECT 2;").unwrap()))
    }
}

impl FuzzEngine for FixedCase {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn next_case(&mut self) -> std::sync::Arc<lego_sqlast::TestCase> {
        std::sync::Arc::clone(&self.0)
    }
    fn feedback(
        &mut self,
        _case: &std::sync::Arc<lego_sqlast::TestCase>,
        _report: &lego_dbms::ExecReport,
        _new: bool,
    ) {
    }
    fn corpus(&self) -> Vec<std::sync::Arc<lego_sqlast::TestCase>> {
        vec![std::sync::Arc::clone(&self.0)]
    }
}

#[test]
fn budget_overshoot_is_at_most_one_case_per_worker() {
    // Fixed-cost, crash-free cases make the overshoot exactly measurable:
    // each worker may only exceed its slice by its final in-flight case.
    let budget = Budget::units(10_001);
    let per_case = {
        // Measure the actual unit cost of one case via a tiny serial run.
        let mut probe = FixedCase::new();
        let one = run_campaign(&mut probe, Dialect::Postgres, Budget::units(1));
        one.units
    };
    let factory = |_worker: usize| -> Box<dyn FuzzEngine + Send> { Box::new(FixedCase::new()) };
    let stats = parallel(factory, Dialect::Postgres, budget, 4);
    assert!(stats.units >= budget.units, "budget underrun: {}", stats.units);
    assert!(
        stats.units < budget.units + 4 * per_case,
        "overshoot beyond one case per worker: {} (per-case cost {per_case})",
        stats.units
    );
}
