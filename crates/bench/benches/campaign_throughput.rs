//! Criterion benchmarks for the parallel-campaign tentpole:
//!
//! * `hot_path/*` — per-case engine cost with a fresh instance per case (the
//!   old behaviour) vs. the reset-and-recycle path the campaign loop uses.
//! * `grid/*` — a small Figure-9-style fuzzer×dialect grid at 1 vs. 4 grid
//!   workers.
//! * `sharded/*` — one campaign budget executed serially vs. sharded over 4
//!   in-campaign workers.
//! * `telemetry/*` — the same campaign with telemetry disabled vs. enabled
//!   with a `NoopSink`: the observability acceptance gate (overhead within
//!   noise).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lego::campaign::{Budget, CampaignSpec, ParallelOpts};
use lego::observe::{NoopSink, Telemetry};
use lego_baselines::engine_by_name;
use lego_bench::campaign;
use lego_bench::grid::run_grid;
use lego_dbms::Dbms;
use lego_sqlast::Dialect;
use std::sync::Arc;
use std::time::Duration;

const SCRIPT: &str = "CREATE TABLE t1 (v1 INT, v2 INT, v3 VARCHAR(100));\n\
    CREATE INDEX i1 ON t1 (v1);\n\
    INSERT INTO t1 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c');\n\
    UPDATE t1 SET v2 = v2 + 1 WHERE v1 > 1;\n\
    SELECT v3, COUNT(*) FROM t1 GROUP BY v3 HAVING COUNT(*) > 0;";

fn bench_hot_path(c: &mut Criterion) {
    let case = lego_sqlparser::parse_script(SCRIPT).unwrap();
    let mut group = c.benchmark_group("hot_path");
    group.bench_function("fresh_instance_per_case", |b| {
        b.iter(|| {
            let mut db = Dbms::new(Dialect::Postgres);
            db.execute_case(black_box(&case))
        })
    });
    group.bench_function("reset_and_recycle", |b| {
        let mut db = Dbms::new(Dialect::Postgres);
        b.iter(|| {
            db.reset();
            let report = db.execute_case(black_box(&case));
            let n = report.statements_executed;
            db.recycle(report.coverage);
            n
        })
    });
    group.finish();
}

fn fig9_like_grid(workers: usize) -> usize {
    let pairs: Vec<(Dialect, &str)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| ["LEGO", "SQUIRREL"].into_iter().map(move |f| (d, f)))
        .collect();
    let jobs: Vec<_> = pairs
        .iter()
        .map(|&(d, f)| {
            move || {
                let mut engine = engine_by_name(f, d, 9);
                lego::campaign::run_campaign(engine.as_mut(), d, Budget::units(8_000)).branches
            }
        })
        .collect();
    run_grid(jobs, workers).into_iter().sum()
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("fig9_8cells_workers1", |b| b.iter(|| fig9_like_grid(1)));
    group.bench_function("fig9_8cells_workers4", |b| b.iter(|| fig9_like_grid(4)));
    group.finish();
}

fn sharded_campaign(workers: usize) -> usize {
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers, sync_every: 16 },
        ..CampaignSpec::new(Dialect::MariaDb, Budget::units(40_000))
    };
    campaign("LEGO", &spec, 9, &Telemetry::disabled()).branches
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("campaign_40k_workers1", |b| b.iter(|| sharded_campaign(1)));
    group.bench_function("campaign_40k_workers4", |b| b.iter(|| sharded_campaign(4)));
    group.finish();
}

fn observed_campaign(tel: &Telemetry) -> usize {
    campaign("LEGO", &CampaignSpec::new(Dialect::MariaDb, Budget::units(20_000)), 9, tel).branches
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("campaign_20k_disabled", |b| {
        let tel = Telemetry::disabled();
        b.iter(|| observed_campaign(&tel))
    });
    group.bench_function("campaign_20k_noop_sink", |b| {
        let tel = Telemetry::builder().sink(Arc::new(NoopSink)).build();
        b.iter(|| observed_campaign(&tel))
    });
    group.finish();
}

/// Short sampling windows, as in `microbench.rs`.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = campaign_throughput;
    config = quick();
    targets = bench_hot_path, bench_grid, bench_sharded, bench_telemetry_overhead
}
criterion_main!(campaign_throughput);
