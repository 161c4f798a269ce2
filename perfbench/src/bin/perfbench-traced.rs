//! Traced benchmark run: the workload's first campaign runs once untraced
//! as the reference and once traced; the traced campaign must reproduce the
//! reference byte for byte. Prints the per-layer metrics and writes every
//! span to `DIR/spans-<workload>.tsv`. One campaign keeps a traced run about
//! as long as an untraced one, although the replay doubles its work.
//!
//! `perfbench-traced --workload NAME --seed N --seconds S --work-dir DIR`

use perfbench::trace::{self, CountingAlloc};
use perfbench::*;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    let w = &args.workload;
    let seed = args.campaign_seeds()[0];
    let wal = &args.work_dir;
    let setup = trace::setup_split(w, seed, wal)?;

    let t0 = Instant::now();
    let reference = run_campaign(w, w.units, wal, |k| Box::new(engine(w, seed, k)))?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let (stats, mut totals, mut errors) = trace::traced_campaign(w, seed, wal, untraced_s)?;
    println!(
        "campaign 0 seed {seed}: {} execs, {} branches, {} affinities, {} bugs; untraced {untraced_s:.3} s",
        stats.execs,
        stats.branches,
        stats.corpus_affinities,
        bug_count(&stats)
    );
    if stats.deterministic_json() != reference.deterministic_json() {
        errors.push("traced campaign differs from the untraced one".into());
    }
    errors.extend(check_campaign(w, &stats, wal));
    if !errors.is_empty() {
        return Err(format!("output checks failed:\n{}", errors.join("\n")));
    }
    totals.write_spans(&trace::spans_path(&args.work_dir, w.name))?;
    let (attempted, failed) = totals.cases();
    Ok(result_line(attempted, failed, &totals.metrics(setup)?))
}
