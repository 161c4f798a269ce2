//! Untraced benchmark run: set-up samples, then the workload's campaigns
//! back to back, each checked; prints the end-to-end metrics. Timings are
//! in reference-host seconds (see `perfbench::calib`).
//!
//! `perfbench --workload NAME --seed N --seconds S --work-dir DIR`

use perfbench::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse()?;
    let w = &args.workload;
    let seeds = args.campaign_seeds();
    let wal = &args.work_dir;
    let kernels = Kernels::new(w.workers);
    let setup = kernels.with_first(|k| setup_samples(w, seeds[0], wal, k))??;
    println!("set-up: median {:.3e} reference s over {} samples", median(&setup), setup.len());

    let (mut execs, mut failed, mut branches, mut affinities, mut ref_s) = (0, 0, 0, 0, 0.0);
    let mut errors = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let (stats, secs, wall) = kernels.campaign(w, seed, wal)?;
        println!(
            "campaign {i} seed {seed}: {} execs, {} units, {} branches, {} affinities, {} bugs in {secs:.3} reference s ({wall:.3} s wall)",
            stats.execs,
            stats.units,
            stats.branches,
            stats.corpus_affinities,
            bug_count(&stats)
        );
        errors.extend(
            check_campaign(w, &stats, wal)
                .into_iter()
                .map(|e| format!("campaign {i} (seed {seed}): {e}")),
        );
        execs += stats.execs;
        failed += failed_cases(&stats);
        branches += stats.branches;
        affinities += stats.corpus_affinities;
        ref_s += secs;
    }
    if !errors.is_empty() {
        return Err(format!("output checks failed:\n{}", errors.join("\n")));
    }
    let metrics = [
        Metric { name: "setup_s", value: median(&setup), unit: "s" },
        Metric { name: "execs_per_s", value: execs as f64 / ref_s, unit: "cases/s" },
        Metric { name: "branches_per_s", value: branches as f64 / ref_s, unit: "edges/s" },
        Metric { name: "branches", value: branches as f64, unit: "edges" },
        Metric { name: "affinities", value: affinities as f64, unit: "pairs" },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()? - calib::KERNEL_MIB * w.workers as f64,
            unit: "MiB",
        },
    ];
    Ok(result_line(execs, failed, &metrics))
}
