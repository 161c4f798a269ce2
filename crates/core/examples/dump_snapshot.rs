//! Dump a LEGO engine snapshot after a short driven burst (PostgreSQL,
//! default config), the fixture of `tests/checkpoint_format.rs`. Regenerate
//! it, then the resume stream (see `dump_resume_stream`), whenever
//! `CHECKPOINT_VERSION` is bumped:
//!
//! ```text
//! cargo run -q -p lego --example dump_snapshot > crates/core/tests/fixtures/engine_snapshot.json
//! ```

use lego::campaign::FuzzEngine;
use lego::fuzzer::{Config, LegoFuzzer};
use lego_sqlast::Dialect;

fn main() {
    let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
    let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
    let mut global = lego_coverage::GlobalCoverage::new();
    for _ in 0..60 {
        let case = fz.next_case();
        db.reset();
        let report = db.execute_case(&case);
        let new_coverage = global.merge(&report.coverage);
        fz.feedback(&case, &report, new_coverage);
    }
    println!("{}", fz.checkpoint().expect("LEGO supports checkpointing"));
}
