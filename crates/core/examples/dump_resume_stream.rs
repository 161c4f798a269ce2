//! Restore the fixture engine snapshot and print the next 20 scheduled cases,
//! one per line, for `tests/checkpoint_format.rs`. Run from the repository
//! root after regenerating the snapshot:
//!
//! ```text
//! cargo run -q -p lego --example dump_resume_stream > crates/core/tests/fixtures/resume_stream.txt
//! ```

use lego::campaign::FuzzEngine;
use lego::fuzzer::{Config, LegoFuzzer};
use lego_sqlast::Dialect;

fn main() {
    let snap = std::fs::read_to_string("crates/core/tests/fixtures/engine_snapshot.json")
        .expect("fixture");
    let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
    fz.restore(&snap).expect("restore");
    let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
    let mut global = lego_coverage::GlobalCoverage::new();
    for _ in 0..20 {
        let case = fz.next_case();
        db.reset();
        let report = db.execute_case(&case);
        let new_coverage = global.merge(&report.coverage);
        fz.feedback(&case, &report, new_coverage);
        println!("{}", case.to_sql().replace('\n', " "));
    }
}
