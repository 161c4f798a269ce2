//! The replay engine the finding tests drive campaigns with. Each test
//! binary compiles its own copy of this module and uses only part of it.
#![allow(dead_code)]

use lego::campaign::FuzzEngine;
use lego_dbms::ExecReport;
use lego_sqlast::TestCase;
use std::sync::Arc;

/// Deterministic replay engine: cycles through a fixed case list, with no
/// RNG and no corpus of its own, so a campaign sees exactly the given cases,
/// repeatedly.
pub struct Replay {
    cases: Vec<Arc<TestCase>>,
    next: usize,
}

impl Replay {
    pub fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|s| Arc::new(lego_sqlparser::parse_script(s).expect("replay SQL parses")))
            .collect();
        Self { cases, next: 0 }
    }
}

impl FuzzEngine for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        let case = Arc::clone(&self.cases[self.next % self.cases.len()]);
        self.next += 1;
        case
    }
    fn feedback(&mut self, _case: &Arc<TestCase>, _report: &ExecReport, _new: bool) {}
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.cases.clone()
    }
}

/// Two literal variants of the same buggy query shape (same tables, columns
/// and operators), plus noise statements for the reducer to strip, so every
/// oracle finding on them has one fingerprint. The second case updates rows,
/// so it reaches engine branches the first did not (the UPDATE path) and is
/// therefore corpus-accepted and checked too.
pub const VARIANT_A: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
SELECT * FROM t WHERE a > 1;";

pub const VARIANT_B: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (5, 50), (6, 60), (7, 70);
UPDATE t SET b = 0 WHERE a = 5;
SELECT * FROM t WHERE a > 5;";
