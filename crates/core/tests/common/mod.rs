//! The engines the campaign tests share: the replay engine the finding tests
//! drive campaigns with, and a wrapper that interrupts a checkpointed
//! campaign. Each test binary compiles its own copy of this module and uses
//! only part of it.
#![allow(dead_code)]

use lego::campaign::FuzzEngine;
use lego::observe::Telemetry;
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

/// Wraps an engine and panics in `next_case` once it has taken its first
/// checkpoint: outside the per-case isolation boundary, so the worker stops
/// right after writing checkpoint 1, as if its process had been killed.
pub struct StopsAfterCheckpoint {
    inner: Box<dyn FuzzEngine + Send>,
    checkpointed: bool,
}

impl StopsAfterCheckpoint {
    pub fn new(inner: Box<dyn FuzzEngine + Send>) -> Self {
        Self { inner, checkpointed: false }
    }
}

impl FuzzEngine for StopsAfterCheckpoint {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        assert!(!self.checkpointed, "worker stopped after checkpoint 1");
        self.inner.next_case()
    }
    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new: bool) {
        self.inner.feedback(case, report, new);
    }
    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        self.inner.rule_feedback(case, new_rule_edges);
    }
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.inner.attach_telemetry(tel);
    }
    fn checkpoint(&mut self) -> Option<String> {
        self.checkpointed = true;
        self.inner.checkpoint()
    }
    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        self.inner.restore(snapshot)
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
