//! Test corpus shared by the reference-equivalence tests: the cases a LEGO
//! campaign generates, which hold what the generation layer meets in a run
//! (repaired mutants, synthesized sequences, ALTER TABLE on every column
//! action, names made duplicate by the validator's rebinding).

use crate::campaign::{run_campaign, Budget, FuzzEngine};
use lego_sqlast::{Dialect, TestCase};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Cases per dialect.
pub const GENERATED_CASES: usize = 3000;

/// Hands out the wrapped engine's cases and keeps a copy of each.
struct Recording {
    inner: crate::LegoFuzzer,
    cases: Vec<Arc<TestCase>>,
}

impl FuzzEngine for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        let case = self.inner.next_case();
        self.cases.push(Arc::clone(&case));
        case
    }
    fn feedback(
        &mut self,
        case: &Arc<TestCase>,
        report: &lego_dbms::ExecReport,
        new_coverage: bool,
    ) {
        self.inner.feedback(case, report, new_coverage)
    }
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
}

/// The first [`GENERATED_CASES`] cases of a default LEGO campaign on
/// `dialect` (seed 0x1e60), generated once per test process.
pub fn generated_cases(dialect: Dialect) -> &'static [Arc<TestCase>] {
    static CASES: [OnceLock<Vec<Arc<TestCase>>>; 4] = [const { OnceLock::new() }; 4];
    let slot = Dialect::ALL.iter().position(|&d| d == dialect).expect("a known dialect");
    CASES[slot].get_or_init(|| {
        let cfg = crate::Config { rng_seed: 0x1e60, ..crate::Config::default() };
        let mut engine = Recording { inner: crate::LegoFuzzer::new(dialect, cfg), cases: vec![] };
        run_campaign(&mut engine, dialect, Budget::execs(GENERATED_CASES));
        assert!(engine.cases.len() >= GENERATED_CASES, "{dialect:?}: {} cases", engine.cases.len());
        engine.cases
    })
}

/// An FNV-64 digest fed through `write!`, for the pin fixtures.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        Ok(())
    }
}

/// Compare `lines` (`<key> <digest>` each) with the lines of the same keys
/// in `tests/fixtures/<fixture>`, and panic with every actual line, under
/// `what`, when one differs or is missing.
pub fn check_pinned(fixture: &str, what: &str, lines: &[String]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let text = std::fs::read_to_string(&path).expect("fixture file");
    let want: HashMap<&str, &str> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    let bad = lines.iter().any(|l| {
        let (key, digest) = l.rsplit_once(' ').expect("a digest");
        want.get(key) != Some(&digest)
    });
    if bad {
        panic!("{what} differs from {fixture}; actual lines:\n{}", lines.join("\n"));
    }
}
