#![forbid(unsafe_code)]

//! Static semantic analysis for `sqlast` statement sequences.
//!
//! LEGO's campaigns spend real execution budget discovering that a test case
//! was never going to run: a `SELECT` from a table the sequence dropped two
//! statements ago, a `COMMIT` with no transaction open, a dialect that does
//! not even parse the statement kind. This crate answers those questions
//! *before* execution:
//!
//! * [`Sema::check_sequence`] walks a sequence through the tri-state
//!   [`binder::Binder`] and classifies every statement as
//!   [`Verdict::Accept`] (provably succeeds), [`Verdict::Reject`] (provably
//!   errors), or [`Verdict::Unknown`]. A sequence with any `Reject` is
//!   *statically invalid* — the campaign can skip executing it.
//! * [`deps::DepGraph`] gives the def-use dependency structure mutation
//!   needs to splice and reorder without manufacturing dangling references.
//! * The verdicts double as one half of a conformance oracle: the analyzer
//!   and the engine are two implementations of the same semantics, and a
//!   disagreement on a cleanly-executed case (`Accept` yet the engine
//!   errored, `Reject` yet it succeeded) is a bug in one of them.
//!
//! Soundness is directional and deliberate: `Accept`/`Reject` are only
//! claimed when provable against the abstract state, so `Unknown` absorbs
//! everything triggers, rules, privileges, or fogged catalogs make
//! uncertain. The crate's tests pin the claim against the real engine.

pub mod binder;
pub mod deps;
pub mod types;

pub use binder::{Binder, Presence, Tri};
pub use deps::{plausible_sequence, DepGraph, Sym, SymNs};

use lego_dbms::faults::Faults;
use lego_dbms::Profile;
use lego_sqlast::{Dialect, Statement};
use std::borrow::Borrow;

/// The analyzer's classification of a single statement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Provably succeeds: every engine path from every state consistent
    /// with the analysis ends in `Ok`.
    Accept,
    /// Not provable either way.
    Unknown,
    /// Provably errors: every such path ends in a semantic error.
    Reject,
}

/// Verdict plus a static reason (only for rejects).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StmtVerdict {
    pub verdict: Verdict,
    pub reason: Option<&'static str>,
}

/// Per-statement verdicts for one sequence.
#[derive(Clone, Debug, Default)]
pub struct SeqReport {
    pub verdicts: Vec<StmtVerdict>,
}

impl SeqReport {
    /// Does the sequence contain a provably-failing statement?
    pub fn statically_invalid(&self) -> bool {
        self.first_reject().is_some()
    }

    /// Index and reason of the first `Reject`, if any.
    pub fn first_reject(&self) -> Option<(usize, &'static str)> {
        self.verdicts.iter().enumerate().find_map(|(i, v)| {
            (v.verdict == Verdict::Reject).then(|| (i, v.reason.unwrap_or("rejected")))
        })
    }

    /// Number of `Reject` verdicts.
    pub fn rejects(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict == Verdict::Reject).count()
    }

    /// Number of `Accept` verdicts.
    pub fn accepts(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict == Verdict::Accept).count()
    }
}

/// The analyzer entry point: one per dialect, reusable across sequences.
#[derive(Clone, Debug)]
pub struct Sema {
    prof: Profile,
    /// Planted analyzer bug (test-only), handed to every binder.
    overaccept_commit: bool,
}

impl Sema {
    pub fn new(dialect: Dialect) -> Sema {
        Sema { prof: Profile::for_dialect(dialect), overaccept_commit: false }
    }

    /// Plant the analyzer fault of `faults`
    /// ([`Faults::overaccept_commit`], test-only) in every later binder.
    pub fn set_faults(&mut self, faults: Faults) {
        self.overaccept_commit = faults.overaccept_commit;
    }

    pub fn profile(&self) -> &Profile {
        &self.prof
    }

    /// A fresh binder positioned at the start of a sequence (the per-case
    /// engine state: pristine catalog, admin user, no transaction).
    pub fn binder(&self) -> Binder {
        let mut b = Binder::new(self.prof);
        b.overaccept_commit = self.overaccept_commit;
        b
    }

    /// Classify every statement of `stmts`, threading the abstract state
    /// through the whole sequence.
    pub fn check_sequence<S: Borrow<Statement>>(&self, stmts: &[S]) -> SeqReport {
        let mut b = self.binder();
        SeqReport { verdicts: stmts.iter().map(|s| b.step(s.borrow())).collect() }
    }
}
