//! Per-case execution budgets.
//!
//! Real AFL harnesses kill a target that exceeds a wall-clock timeout; the
//! paper's SQUIRREL anecdote (§ II-C3) is a 945-statement seed that hung the
//! harness for 23 minutes. Wall-clock guards are nondeterministic, so we
//! bound the three quantities that actually make a case expensive —
//! statements executed, rows materialized, and expression recursion depth —
//! and surface a trip as [`Outcome::Aborted`](crate::Outcome::Aborted). The
//! limits are deterministic functions of the case, so two runs at the same
//! seed abort the same cases at the same points.

use serde::Serialize;

/// Why a case was aborted mid-execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum AbortReason {
    /// The case executed more statements than [`Limits::max_statements`]
    /// (trigger/rule cascades count toward the same budget).
    StatementBudget,
    /// The case materialized more rows than [`Limits::max_rows`] across all
    /// scans, joins, sorts, and writes.
    RowBudget,
    /// Expression evaluation recursed deeper than [`Limits::max_eval_depth`].
    EvalDepth,
}

impl AbortReason {
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::StatementBudget => "statement_budget",
            AbortReason::RowBudget => "row_budget",
            AbortReason::EvalDepth => "eval_depth",
        }
    }
}

/// Per-case execution budgets, applied to every [`ExecCtx`](crate::ctx::ExecCtx).
///
/// Defaults are far above anything the generators produce (the paper's
/// `LEN = 5` sequences and ≤1024-row tables stay orders of magnitude below
/// them), so they only fire on pathological cases — which must never be
/// retained in the corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Limits {
    /// Maximum statements executed per case, including trigger and rule
    /// cascades (paper anecdote: a 945-statement seed; default 2048).
    pub max_statements: usize,
    /// Maximum rows materialized per case across all operators
    /// (default 1 Mi rows — a cross join of two full 1024-row tables).
    pub max_rows: usize,
    /// Maximum expression-evaluation recursion depth (default 128).
    pub max_eval_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_statements: 2048, max_rows: 1 << 20, max_eval_depth: 128 }
    }
}

impl Limits {
    /// Effectively-unlimited budgets (unit tests that stress one dimension).
    pub fn unbounded() -> Self {
        Limits { max_statements: usize::MAX, max_rows: usize::MAX, max_eval_depth: usize::MAX }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_have_distinct_names() {
        let names = [AbortReason::StatementBudget, AbortReason::RowBudget, AbortReason::EvalDepth]
            .map(AbortReason::name);
        assert_eq!(names.len(), {
            let mut v = names.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        });
    }

    #[test]
    fn defaults_are_generous() {
        let l = Limits::default();
        assert!(l.max_statements >= 1024);
        assert!(l.max_rows >= 1 << 20);
        assert!(l.max_eval_depth >= 64);
        assert!(Limits::unbounded().max_rows > l.max_rows);
    }
}
