//! Per-script execution context: coverage recorder, type trace, crash slot,
//! and the per-case execution budgets.

use crate::bugs::CrashReport;
use crate::limits::{AbortReason, Limits};
use lego_coverage::{CovRecorder, SiteId};
use lego_sqlast::StmtKind;

/// Carried through one test-case execution. The edge chain is *not* reset
/// between statements: as in AFL++'s whole-process execution, edges spanning
/// statement boundaries exist, which is precisely what makes coverage
/// sensitive to SQL Type Sequences.
pub struct ExecCtx {
    pub cov: CovRecorder,
    /// Statement kinds executed so far (the observed SQL Type Sequence).
    pub trace: Vec<StmtKind>,
    /// Trigger/rule recursion depth guard.
    pub depth: usize,
    /// Set when the bug oracle fires; aborts the script.
    pub crash: Option<CrashReport>,
    /// Rows produced by the last query statement.
    pub last_row_count: usize,
    /// Per-case execution budgets (the deterministic stand-in for AFL's
    /// per-exec timeout).
    pub limits: Limits,
    /// Rows materialized so far, across all operators.
    pub rows_materialized: usize,
    /// Statements charged so far, including trigger/rule cascades.
    pub stmts_charged: usize,
    /// Current expression-evaluation recursion depth.
    pub eval_depth: usize,
    /// Set (sticky) when any budget trips; aborts the case.
    pub abort: Option<AbortReason>,
}

impl ExecCtx {
    pub fn new() -> Self {
        Self::from_recorder(CovRecorder::new())
    }

    /// Build a context around a recycled coverage map (allocation reuse on
    /// the per-case hot path).
    pub fn reusing(map: lego_coverage::CovMap) -> Self {
        Self::from_recorder(CovRecorder::from_recycled(map))
    }

    fn from_recorder(cov: CovRecorder) -> Self {
        Self {
            cov,
            trace: Vec::new(),
            depth: 0,
            crash: None,
            last_row_count: 0,
            limits: Limits::default(),
            rows_materialized: 0,
            stmts_charged: 0,
            eval_depth: 0,
            abort: None,
        }
    }

    /// Context for unit tests that only need coverage plumbing.
    pub fn new_detached() -> Self {
        Self::new()
    }

    #[inline]
    pub fn hit(&mut self, id: SiteId) {
        self.cov.hit(id);
    }

    /// Hit a site derived from a base site and a dynamic index (e.g. one
    /// per statement kind at a dispatch point).
    #[inline]
    pub fn hit_idx(&mut self, id: SiteId, idx: u64) {
        self.cov.hit(id.with_index(idx));
    }

    pub fn crashed(&self) -> bool {
        self.crash.is_some()
    }

    /// Record a budget trip. The first reason sticks; the returned error
    /// unwinds the current statement quickly (it reads as a semantic error
    /// to intermediate layers, but [`execute_case`](crate::Dbms::execute_case)
    /// checks `abort` and surfaces [`Outcome::Aborted`](crate::Outcome)).
    pub fn trip(&mut self, reason: AbortReason) -> String {
        self.abort.get_or_insert(reason);
        format!("case aborted: {} limit exceeded", reason.name())
    }

    /// Charge one executed statement (top-level or cascaded) against the
    /// per-case statement budget.
    #[inline]
    pub fn charge_statement(&mut self) -> Result<(), String> {
        self.stmts_charged += 1;
        if self.stmts_charged > self.limits.max_statements {
            return Err(self.trip(AbortReason::StatementBudget));
        }
        Ok(())
    }

    /// Charge `n` materialized rows against the per-case row budget.
    #[inline]
    pub fn charge_rows(&mut self, n: usize) -> Result<(), String> {
        self.rows_materialized = self.rows_materialized.saturating_add(n);
        if self.rows_materialized > self.limits.max_rows {
            return Err(self.trip(AbortReason::RowBudget));
        }
        Ok(())
    }

    /// Enter one level of expression evaluation; trips the depth budget.
    #[inline]
    pub fn enter_eval(&mut self) -> Result<(), String> {
        self.eval_depth += 1;
        if self.eval_depth > self.limits.max_eval_depth {
            return Err(self.trip(AbortReason::EvalDepth));
        }
        Ok(())
    }

    #[inline]
    pub fn exit_eval(&mut self) {
        self.eval_depth -= 1;
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_coverage::site_id;

    #[test]
    fn hits_accumulate_across_statements() {
        let mut ctx = ExecCtx::new();
        ctx.hit(site_id!(0x836fef9c3575e780));
        ctx.hit(site_id!(0x85596f9c358fe757));
        assert!(ctx.cov.map().edge_count() >= 2);
    }

    #[test]
    fn row_budget_trips_and_sticks() {
        let mut ctx = ExecCtx::new();
        ctx.limits.max_rows = 10;
        assert!(ctx.charge_rows(10).is_ok());
        assert!(ctx.charge_rows(1).is_err());
        assert_eq!(ctx.abort, Some(AbortReason::RowBudget));
        // A later depth trip must not overwrite the first reason.
        ctx.limits.max_eval_depth = 0;
        assert!(ctx.enter_eval().is_err());
        assert_eq!(ctx.abort, Some(AbortReason::RowBudget));
    }

    #[test]
    fn eval_depth_is_balanced() {
        let mut ctx = ExecCtx::new();
        ctx.limits.max_eval_depth = 2;
        assert!(ctx.enter_eval().is_ok());
        assert!(ctx.enter_eval().is_ok());
        assert!(ctx.enter_eval().is_err());
        ctx.exit_eval();
        ctx.exit_eval();
        ctx.exit_eval();
        assert_eq!(ctx.eval_depth, 0);
    }

    #[test]
    fn hit_idx_distinguishes_indices() {
        let mut a = ExecCtx::new();
        let mut b = ExecCtx::new();
        let base = site_id!(0x7efc5f9c35398402);
        a.hit_idx(base, 1);
        b.hit_idx(base, 2);
        assert_ne!(a.cov.map().digest(), b.cov.map().digest());
    }
}
