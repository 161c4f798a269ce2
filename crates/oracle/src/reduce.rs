//! Generalized reproducer reduction.
//!
//! The same two-phase shrink the crash triage pipeline uses — statement-level
//! delta debugging, then literal canonicalization — parameterized over an
//! arbitrary "still fails" predicate so it serves both bug classes:
//!
//! * crashes: "still produces the same stack hash" (`lego::reduce`),
//! * logic bugs: "still trips an oracle with the same fingerprint"
//!   ([`reduce_logic_bug`]).

use crate::{LogicBug, OracleSuite};
use lego_sqlast::expr::Expr;
use lego_sqlast::skeleton::{inspect, rebind};
use lego_sqlast::TestCase;
use std::sync::Arc;

/// Shrink a failing test case while `still_fails` holds. Returns the reduced
/// case and the number of candidate evaluations spent (the campaign charges
/// these to its statement budget like crash-triage executions).
///
/// The caller guarantees `still_fails(case)` is true on entry; the predicate
/// must be deterministic for the reduction (and the campaign replaying it)
/// to be reproducible.
pub fn reduce_with(
    case: &TestCase,
    mut still_fails: impl FnMut(&TestCase) -> bool,
) -> (TestCase, usize) {
    let mut evals = 0usize;
    let mut current = case.clone();

    // Phase 1: statement-level ddmin — try dropping halves, then quarters,
    // … then single statements, iterating to a fixed point.
    let mut chunk = (current.len() / 2).max(1);
    while chunk >= 1 {
        let mut progress = false;
        let mut start = 0;
        while start < current.len() && current.len() > 1 {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.statements.drain(start..end);
            if candidate.is_empty() {
                start = end;
                continue;
            }
            evals += 1;
            if still_fails(&candidate) {
                current = candidate;
                progress = true;
                // Retry the same offset: the next chunk shifted into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progress {
            break;
        }
        if !progress {
            chunk /= 2;
        }
    }

    // Phase 2: literal simplification — canonicalize literals one statement
    // at a time, keeping changes that preserve the failure. A candidate
    // shares every statement but the one it simplifies.
    for i in 0..current.len() {
        let mut changed = false;
        inspect(&current.statements[i], |_t| {}, |_c| {}, |l| changed |= simplified(l).is_some());
        if changed {
            let mut candidate = current.clone();
            rebind(
                Arc::make_mut(&mut candidate.statements[i]),
                |_t| {},
                |_c| {},
                |l| {
                    if let Some(sv) = simplified(l) {
                        *l = sv;
                    }
                },
            );
            evals += 1;
            if still_fails(&candidate) {
                current = candidate;
            }
        }
    }

    (current, evals)
}

/// Phase 2's canonical form of a literal, or `None` when it already is one.
fn simplified(l: &Expr) -> Option<Expr> {
    match l {
        Expr::Integer(v) if *v != 0 && *v != 1 => Some(Expr::Integer(1)),
        Expr::Float(_) => Some(Expr::Integer(1)),
        Expr::Str(s) if !s.is_empty() && s != "x" => Some(Expr::Str("x".into())),
        _ => None,
    }
}

/// Shrink a logic-bug reproducer: a candidate survives iff the oracle suite
/// still reports a bug with the same fingerprint (fingerprints canonicalize
/// literals, so phase 2 cannot change a bug's identity).
pub fn reduce_logic_bug(
    case: &TestCase,
    suite: &mut OracleSuite,
    bug: &LogicBug,
) -> (TestCase, usize) {
    let want = bug.fingerprint();
    reduce_with(case, |candidate| suite.bug_persists(candidate, want))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_with_drops_irrelevant_statements() {
        let case = lego_sqlparser::parse_script(
            "CREATE TABLE a (x INT);\n\
             CREATE TABLE b (y INT);\n\
             INSERT INTO a VALUES (123456);\n\
             INSERT INTO b VALUES (2);\n\
             SELECT * FROM b;",
        )
        .unwrap();
        // Synthetic predicate: "fails" while the case still mentions table b.
        let (reduced, evals) = reduce_with(&case, |c| c.to_sql().contains('b'));
        assert!(evals > 0);
        assert!(reduced.len() < case.len(), "{}", reduced.to_sql());
        assert!(reduced.to_sql().contains('b'));
        assert!(!reduced.to_sql().contains("123456"), "{}", reduced.to_sql());
    }

    #[test]
    fn reduce_with_is_identity_when_nothing_can_be_dropped() {
        let case = lego_sqlparser::parse_script("SELECT 1;").unwrap();
        let (reduced, _) = reduce_with(&case, |_| true);
        assert_eq!(reduced.len(), 1);
    }
}
