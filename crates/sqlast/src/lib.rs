#![forbid(unsafe_code)]

//! SQL abstract syntax for the LEGO reproduction.
//!
//! The paper's central abstraction is the *SQL Type Sequence*: the sequence of
//! statement *types* (e.g. `CREATE TABLE → INSERT → SELECT`) of a test case.
//! This crate provides:
//!
//! * [`StmtKind`] — the statement-type inventory (DDL verb × object kind plus
//!   standalone kinds), with [`StmtCategory`] classification,
//! * [`Dialect`] — the four evaluated DBMS profiles with statement-type
//!   inventories sized like the paper's Table IV (188/158/160/24),
//! * the AST itself ([`Statement`], [`Query`], [`Expr`], …) with SQL
//!   rendering via `Display`,
//! * structural utilities used by the fuzzer's instantiator
//!   ([`skeleton`]): identifier rebinding and literal refilling.

pub mod ast;
pub mod dialect;
pub mod expr;
pub mod kind;
pub mod rewrite;
pub mod skeleton;
pub mod visit;

pub use ast::*;
pub use dialect::Dialect;
pub use expr::*;
pub use kind::{DdlVerb, ObjectKind, StmtCategory, StmtKind};

use std::sync::Arc;

// Every literal, column reference and predicate is an `Expr`, and every
// statement of the pool, the AST library and each mutant holds many, so the
// widest variant sets what all of them cost. A rare wide variant (a window
// call, say) must be boxed.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Expr>() <= 56);
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Statement>() <= 112);

/// Commonly used items.
pub mod prelude {
    pub use crate::ast::{Query, Statement};
    pub use crate::dialect::Dialect;
    pub use crate::expr::Expr;
    pub use crate::kind::{StmtCategory, StmtKind};
}

/// A parsed test case: an ordered sequence of SQL statements.
///
/// The paper (Fig. 1): "a test case is an input for a DBMS, and it always
/// consists of a sequence of SQL statements."
///
/// Statements are shared: a mutant keeps its seed's statements as `Arc`s,
/// and whatever rewrites one copies it first (`Arc::make_mut`). Cloning a
/// case therefore copies no statement. Equality and `Debug` look through
/// the `Arc`s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TestCase {
    pub statements: Vec<Arc<Statement>>,
}

impl TestCase {
    pub fn new(statements: Vec<Statement>) -> Self {
        Self::shared(statements.into_iter().map(Arc::new).collect())
    }

    /// A case of statements that other cases may hold too.
    pub fn shared(statements: Vec<Arc<Statement>>) -> Self {
        Self { statements }
    }

    /// The SQL Type Sequence of this test case (paper § II, Definition).
    pub fn type_sequence(&self) -> Vec<StmtKind> {
        self.statements.iter().map(|s| s.kind()).collect()
    }

    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Render back to executable SQL text, one statement per line.
    pub fn to_sql(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.statements {
            let _ = writeln!(out, "{};", s);
        }
        out
    }
}

impl std::fmt::Display for TestCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_sql())
    }
}
