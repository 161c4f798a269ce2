//! The bug-injection oracle.
//!
//! The paper's evaluation (Table I) reports 102 previously-unknown
//! memory-safety bugs across PostgreSQL (6), MySQL (21), MariaDB (42), and
//! Comdb2 (33), 22 of them CVEs. We plant one synthetic bug per Table I entry
//! with the same DBMS, component, bug type, and identifier. Each bug's
//! trigger is a *SQL Type Sequence pattern* — a contiguous subsequence of
//! statement types that must appear in the executed script — optionally plus
//! a structural predicate on the final statement and a database-state
//! predicate. This reproduces the paper's central detectability claim
//! mechanically: fuzzers that never change the type sequence of their seeds
//! cannot reach bugs whose trigger *is* a type sequence.

use crate::profile::Component;
use lego_sqlast::ast::{SetExpr, Statement, TableRef};
use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};
use lego_sqlast::visit;
use lego_sqlast::Dialect;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::cell::LazyCell;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Memory-safety bug classes from Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum BugType {
    /// Buffer overflow.
    Bof,
    /// Stack buffer overflow.
    Sbof,
    /// Heap buffer overflow.
    Hbof,
    /// Use-after-free.
    Uaf,
    /// Use-after-poison.
    Uap,
    /// Segmentation violation.
    Segv,
    /// Assertion failure.
    Af,
    /// Null-pointer dereference.
    Npd,
    /// Undefined behaviour.
    Ub,
}

impl BugType {
    pub fn name(self) -> &'static str {
        match self {
            BugType::Bof => "BOF",
            BugType::Sbof => "SBOF",
            BugType::Hbof => "HBOF",
            BugType::Uaf => "UAF",
            BugType::Uap => "UAP",
            BugType::Segv => "SEGV",
            BugType::Af => "AF",
            BugType::Npd => "NPD",
            BugType::Ub => "UB",
        }
    }

    /// Is this one of the classes the paper calls "very dangerous"?
    pub fn is_dangerous(self) -> bool {
        matches!(
            self,
            BugType::Bof
                | BugType::Sbof
                | BugType::Hbof
                | BugType::Uaf
                | BugType::Uap
                | BugType::Segv
        )
    }
}

/// Structural predicate on the final statement of a pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Structural {
    Any,
    WindowFunction,
    GroupBy,
    OrderBy,
    WhereClause,
    InsertIgnore,
    Distinct,
    Join,
    SetOperation,
}

impl Structural {
    pub fn check(self, stmt: &Statement) -> bool {
        match self {
            Structural::Any => true,
            Structural::WindowFunction => visit::has_window_function(stmt),
            Structural::GroupBy => visit::has_group_by(stmt),
            Structural::OrderBy => match stmt {
                Statement::Select(s) => !s.query.order_by.is_empty(),
                Statement::With(w) => {
                    matches!(&*w.body, Statement::Select(s) if !s.query.order_by.is_empty())
                }
                _ => false,
            },
            Structural::WhereClause => match stmt {
                Statement::Update(u) => u.where_.is_some(),
                Statement::Delete(d) => d.where_.is_some(),
                Statement::Select(s) => match &s.query.body {
                    SetExpr::Select(sel) => sel.where_.is_some(),
                    _ => false,
                },
                _ => false,
            },
            Structural::InsertIgnore => matches!(stmt, Statement::Insert(i) if i.ignore),
            Structural::Distinct => match stmt {
                Statement::Select(s) => match &s.query.body {
                    SetExpr::Select(sel) => sel.distinct,
                    _ => false,
                },
                _ => false,
            },
            Structural::Join => match stmt {
                Statement::Select(s) => match &s.query.body {
                    SetExpr::Select(sel) => {
                        sel.from.iter().any(|t| matches!(t, TableRef::Join { .. }))
                    }
                    _ => false,
                },
                _ => false,
            },
            Structural::SetOperation => match stmt {
                Statement::Select(s) => matches!(&s.query.body, SetExpr::SetOp { .. }),
                _ => false,
            },
        }
    }

    /// Structural predicates compatible with a final statement kind.
    fn candidates_for(kind: StmtKind) -> &'static [Structural] {
        use StandaloneKind as K;
        match kind {
            StmtKind::Other(K::Select | K::SelectV) => &[
                Structural::WindowFunction,
                Structural::GroupBy,
                Structural::OrderBy,
                Structural::WhereClause,
                Structural::Distinct,
                Structural::Join,
                Structural::SetOperation,
            ],
            StmtKind::Other(K::Insert) => &[Structural::InsertIgnore, Structural::Any],
            StmtKind::Other(K::Update | K::Delete) => &[Structural::WhereClause, Structural::Any],
            _ => &[Structural::Any],
        }
    }
}

/// Database-state predicate checked when the pattern completes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum StateReq {
    Any,
    TriggerExists,
    RuleExists,
    InTransaction,
    TableNonEmpty,
    IndexExists,
    ViewExists,
}

impl StateReq {
    pub fn check(self, st: &OracleState) -> bool {
        match self {
            StateReq::Any => true,
            StateReq::TriggerExists => st.any_trigger,
            StateReq::RuleExists => st.any_rule,
            StateReq::InTransaction => st.in_txn,
            StateReq::TableNonEmpty => st.any_nonempty_table,
            StateReq::IndexExists => st.any_index,
            StateReq::ViewExists => st.any_view,
        }
    }

    /// The statement kind that establishes this state (prepended to deep
    /// patterns so they are satisfiable from a fresh database).
    fn setup_kind(self) -> Option<StmtKind> {
        use StandaloneKind as K;
        match self {
            StateReq::Any => None,
            StateReq::TriggerExists => Some(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Trigger)),
            StateReq::RuleExists => Some(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Rule)),
            StateReq::InTransaction => Some(StmtKind::Other(K::Begin)),
            StateReq::TableNonEmpty => Some(StmtKind::Other(K::Insert)),
            StateReq::IndexExists => Some(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index)),
            StateReq::ViewExists => Some(StmtKind::Ddl(DdlVerb::Create, ObjectKind::View)),
        }
    }
}

/// A snapshot of the engine state relevant to state predicates.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleState {
    pub any_trigger: bool,
    pub any_rule: bool,
    pub in_txn: bool,
    pub any_nonempty_table: bool,
    pub any_index: bool,
    pub any_view: bool,
}

/// How hard a bug is to reach (drives Table I vs Table III dynamics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Depth {
    /// Pattern occurs in initial-seed type sequences; reachable by
    /// within-statement mutation alone (the 11 bugs SQUIRREL also finds).
    Shallow,
    /// Short pattern with a structural/state predicate.
    Mid,
    /// Long pattern (3–4 types), typically with a state predicate.
    Deep,
}

/// Bugs fired from dedicated engine code paths rather than pattern matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Special {
    /// The § V.B case study: a data-modifying CTE on a table with a
    /// `DO INSTEAD NOTIFY` rule crashes the planner
    /// (`replace_empty_jointree` on a NULL jointree).
    PgNotifyWithRewrite,
}

/// One planted bug.
#[derive(Clone, Debug)]
pub struct BugSpec {
    pub id: u32,
    pub dialect: Dialect,
    pub component: Component,
    pub bug_type: BugType,
    pub identifier: String,
    pub pattern: Vec<StmtKind>,
    pub structural: Structural,
    pub state: StateReq,
    pub depth: Depth,
    pub special: Option<Special>,
}

impl BugSpec {
    pub fn is_cve(&self) -> bool {
        self.identifier.starts_with("CVE-")
    }
}

/// A synthetic crash, deduplicatable by call stack like the paper does.
#[derive(Clone, Debug, Serialize)]
pub struct CrashReport {
    pub bug_id: u32,
    pub identifier: String,
    pub bug_type: BugType,
    pub component: Component,
    pub dialect: Dialect,
    pub stack: Vec<String>,
}

impl CrashReport {
    pub fn for_bug(spec: &BugSpec) -> Self {
        let mut stack: Vec<String> =
            spec.component.stack_frames().iter().map(|s| s.to_string()).collect();
        stack.push(format!("{}_site_{}", spec.bug_type.name().to_ascii_lowercase(), spec.id));
        CrashReport {
            bug_id: spec.id,
            identifier: spec.identifier.clone(),
            bug_type: spec.bug_type,
            component: spec.component,
            dialect: spec.dialect,
            stack,
        }
    }

    /// Stack-hash used for crash deduplication (paper: "we first got them
    /// from unique crashes by comparing the call stack").
    pub fn stack_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for frame in &self.stack {
            for b in frame.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Manifest (Table I)
// ---------------------------------------------------------------------------

struct Row {
    dialect: Dialect,
    component: Component,
    bugs: &'static [(BugType, u8)],
    identifiers: &'static [&'static str],
}

/// Literal transcription of Table I.
const TABLE_I: &[Row] = &[
    Row {
        dialect: Dialect::Postgres,
        component: Component::Optimizer,
        bugs: &[(BugType::Bof, 1), (BugType::Af, 1), (BugType::Segv, 2)],
        identifiers: &["BUG #110303", "BUG #17152", "BUG #17097", "BUG #17151"],
    },
    Row {
        dialect: Dialect::Postgres,
        component: Component::Parser,
        bugs: &[(BugType::Af, 1)],
        identifiers: &["BUG #17094"],
    },
    Row {
        dialect: Dialect::Postgres,
        component: Component::Dml,
        bugs: &[(BugType::Af, 1)],
        identifiers: &["BUG #17067"],
    },
    Row {
        dialect: Dialect::MySql,
        component: Component::Optimizer,
        bugs: &[
            (BugType::Bof, 3),
            (BugType::Sbof, 1),
            (BugType::Npd, 4),
            (BugType::Hbof, 1),
            (BugType::Uaf, 1),
            (BugType::Af, 2),
        ],
        identifiers: &[
            "CVE-2021-2357",
            "CVE-2021-2055",
            "CVE-2021-2230",
            "CVE-2021-2169",
            "CVE-2021-2444",
        ],
    },
    Row {
        dialect: Dialect::MySql,
        component: Component::Dml,
        bugs: &[(BugType::Sbof, 1), (BugType::Segv, 2)],
        identifiers: &["CVE-2021-35645"],
    },
    Row {
        dialect: Dialect::MySql,
        component: Component::Auth,
        bugs: &[(BugType::Sbof, 1), (BugType::Segv, 2)],
        identifiers: &["CVE-2021-35643"],
    },
    Row {
        dialect: Dialect::MySql,
        component: Component::Storage,
        bugs: &[(BugType::Segv, 1), (BugType::Af, 2)],
        identifiers: &["CVE-2021-35641"],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Optimizer,
        bugs: &[
            (BugType::Npd, 2),
            (BugType::Bof, 1),
            (BugType::Uap, 3),
            (BugType::Segv, 2),
            (BugType::Af, 1),
        ],
        identifiers: &[
            "CVE-2022-27376",
            "CVE-2022-27379",
            "CVE-2022-27380",
            "MDEV-26403",
            "MDEV-26432",
            "MDEV-26418",
            "MDEV-26416",
            "MDEV-26419",
            "MDEV-26430",
        ],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Dml,
        bugs: &[(BugType::Bof, 1), (BugType::Uap, 1), (BugType::Af, 1), (BugType::Segv, 1)],
        identifiers: &["CVE-2022-27377", "CVE-2022-27378", "MDEV-26120", "MDEV-25994"],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Parser,
        bugs: &[(BugType::Bof, 1), (BugType::Uaf, 2), (BugType::Segv, 1)],
        identifiers: &["CVE-2022-27383", "MDEV-26355", "MDEV-26313", "MDEV-26410"],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Storage,
        bugs: &[(BugType::Segv, 7), (BugType::Uap, 2), (BugType::Uaf, 2), (BugType::Bof, 2)],
        identifiers: &[
            "CVE-2022-27385",
            "CVE-2022-27386",
            "MDEV-26404",
            "MDEV-26408",
            "MDEV-26412",
            "MDEV-26421",
            "MDEV-26434",
            "MDEV-26436",
            "MDEV-26420",
            "MDEV-26431",
            "MDEV-26433",
        ],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Item,
        bugs: &[(BugType::Af, 4), (BugType::Segv, 3), (BugType::Uap, 2), (BugType::Uaf, 1)],
        identifiers: &[
            "MDEV-26405",
            "MDEV-26407",
            "MDEV-26411",
            "MDEV-26414",
            "MDEV-26438",
            "MDEV-26428",
            "MDEV-26417",
            "MDEV-26437",
            "MDEV-26427",
        ],
    },
    Row {
        dialect: Dialect::MariaDb,
        component: Component::Lock,
        bugs: &[(BugType::Segv, 2)],
        identifiers: &["MDEV-26425", "MDEV-26424"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Bdb,
        bugs: &[(BugType::Ub, 6)],
        identifiers: &["CVE-2020-26746"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Berkdb,
        bugs: &[(BugType::Bof, 1), (BugType::Ub, 7)],
        identifiers: &["CVE-2020-26745"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Csc2,
        bugs: &[(BugType::Bof, 1)],
        identifiers: &["CVE-2020-26744"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Db,
        bugs: &[(BugType::Ub, 4), (BugType::Uaf, 1), (BugType::Segv, 3)],
        identifiers: &["CVE-2020-26743"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Mem,
        bugs: &[(BugType::Bof, 1), (BugType::Hbof, 1), (BugType::Segv, 1)],
        identifiers: &["CVE-2020-26741", "CVE-2020-26742"],
    },
    Row {
        dialect: Dialect::Comdb2,
        component: Component::Sqlite,
        bugs: &[(BugType::Ub, 5), (BugType::Segv, 2)],
        identifiers: &[],
    },
];

/// Seed-corpus type pairs: shallow bugs use pairs that appear verbatim in
/// the built-in seeds with a structural predicate one within-statement
/// mutation away, so SQUIRREL-style mutation can reach them (and only them).
const SHALLOW_PATTERNS: &[(&[StmtKind], Structural)] = &[
    (
        &[StmtKind::Other(StandaloneKind::Insert), StmtKind::Other(StandaloneKind::Update)],
        Structural::WhereClause,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Insert), StmtKind::Other(StandaloneKind::Select)],
        Structural::GroupBy,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Insert), StmtKind::Other(StandaloneKind::Select)],
        Structural::Distinct,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Insert), StmtKind::Other(StandaloneKind::Select)],
        Structural::OrderBy,
    ),
    (
        &[
            StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index),
            StmtKind::Other(StandaloneKind::Insert),
        ],
        Structural::InsertIgnore,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Begin), StmtKind::Other(StandaloneKind::Insert)],
        Structural::InsertIgnore,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Commit), StmtKind::Other(StandaloneKind::Select)],
        Structural::OrderBy,
    ),
    (
        &[StmtKind::Other(StandaloneKind::Insert), StmtKind::Other(StandaloneKind::Select)],
        Structural::WindowFunction,
    ),
];

/// The universal setup vocabulary every template-based generator uses;
/// patterns drawn purely from it need an extra guard (see `pattern_ok`).
const TEMPLATE_KINDS: &[StmtKind] = &[
    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table),
    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index),
    StmtKind::Ddl(DdlVerb::Create, ObjectKind::View),
    StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table),
    StmtKind::Other(StandaloneKind::Insert),
    StmtKind::Other(StandaloneKind::Update),
    StmtKind::Other(StandaloneKind::Delete),
    StmtKind::Other(StandaloneKind::Analyze),
    StmtKind::Other(StandaloneKind::Vacuum),
    StmtKind::Other(StandaloneKind::Set),
    StmtKind::Other(StandaloneKind::Select),
];

/// Structural predicates that template-based generators never produce on
/// their probes (SQLancer emits plain WHERE point queries; setup inserts are
/// plain) but which structure mutation *can* produce.
const RARE_STRUCTURAL: &[Structural] = &[
    Structural::WindowFunction,
    Structural::SetOperation,
    Structural::Join,
    Structural::Distinct,
    Structural::GroupBy,
    Structural::InsertIgnore,
];

/// Type sequences of the built-in seed corpus (mirrored from
/// `lego::seeds`, asserted equal by an integration test): generated
/// mid/deep patterns must not be contiguous subsequences of any of these,
/// otherwise SQUIRREL-style mutation could find non-shallow bugs.
fn seed_sequences() -> Vec<Vec<StmtKind>> {
    use StandaloneKind as K;
    const CT: StmtKind = StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table);
    const CI: StmtKind = StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index);
    let o = |k: StandaloneKind| StmtKind::Other(k);
    vec![
        vec![CT, o(K::Insert), o(K::Insert), o(K::Select), o(K::Select)],
        vec![CT, CI, o(K::Insert), o(K::Insert), o(K::Select), o(K::Delete)],
        vec![CT, o(K::Begin), o(K::Insert), o(K::Update), o(K::Commit), o(K::Select)],
        vec![CT, o(K::Insert), o(K::Analyze), o(K::Explain), o(K::Vacuum)],
        vec![CT, o(K::Insert), o(K::Analyze), o(K::ShowTables), o(K::Select)],
        vec![CT, o(K::Insert), o(K::Analyze), o(K::SelectV)],
        vec![CT, o(K::Insert), o(K::Insert), o(K::Analyze), o(K::ShowTables), o(K::Select)],
    ]
}

/// Test-support accessor: the mirrored seed type sequences (checked against
/// the real seed corpus by an integration test).
pub fn seed_sequences_for_tests() -> Vec<Vec<StmtKind>> {
    seed_sequences()
}

fn is_subsequence_of_seeds(pattern: &[StmtKind]) -> bool {
    seed_sequences().iter().any(|seq| seq.windows(pattern.len()).any(|w| w == pattern))
}

/// Can the state predicate still hold after executing the pattern itself?
/// (A pattern containing COMMIT cannot require an open transaction at its
/// end; DROP TABLE cascades triggers/rules/indexes away; MySQL-family DDL
/// implicitly commits.)
fn state_consistent(pattern: &[StmtKind], state: StateReq, dialect: Dialect) -> bool {
    use lego_sqlast::kind::StmtCategory;
    use StandaloneKind as K;
    let has = |f: &dyn Fn(StmtKind) -> bool| pattern.iter().any(|&k| f(k));
    match state {
        StateReq::Any => true,
        StateReq::InTransaction => {
            let ends_txn = |k: StmtKind| {
                matches!(
                    k,
                    StmtKind::Other(
                        K::Commit | K::End | K::Rollback | K::Abort | K::PrepareTransaction
                    )
                )
            };
            let implicit_commit_ddl = |k: StmtKind| {
                matches!(dialect, Dialect::MySql | Dialect::MariaDb | Dialect::Comdb2)
                    && matches!(k.category(), StmtCategory::Ddl)
            };
            !has(&ends_txn) && !has(&implicit_commit_ddl)
        }
        StateReq::TriggerExists => !has(&|k| {
            matches!(k, StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table | ObjectKind::Trigger))
        }),
        StateReq::RuleExists => !has(&|k| {
            matches!(k, StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table | ObjectKind::Rule))
        }),
        StateReq::ViewExists => !has(&|k| {
            matches!(k, StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table | ObjectKind::View))
        }),
        StateReq::IndexExists => !has(&|k| {
            matches!(k, StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table | ObjectKind::Index))
        }),
        StateReq::TableNonEmpty => !has(&|k| {
            matches!(k, StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table))
                || matches!(k, StmtKind::Other(K::Truncate | K::Delete))
        }),
    }
}

/// Validity rules for generated (non-shallow) patterns.
fn pattern_ok(pattern: &[StmtKind], structural: Structural, state: StateReq) -> bool {
    // Same-kind adjacency is unreachable: Algorithm 2 never records (X, X)
    // affinities, so Algorithm 3 never synthesizes such sequences.
    if pattern.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    // Must not live inside the seed corpus (those slots belong to the
    // explicitly shallow bugs).
    if is_subsequence_of_seeds(pattern) {
        return false;
    }
    // Patterns drawn purely from the template vocabulary need a predicate
    // that template-based generators cannot satisfy.
    let all_template = pattern.iter().all(|k| TEMPLATE_KINDS.contains(k));
    if all_template {
        let protected_structural = RARE_STRUCTURAL.contains(&structural);
        let protected_state = matches!(
            state,
            StateReq::InTransaction
                | StateReq::TriggerExists
                | StateReq::RuleExists
                | StateReq::ViewExists
        );
        if !protected_structural && !protected_state {
            return false;
        }
    }
    true
}

fn shallow_count(d: Dialect) -> usize {
    // Table III: SQUIRREL found 3 MySQL and 8 MariaDB bugs.
    match d {
        Dialect::MySql => 3,
        Dialect::MariaDb => 8,
        _ => 0,
    }
}

/// A weighted pool of statement kinds for pattern generation: core relational
/// kinds dominate so patterns stay reachable, but the long tail appears too.
fn weighted_pool(d: Dialect) -> Vec<StmtKind> {
    use StandaloneKind as K;
    let supported = d.supported_kinds();
    let mut pool = Vec::new();
    for k in supported {
        let weight = match k {
            StmtKind::Other(
                K::Insert
                | K::Select
                | K::Update
                | K::Delete
                | K::Truncate
                | K::Begin
                | K::Commit
                | K::Rollback
                | K::Set
                | K::Analyze
                | K::Explain,
            ) => 4,
            StmtKind::Ddl(
                _,
                ObjectKind::Table | ObjectKind::View | ObjectKind::Index | ObjectKind::Trigger,
            ) => 5,
            StmtKind::Other(K::Grant | K::Revoke | K::With | K::Copy | K::Notify | K::Vacuum) => 3,
            StmtKind::Ddl(..) => 1,
            _ => 1,
        };
        for _ in 0..weight {
            pool.push(k);
        }
    }
    pool
}

fn gen_pattern(
    rng: &mut SmallRng,
    dialect: Dialect,
    pool: &[StmtKind],
    depth: Depth,
) -> (Vec<StmtKind>, Structural, StateReq) {
    match depth {
        Depth::Shallow => {
            let (p, s) = SHALLOW_PATTERNS[rng.gen_range(0..SHALLOW_PATTERNS.len())];
            (p.to_vec(), s, StateReq::Any)
        }
        Depth::Mid => {
            // Per-dialect length mix — calibrated so the budgeted-run bug
            // profile follows Table III (MariaDB richest, Comdb2 hardest
            // relative to its planted count).
            let p_len2 = match dialect {
                Dialect::Postgres => 0.9,
                Dialect::MySql => 0.7,
                Dialect::MariaDb => 0.8,
                Dialect::Comdb2 => 0.0,
            };
            let len = if rng.gen_bool(p_len2) { 2 } else { 3 };
            let mut pattern: Vec<StmtKind> =
                (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let last = *pattern.last().unwrap();
            let cands = Structural::candidates_for(last);
            let all_template = pattern.iter().all(|k| TEMPLATE_KINDS.contains(k));
            let structural = if len == 2 && (all_template || rng.gen_bool(0.4)) {
                // Length-2 patterns over the common template vocabulary need
                // an extra predicate so they aren't tripped by every trivial
                // script; pairs involving a rarer type are already guarded by
                // the type itself.
                let non_any: Vec<_> =
                    cands.iter().copied().filter(|s| *s != Structural::Any).collect();
                if non_any.is_empty() {
                    // Force length 3 instead.
                    pattern.insert(0, pool[rng.gen_range(0..pool.len())]);
                    Structural::Any
                } else {
                    non_any[rng.gen_range(0..non_any.len())]
                }
            } else {
                cands[rng.gen_range(0..cands.len())]
            };
            let state = if rng.gen_bool(0.15) { StateReq::TableNonEmpty } else { StateReq::Any };
            (pattern, structural, state)
        }
        Depth::Deep => {
            let p_short = match dialect {
                Dialect::Postgres => 0.95,
                Dialect::MySql => 0.7,
                Dialect::MariaDb => 0.8,
                Dialect::Comdb2 => 0.0,
            };
            let len = if rng.gen_bool(p_short) { 3 } else { 4 };
            let mut pattern: Vec<StmtKind> =
                (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let last = *pattern.last().unwrap();
            let cands = Structural::candidates_for(last);
            let structural = cands[rng.gen_range(0..cands.len())];
            let states: Vec<StateReq> = [
                StateReq::Any,
                StateReq::TableNonEmpty,
                StateReq::InTransaction,
                StateReq::IndexExists,
                StateReq::ViewExists,
                StateReq::TriggerExists,
            ]
            .into_iter()
            .filter(|s| s.setup_kind().is_none_or(|k| dialect.supports(k)))
            .collect();
            let state = states[rng.gen_range(0..states.len())];
            if let Some(setup) = state.setup_kind() {
                if !pattern.contains(&setup) {
                    pattern[0] = setup;
                }
            }
            (pattern, structural, state)
        }
    }
}

fn build_manifest() -> Vec<BugSpec> {
    let mut specs = Vec::with_capacity(102);
    let mut id: u32 = 0;
    // Pattern dedup must span every row of a dialect, otherwise two bugs
    // could share a trigger and one would shadow the other forever.
    let mut seen_by_dialect: std::collections::HashMap<
        Dialect,
        HashSet<(Vec<StmtKind>, Structural, StateReq)>,
    > = std::collections::HashMap::new();
    for row in TABLE_I {
        let pool = weighted_pool(row.dialect);
        let mut ident_iter = row.identifiers.iter();
        let seen = seen_by_dialect.entry(row.dialect).or_default();
        let mut per_dialect_index =
            specs.iter().filter(|s: &&BugSpec| s.dialect == row.dialect).count();
        for &(bug_type, count) in row.bugs {
            for _ in 0..count {
                id += 1;
                let identifier = ident_iter.next().map(|s| s.to_string()).unwrap_or_else(|| {
                    format!("{}-INT-{:03}", row.dialect.name().to_ascii_uppercase(), id)
                });
                let depth = if per_dialect_index < shallow_count(row.dialect) {
                    Depth::Shallow
                } else {
                    // Per-dialect Mid/Deep mix (see gen_pattern).
                    let deep = match row.dialect {
                        Dialect::MariaDb => per_dialect_index % 3 == 2,
                        Dialect::Comdb2 => per_dialect_index % 3 != 0,
                        _ => per_dialect_index % 2 == 1,
                    };
                    if deep {
                        Depth::Deep
                    } else {
                        Depth::Mid
                    }
                };
                per_dialect_index += 1;

                // Hand-written bugs matching the paper's narratives.
                if identifier == "BUG #17097" {
                    specs.push(BugSpec {
                        id,
                        dialect: row.dialect,
                        component: row.component,
                        bug_type,
                        identifier,
                        pattern: vec![],
                        structural: Structural::Any,
                        state: StateReq::RuleExists,
                        depth: Depth::Deep,
                        special: Some(Special::PgNotifyWithRewrite),
                    });
                    continue;
                }
                if identifier == "CVE-2021-35643" {
                    // Figure 3: … CREATE TRIGGER → SELECT with a window
                    // function crashes the server.
                    specs.push(BugSpec {
                        id,
                        dialect: row.dialect,
                        component: row.component,
                        bug_type,
                        identifier,
                        pattern: vec![
                            StmtKind::Ddl(DdlVerb::Create, ObjectKind::Trigger),
                            StmtKind::Other(StandaloneKind::Select),
                        ],
                        structural: Structural::WindowFunction,
                        state: StateReq::Any,
                        depth: Depth::Mid,
                        special: None,
                    });
                    continue;
                }

                let mut rng = SmallRng::seed_from_u64(0x1e60_0000 + id as u64 * 7919);
                let (pattern, structural, state) = loop {
                    let cand = gen_pattern(&mut rng, row.dialect, &pool, depth);
                    if depth != Depth::Shallow
                        && (!pattern_ok(&cand.0, cand.1, cand.2)
                            || !state_consistent(&cand.0, cand.2, row.dialect))
                    {
                        continue;
                    }
                    if seen.insert((cand.0.clone(), cand.1, cand.2)) {
                        break cand;
                    }
                };
                specs.push(BugSpec {
                    id,
                    dialect: row.dialect,
                    component: row.component,
                    bug_type,
                    identifier,
                    pattern,
                    structural,
                    state,
                    depth,
                    special: None,
                });
            }
        }
    }
    specs
}

/// The global bug manifest (102 entries).
pub fn manifest() -> &'static [BugSpec] {
    static M: OnceLock<Vec<BugSpec>> = OnceLock::new();
    M.get_or_init(build_manifest)
}

/// Bugs planted in one DBMS.
pub fn bugs_for(d: Dialect) -> Vec<&'static BugSpec> {
    manifest().iter().filter(|b| b.dialect == d).collect()
}

/// One dialect's planted bugs, with the pattern bugs grouped by the
/// statement kind their pattern ends in. A statement can only complete a
/// pattern that ends in its own kind, so [`BugOracle::check`] looks at one
/// group instead of every bug of the dialect.
struct DialectBugs {
    bugs: Vec<&'static BugSpec>,
    /// Indexed by [`StmtKind::code`]; each group keeps manifest order.
    by_last_kind: Vec<Vec<&'static BugSpec>>,
}

impl DialectBugs {
    fn new(bugs: Vec<&'static BugSpec>) -> Self {
        let mut by_last_kind = vec![Vec::new(); StmtKind::COUNT];
        for &bug in &bugs {
            if let (None, Some(last)) = (bug.special, bug.pattern.last()) {
                by_last_kind[last.code() as usize].push(bug);
            }
        }
        Self { bugs, by_last_kind }
    }

    /// Built once per process, next to [`manifest`], and shared by every
    /// engine instance of the dialect.
    fn get(d: Dialect) -> &'static Self {
        static ALL: OnceLock<Vec<DialectBugs>> = OnceLock::new();
        let all =
            ALL.get_or_init(|| Dialect::ALL.iter().map(|&d| Self::new(bugs_for(d))).collect());
        &all[Dialect::ALL.iter().position(|&x| x == d).expect("every dialect is in ALL")]
    }
}

/// The pattern-matching oracle, consulted after every executed statement.
pub struct BugOracle {
    bugs: &'static DialectBugs,
}

impl BugOracle {
    pub fn new(dialect: Dialect) -> Self {
        Self { bugs: DialectBugs::get(dialect) }
    }

    /// Check whether the just-executed statement completes any bug pattern.
    /// `state` is called only once a pattern and its structural predicate
    /// have matched, and at most once.
    pub fn check(
        &self,
        trace: &[StmtKind],
        stmt: &Statement,
        state: impl FnOnce() -> OracleState,
    ) -> Option<CrashReport> {
        let last = trace.last()?;
        let st = LazyCell::new(state);
        // Prefer the most specific (longest-pattern) matching bug so a
        // shorter pattern that is a suffix of a deeper one cannot shadow it;
        // among equally long ones the first in manifest order wins.
        let mut best: Option<&BugSpec> = None;
        for &bug in &self.bugs.by_last_kind[last.code() as usize] {
            if best.is_some_and(|b| bug.pattern.len() <= b.pattern.len())
                || !trace.ends_with(&bug.pattern)
            {
                continue;
            }
            if bug.structural.check(stmt) && bug.state.check(&st) {
                best = Some(bug);
            }
        }
        best.map(CrashReport::for_bug)
    }

    /// The special-cased bug with the given marker, if this DBMS has one.
    pub fn special(&self, marker: Special) -> Option<&'static BugSpec> {
        self.bugs.bugs.iter().copied().find(|b| b.special == Some(marker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_has_exactly_102_bugs() {
        assert_eq!(manifest().len(), 102);
    }

    #[test]
    fn per_dbms_counts_match_table_i() {
        assert_eq!(bugs_for(Dialect::Postgres).len(), 6);
        assert_eq!(bugs_for(Dialect::MySql).len(), 21);
        assert_eq!(bugs_for(Dialect::MariaDb).len(), 42);
        assert_eq!(bugs_for(Dialect::Comdb2).len(), 33);
    }

    #[test]
    fn exactly_22_cves() {
        assert_eq!(manifest().iter().filter(|b| b.is_cve()).count(), 22);
    }

    #[test]
    fn dangerous_bug_census_matches_paper() {
        // Paper: 61 dangerous (17 BOF incl. S/H variants, 7 UAF, 29 SEGV,
        // 8 UAP).
        let dangerous = manifest().iter().filter(|b| b.bug_type.is_dangerous()).count();
        assert_eq!(dangerous, 61);
        let uaf = manifest().iter().filter(|b| b.bug_type == BugType::Uaf).count();
        assert_eq!(uaf, 7);
        let segv = manifest().iter().filter(|b| b.bug_type == BugType::Segv).count();
        assert_eq!(segv, 29);
        let uap = manifest().iter().filter(|b| b.bug_type == BugType::Uap).count();
        assert_eq!(uap, 8);
    }

    #[test]
    fn shallow_counts_match_table_iii() {
        let shallow = |d| bugs_for(d).iter().filter(|b| b.depth == Depth::Shallow).count();
        assert_eq!(shallow(Dialect::Postgres), 0);
        assert_eq!(shallow(Dialect::MySql), 3);
        assert_eq!(shallow(Dialect::MariaDb), 8);
        assert_eq!(shallow(Dialect::Comdb2), 0);
    }

    #[test]
    fn patterns_use_only_supported_kinds() {
        for bug in manifest() {
            for k in &bug.pattern {
                assert!(
                    bug.dialect.supports(*k),
                    "bug {} pattern uses unsupported kind {k:?}",
                    bug.identifier
                );
            }
        }
    }

    #[test]
    fn manifest_is_deterministic() {
        let a = build_manifest();
        let b = build_manifest();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.identifier, y.identifier);
        }
    }

    #[test]
    fn case_study_bug_exists() {
        let oracle = BugOracle::new(Dialect::Postgres);
        let bug = oracle.special(Special::PgNotifyWithRewrite).expect("case-study bug");
        assert_eq!(bug.identifier, "BUG #17097");
        assert_eq!(bug.component, Component::Optimizer);
    }

    #[test]
    fn oracle_fires_on_suffix_match() {
        use lego_sqlparser::parse_statement;
        let oracle = BugOracle::new(Dialect::MySql);
        // CVE-2021-35643: CREATE TRIGGER then SELECT with window function.
        let trace = vec![
            StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table),
            StmtKind::Other(StandaloneKind::Insert),
            StmtKind::Ddl(DdlVerb::Create, ObjectKind::Trigger),
            StmtKind::Other(StandaloneKind::Select),
        ];
        let stmt = parse_statement("SELECT LEAD(v1) OVER (ORDER BY v1) AS x FROM v0;").unwrap();
        let crash = oracle.check(&trace, &stmt, OracleState::default);
        assert!(crash.is_some());
        assert_eq!(crash.unwrap().identifier, "CVE-2021-35643");
    }

    #[test]
    fn oracle_requires_the_full_pattern() {
        use lego_sqlparser::parse_statement;
        let oracle = BugOracle::new(Dialect::MySql);
        let trace = vec![StmtKind::Other(StandaloneKind::Select)];
        let stmt = parse_statement("SELECT LEAD(v1) OVER (ORDER BY v1) AS x FROM v0;").unwrap();
        assert!(oracle.check(&trace, &stmt, OracleState::default).is_none());
    }

    /// The linear scan `BugOracle::check` used before it indexed bugs by
    /// their pattern's last kind: every planted bug of the dialect, the
    /// longest matching pattern preferred, the first in manifest order among
    /// equally long ones.
    fn reference_check(
        bugs: &[&BugSpec],
        trace: &[StmtKind],
        stmt: &Statement,
        st: &OracleState,
    ) -> Option<u32> {
        let mut best: Option<&BugSpec> = None;
        for bug in bugs {
            if bug.special.is_some() || bug.pattern.is_empty() {
                continue;
            }
            if trace.len() < bug.pattern.len() {
                continue;
            }
            let tail = &trace[trace.len() - bug.pattern.len()..];
            if tail == bug.pattern.as_slice()
                && bug.structural.check(stmt)
                && bug.state.check(st)
                && best.is_none_or(|b| bug.pattern.len() > b.pattern.len())
            {
                best = Some(bug);
            }
        }
        best.map(|b| b.id)
    }

    /// Final statements for the equivalence tests: every structural
    /// predicate holds on some and fails on others, alone and several at
    /// once.
    fn final_statements() -> Vec<Statement> {
        use lego_sqlparser::parse_statement;
        let stmts: Vec<Statement> = [
            "SELECT a FROM t;",
            "SELECT LEAD(a) OVER (ORDER BY a) FROM t;",
            "SELECT a, COUNT(*) FROM t GROUP BY a;",
            "SELECT a FROM t ORDER BY a;",
            "SELECT a FROM t WHERE a > 1;",
            "SELECT DISTINCT a FROM t;",
            "SELECT t.a FROM t JOIN u ON t.a = u.a;",
            "SELECT a FROM t UNION SELECT a FROM u;",
            "SELECT DISTINCT a, RANK() OVER (ORDER BY a) FROM t WHERE a > 1 GROUP BY a ORDER BY a;",
            "SELECT DISTINCT t.a FROM t JOIN u ON t.a = u.a WHERE t.a > 0 GROUP BY t.a;",
            "WITH c AS (SELECT a FROM t) SELECT a FROM c ORDER BY a;",
            "INSERT INTO t VALUES (1);",
            "INSERT IGNORE INTO t VALUES (1);",
            "UPDATE t SET a = 1;",
            "UPDATE t SET a = 1 WHERE a > 0;",
            "DELETE FROM t;",
            "DELETE FROM t WHERE a > 0;",
            "CREATE TABLE t (a INT);",
            "BEGIN;",
        ]
        .iter()
        .map(|sql| parse_statement(sql).expect("fixture parses"))
        .collect();
        for s in [
            Structural::WindowFunction,
            Structural::GroupBy,
            Structural::OrderBy,
            Structural::WhereClause,
            Structural::InsertIgnore,
            Structural::Distinct,
            Structural::Join,
            Structural::SetOperation,
        ] {
            assert!(stmts.iter().any(|st| s.check(st)), "no fixture satisfies {s:?}");
            assert!(stmts.iter().any(|st| !s.check(st)), "every fixture satisfies {s:?}");
        }
        stmts
    }

    /// Check `n` seeded (trace, statement, state) triples against `oracle`
    /// and the linear scan over `bugs`. Returns how many triples completed
    /// a pattern and how many completed two or more at once.
    fn agree_on_random_triples(
        d: Dialect,
        bugs: &[&BugSpec],
        oracle: &BugOracle,
        n: usize,
        seed: u64,
    ) -> (usize, usize) {
        let stmts = final_statements();
        let mut rng = SmallRng::seed_from_u64(seed);
        let kinds = d.supported_kinds();
        let patterns: Vec<&[StmtKind]> =
            bugs.iter().map(|b| b.pattern.as_slice()).filter(|p| !p.is_empty()).collect();
        let (mut hits, mut contested) = (0, 0);
        for _ in 0..n {
            let mut trace: Vec<StmtKind> =
                (0..rng.gen_range(0..5)).map(|_| kinds[rng.gen_range(0..kinds.len())]).collect();
            // Mostly end in some bug's pattern, sometimes in a proper suffix
            // of one.
            if rng.gen_bool(0.85) {
                let p = patterns[rng.gen_range(0..patterns.len())];
                let skip = if rng.gen_bool(0.2) { rng.gen_range(0..p.len()) } else { 0 };
                trace.extend_from_slice(&p[skip..]);
            }
            // Prefer a final statement of the trace's last kind.
            let own: Vec<&Statement> =
                stmts.iter().filter(|st| Some(&st.kind()) == trace.last()).collect();
            let stmt = if !own.is_empty() && rng.gen_bool(0.7) {
                own[rng.gen_range(0..own.len())]
            } else {
                &stmts[rng.gen_range(0..stmts.len())]
            };
            let st = OracleState {
                any_trigger: rng.gen(),
                any_rule: rng.gen(),
                in_txn: rng.gen(),
                any_nonempty_table: rng.gen(),
                any_index: rng.gen(),
                any_view: rng.gen(),
            };
            let want = reference_check(bugs, &trace, stmt, &st);
            let got = oracle.check(&trace, stmt, || st).map(|c| c.bug_id);
            assert_eq!(got, want, "{d:?}: trace {trace:?}, statement `{stmt}`, state {st:?}");
            hits += want.is_some() as usize;
            let matching = bugs
                .iter()
                .filter(|b| {
                    b.special.is_none()
                        && !b.pattern.is_empty()
                        && trace.ends_with(&b.pattern)
                        && b.structural.check(stmt)
                        && b.state.check(&st)
                })
                .count();
            contested += (matching >= 2) as usize;
        }
        (hits, contested)
    }

    #[test]
    fn indexed_check_agrees_with_the_linear_scan() {
        let mut contested = 0;
        for (i, d) in Dialect::ALL.into_iter().enumerate() {
            let (hits, c) = agree_on_random_triples(
                d,
                &bugs_for(d),
                &BugOracle::new(d),
                100_000,
                0xb06_5ca9 + i as u64,
            );
            assert!(hits >= 10_000, "{d:?}: only {hits} triples complete a pattern");
            contested += c;
        }
        // MariaDB's shallow bugs share the pattern INSERT → SELECT, so a
        // statement can satisfy two of them; the first in manifest order wins.
        assert!(contested >= 1_000, "only {contested} triples complete two patterns");
    }

    /// No planted pattern is a proper suffix of another of its dialect, so
    /// the manifest alone never asks for the longest-pattern preference.
    /// Each pattern bug here gets a shorter suffix ahead of it and a longer
    /// extension behind it in the bug order, with their own predicates.
    #[test]
    fn indexed_check_prefers_the_longest_pattern_like_the_linear_scan() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_5aff);
        let mut next_id = 1_000;
        for (i, d) in Dialect::ALL.into_iter().enumerate() {
            let kinds = d.supported_kinds();
            let mut bugs: Vec<&'static BugSpec> = Vec::new();
            for bug in bugs_for(d) {
                if bug.pattern.is_empty() {
                    bugs.push(bug);
                    continue;
                }
                let last = *bug.pattern.last().expect("non-empty");
                let cands = Structural::candidates_for(last);
                let longer = [&[kinds[rng.gen_range(0..kinds.len())]], &bug.pattern[..]].concat();
                let mut variant = |pattern: Vec<StmtKind>| {
                    next_id += 1;
                    let spec = BugSpec {
                        id: next_id,
                        pattern,
                        structural: cands[rng.gen_range(0..cands.len())],
                        state: [StateReq::Any, StateReq::TableNonEmpty][rng.gen_range(0..2)],
                        ..bug.clone()
                    };
                    &*Box::leak(Box::new(spec))
                };
                if bug.pattern.len() >= 2 {
                    bugs.push(variant(bug.pattern[1..].to_vec()));
                }
                bugs.push(bug);
                bugs.push(variant(longer));
            }
            let oracle = BugOracle { bugs: Box::leak(Box::new(DialectBugs::new(bugs.clone()))) };
            let (hits, contested) =
                agree_on_random_triples(d, &bugs, &oracle, 100_000, 0x10_0915 + i as u64);
            assert!(hits >= 10_000, "{d:?}: only {hits} triples complete a pattern");
            assert!(contested >= 1_000, "{d:?}: only {contested} triples complete two patterns");
        }
    }

    #[test]
    fn stack_hashes_are_unique_per_bug() {
        let mut hashes = HashSet::new();
        for bug in manifest() {
            assert!(hashes.insert(CrashReport::for_bug(bug).stack_hash()));
        }
    }
}
