//! Per-sequence def-use dependency analysis.
//!
//! [`DepGraph::build`] walks a statement sequence once and records, for each
//! statement, the symbols it *defines* (creates), *uses* (requires to exist),
//! and *kills* (removes). Def-use edges (`deps`) connect each use to the
//! closest preceding definition. Dependency-aware mutation consults this to
//! splice and reorder only where every use still has a live definition in
//! front of it — see [`DepGraph::order_satisfied`].
//!
//! This is deliberately coarser than the binder: it works on names only, is
//! namespace- but not state-aware (no tri-state, no transaction modelling),
//! and over-approximates uses via [`lego_sqlast::visit::table_names`] for
//! query-bearing statements. The binder remains the validity authority; the
//! graph is a cheap structural guide for mutation.

use lego_sqlast::kind::StandaloneKind;
use lego_sqlast::visit::table_names;
use lego_sqlast::{
    AlterTableAction, ColumnConstraint, CopySource, CteBody, Dialect, ObjectKind, SelectVariant,
    Statement, StmtKind, TableConstraint,
};

use crate::binder::norm;
use std::borrow::Borrow;

/// The namespace a symbol lives in. `Relation` merges tables and views:
/// query resolution does not distinguish them, and most cross-statement
/// references are by relation name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum SymNs {
    Relation,
    Index,
    Trigger,
    Rule,
    Cursor,
    Prepared,
    PreparedTxn,
    Setting,
    Savepoint,
    Generic(ObjectKind),
}

/// A named symbol: a (namespace, normalized-name) pair.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Sym {
    pub ns: SymNs,
    pub name: String,
}

impl Sym {
    fn new(ns: SymNs, name: &str) -> Sym {
        Sym { ns, name: norm(name) }
    }

    fn rel(name: &str) -> Sym {
        Sym::new(SymNs::Relation, name)
    }
}

/// What one statement defines, uses, and kills.
#[derive(Clone, Debug, Default)]
pub struct StmtSyms {
    pub defs: Vec<Sym>,
    pub uses: Vec<Sym>,
    pub kills: Vec<Sym>,
}

fn first_arg(m: &lego_sqlast::MiscStmt) -> &str {
    m.arg.as_deref().and_then(|a| a.split_whitespace().next()).unwrap_or("")
}

/// Symbols for a single statement. Uses are an over-approximation (better to
/// keep a spurious dependency than to break a real one); defs and kills are
/// the success-path effects.
pub fn stmt_syms(stmt: &Statement) -> StmtSyms {
    let mut s = StmtSyms::default();
    match stmt {
        Statement::CreateTable(c) => {
            s.defs.push(Sym::rel(&c.name));
            for cd in &c.columns {
                for con in &cd.constraints {
                    if let ColumnConstraint::References { table, .. } = con {
                        if !table.is_empty() && !table.eq_ignore_ascii_case(&c.name) {
                            s.uses.push(Sym::rel(table));
                        }
                    }
                }
            }
            for tc in &c.constraints {
                if let TableConstraint::ForeignKey { ref_table, .. } = tc {
                    if !ref_table.eq_ignore_ascii_case(&c.name) {
                        s.uses.push(Sym::rel(ref_table));
                    }
                }
            }
        }
        Statement::CreateView(v) => {
            s.defs.push(Sym::rel(&v.name));
            s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
            s.uses.retain(|u| u.name != norm(&v.name));
        }
        Statement::CreateTableAs { name, .. } => {
            s.defs.push(Sym::rel(name));
            s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
            s.uses.retain(|u| u.name != norm(name));
        }
        Statement::CreateIndex(i) => {
            s.defs.push(Sym::new(SymNs::Index, &i.name));
            s.uses.push(Sym::rel(&i.table));
        }
        Statement::CreateTrigger(t) => {
            s.defs.push(Sym::new(SymNs::Trigger, &t.name));
            s.uses.push(Sym::rel(&t.table));
        }
        Statement::CreateRule(r) => {
            s.defs.push(Sym::new(SymNs::Rule, &r.name));
            s.uses.push(Sym::rel(&r.table));
        }
        Statement::AlterTable(a) => {
            s.uses.push(Sym::rel(&a.name));
            if let AlterTableAction::RenameTo(new) = &a.action {
                s.defs.push(Sym::rel(new));
                s.kills.push(Sym::rel(&a.name));
            }
        }
        Statement::Drop(d) => {
            let sym = match d.object {
                ObjectKind::Table | ObjectKind::View | ObjectKind::MaterializedView => {
                    Sym::rel(&d.name)
                }
                ObjectKind::Index => Sym::new(SymNs::Index, &d.name),
                ObjectKind::Trigger => Sym::new(SymNs::Trigger, &d.name),
                ObjectKind::Rule => Sym::new(SymNs::Rule, &d.name),
                other => Sym::new(SymNs::Generic(other), &d.name),
            };
            if !d.if_exists {
                s.uses.push(sym.clone());
            }
            s.kills.push(sym);
        }
        Statement::GenericDdl(g) => {
            use lego_sqlast::DdlVerb;
            let sym = Sym::new(SymNs::Generic(g.object), &g.name);
            match g.verb {
                DdlVerb::Create => s.defs.push(sym),
                DdlVerb::Alter => s.uses.push(sym),
                DdlVerb::Drop => {
                    s.uses.push(sym.clone());
                    s.kills.push(sym);
                }
            }
        }
        Statement::Select(sel) => {
            s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
            if let SelectVariant::Into(target) = &sel.variant {
                s.defs.push(Sym::rel(target));
                s.uses.retain(|u| u.name != norm(target));
            }
        }
        Statement::Insert(_)
        | Statement::Update(_)
        | Statement::Delete(_)
        | Statement::Values(_)
        | Statement::Explain(_) => {
            s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
        }
        Statement::With(w) => {
            // CTE names are sequence-local bindings, not catalog symbols:
            // drop them from the use set.
            s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
            for cte in &w.ctes {
                s.uses.retain(|u| u.name != norm(&cte.name));
                if let CteBody::Dml(dml) = &cte.body {
                    let inner = stmt_syms(dml);
                    s.defs.extend(inner.defs);
                    s.kills.extend(inner.kills);
                }
            }
            let inner = stmt_syms(&w.body);
            s.defs.extend(inner.defs);
            s.kills.extend(inner.kills);
        }
        Statement::Truncate { table } => s.uses.push(Sym::rel(table)),
        Statement::Copy(c) => match &c.source {
            CopySource::Table { name, .. } => s.uses.push(Sym::rel(name)),
            CopySource::Query(_) => {
                s.uses.extend(table_names(stmt).iter().map(|t| Sym::rel(t)));
            }
        },
        Statement::Grant(g) => s.uses.push(Sym::rel(&g.object)),
        Statement::Revoke(g) => s.uses.push(Sym::rel(&g.object)),
        Statement::Savepoint(name) => s.defs.push(Sym::new(SymNs::Savepoint, name)),
        Statement::ReleaseSavepoint(name) => {
            let sym = Sym::new(SymNs::Savepoint, name);
            s.uses.push(sym.clone());
            s.kills.push(sym);
        }
        Statement::RollbackToSavepoint(name) => s.uses.push(Sym::new(SymNs::Savepoint, name)),
        Statement::Set(st) => s.defs.push(Sym::new(SymNs::Setting, &st.name)),
        Statement::Reset(name) => {
            let sym = Sym::new(SymNs::Setting, name);
            s.uses.push(sym.clone());
            s.kills.push(sym);
        }
        Statement::Show(name) => s.uses.push(Sym::new(SymNs::Setting, name)),
        Statement::Pragma { name, .. } => {
            s.defs.push(Sym::new(SymNs::Setting, &format!("pragma.{name}")));
        }
        Statement::Analyze(Some(t))
        | Statement::Vacuum { table: Some(t), .. }
        | Statement::Reindex(Some(t))
        | Statement::Cluster(Some(t)) => s.uses.push(Sym::rel(t)),
        Statement::LockTable { table, .. } => s.uses.push(Sym::rel(table)),
        Statement::Comment { object, name, .. } => {
            let sym = match object {
                ObjectKind::Table | ObjectKind::View | ObjectKind::MaterializedView => {
                    Sym::rel(name)
                }
                ObjectKind::Index => Sym::new(SymNs::Index, name),
                ObjectKind::Trigger => Sym::new(SymNs::Trigger, name),
                ObjectKind::Rule => Sym::new(SymNs::Rule, name),
                other => Sym::new(SymNs::Generic(*other), name),
            };
            s.uses.push(sym);
        }
        Statement::Call { name, .. } => {
            s.uses.push(Sym::new(SymNs::Generic(ObjectKind::Procedure), name));
        }
        Statement::RefreshMatView(name) => s.uses.push(Sym::rel(name)),
        Statement::Misc(m) => match m.kind {
            StandaloneKind::DeclareCursor => {
                s.defs.push(Sym::new(SymNs::Cursor, first_arg(m)));
            }
            StandaloneKind::Fetch | StandaloneKind::Move => {
                s.uses.push(Sym::new(SymNs::Cursor, first_arg(m)));
            }
            StandaloneKind::CloseCursor => {
                let sym = Sym::new(SymNs::Cursor, first_arg(m));
                s.uses.push(sym.clone());
                s.kills.push(sym);
            }
            StandaloneKind::PrepareStmt => {
                s.defs.push(Sym::new(SymNs::Prepared, first_arg(m)));
            }
            StandaloneKind::ExecuteStmt => {
                s.uses.push(Sym::new(SymNs::Prepared, first_arg(m)));
            }
            StandaloneKind::Deallocate => {
                let sym = Sym::new(SymNs::Prepared, first_arg(m));
                s.uses.push(sym.clone());
                s.kills.push(sym);
            }
            StandaloneKind::PrepareTransaction => {
                // Gids are case-exact in the engine; norm() here is fine for
                // dependency purposes since gen only emits lowercase gids.
                s.defs.push(Sym::new(SymNs::PreparedTxn, first_arg(m)));
            }
            StandaloneKind::CommitPrepared | StandaloneKind::RollbackPrepared => {
                let sym = Sym::new(SymNs::PreparedTxn, first_arg(m));
                s.uses.push(sym.clone());
                s.kills.push(sym);
            }
            StandaloneKind::CheckTable
            | StandaloneKind::ChecksumTable
            | StandaloneKind::OptimizeTable
            | StandaloneKind::RepairTable
            | StandaloneKind::Rebuild => {
                let t = first_arg(m);
                if !t.is_empty() {
                    s.uses.push(Sym::rel(t));
                }
            }
            StandaloneKind::LockTables => {
                let t = first_arg(m);
                if !t.is_empty() {
                    s.uses.push(Sym::rel(t));
                }
            }
            StandaloneKind::RenameTable => {
                let words: Vec<&str> = m.arg.as_deref().unwrap_or("").split_whitespace().collect();
                if words.len() >= 3 && words[1].eq_ignore_ascii_case("TO") {
                    s.uses.push(Sym::rel(words[0]));
                    s.kills.push(Sym::rel(words[0]));
                    s.defs.push(Sym::rel(words[2]));
                }
            }
            StandaloneKind::ExecProcedure => {
                s.uses.push(Sym::new(SymNs::Generic(ObjectKind::Procedure), first_arg(m)));
            }
            _ => {}
        },
        // No symbol-level defs or uses.
        Statement::Begin
        | Statement::StartTransaction
        | Statement::Commit
        | Statement::End
        | Statement::Rollback
        | Statement::Abort
        | Statement::Checkpoint
        | Statement::Discard(_)
        | Statement::Listen(_)
        | Statement::Unlisten(_)
        | Statement::Notify { .. }
        | Statement::Analyze(None)
        | Statement::Vacuum { table: None, .. }
        | Statement::Reindex(None)
        | Statement::Cluster(None) => {}
    }
    s
}

/// The def-use structure of one statement sequence.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Per-statement symbol sets, index-aligned with the sequence.
    pub syms: Vec<StmtSyms>,
    /// `deps[i]` = indices `j < i` whose defs statement `i` uses (closest
    /// preceding definition per used symbol), sorted and deduped.
    pub deps: Vec<Vec<usize>>,
}

impl DepGraph {
    pub fn build<S: Borrow<Statement>>(stmts: &[S]) -> DepGraph {
        let syms: Vec<StmtSyms> = stmts.iter().map(|s| stmt_syms(s.borrow())).collect();
        let mut deps = Vec::with_capacity(syms.len());
        for i in 0..syms.len() {
            let mut d: Vec<usize> = syms[i]
                .uses
                .iter()
                .filter_map(|u| (0..i).rev().find(|&j| syms[j].defs.contains(u)))
                .collect();
            d.sort_unstable();
            d.dedup();
            deps.push(d);
        }
        DepGraph { syms, deps }
    }

    pub fn len(&self) -> usize {
        self.syms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Would executing the original statements in `order` (a subsequence or
    /// permutation of `0..len`, given by original indices) keep every
    /// def-use dependency satisfied? A use is satisfied when some earlier
    /// position in `order` defines the symbol and no position in between
    /// kills it. Symbols a statement both uses and kills (e.g. `DROP`) only
    /// count the use.
    pub fn order_satisfied(&self, order: &[usize]) -> bool {
        order.iter().enumerate().all(|(pos, &i)| {
            self.syms[i].uses.iter().all(|u| {
                let mut live = false;
                for &j in &order[..pos] {
                    if self.syms[j].defs.contains(u) {
                        live = true;
                    } else if self.syms[j].kills.contains(u) {
                        live = false;
                    }
                }
                live
            })
        })
    }
}

/// Statement kinds that the engine rejects unconditionally, regardless of
/// state — there is no point synthesizing sequences around them when a
/// validity-oriented campaign asks for plausible-only drafts.
pub fn always_rejected_kind(kind: StmtKind) -> bool {
    matches!(
        kind,
        StmtKind::Other(
            StandaloneKind::Signal
                | StandaloneKind::Resignal
                | StandaloneKind::Shutdown
                | StandaloneKind::Restart
                | StandaloneKind::KillStmt
        )
    )
}

/// Kind-level plausibility of a type sequence for `dialect`: every kind
/// supported and none unconditionally rejected. A cheap pre-filter for
/// synthesis — the binder gives the real per-statement verdicts once the
/// sequence is instantiated.
pub fn plausible_sequence(kinds: &[StmtKind], dialect: Dialect) -> bool {
    kinds.iter().all(|&k| dialect.supports(k) && !always_rejected_kind(k))
}
