//! The write path and statement dispatcher: DDL, DML with triggers and
//! rules, transactions, access control, session state machines.

use crate::bugs::{BugOracle, CrashReport, Special};
use crate::catalog::{
    Catalog, ColumnMeta, GenericObject, IndexMeta, RuleMeta, TableMeta, TriggerMeta, ViewMeta,
};
use crate::ctx::ExecCtx;
use crate::eval::{eval, Bindings, EvalEnv};
use crate::profile::Profile;
use crate::query::{run_query, QueryEnv, ResultSet};
use crate::value::{Row, Value};
use lego_coverage::{cov, site_id};
use lego_sqlast::ast::*;
use lego_sqlast::expr::DataType;
use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};
use std::cell::LazyCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// Work bounds: real AFL harnesses kill executions that exceed a time budget
// (the paper's SQUIRREL anecdote: one 945-statement seed hung it for 23
// minutes). We bound data volume instead, which bounds wall time.
const MAX_TABLE_ROWS: usize = 1024;
const MAX_TRIGGER_DEPTH: usize = 4;
const MAX_TRIGGER_FIRES: usize = 8;

/// One client session against one database.
pub struct Session {
    pub cat: Catalog,
    pub prof: Profile,
    pub user: String,
    pub settings: BTreeMap<String, String>,
    /// Transaction snapshot (whole-catalog copy; tiny DBs).
    pub txn: Option<Catalog>,
    pub savepoints: Vec<(String, Catalog)>,
    pub listening: BTreeSet<String>,
    pub notifications: Vec<String>,
    pub locks: BTreeMap<String, String>,
    pub cursors: BTreeSet<String>,
    pub prepared: BTreeSet<String>,
    pub prepared_txns: BTreeSet<String>,
    pub xa_active: bool,
    pub handler_open: bool,
    pub current_db: String,
    /// Kinds of the recently executed top-level statements: shared session
    /// state (plan cache, pending invalidations, buffer status) makes the
    /// execution path of a statement depend on what ran before it.
    pub recent_kinds: Vec<StmtKind>,
    pub oracle: BugOracle,
}

impl Session {
    pub fn new(prof: Profile) -> Self {
        Session {
            cat: Catalog::new(),
            prof,
            user: "admin".into(),
            settings: BTreeMap::new(),
            txn: None,
            savepoints: Vec::new(),
            listening: BTreeSet::new(),
            notifications: Vec::new(),
            locks: BTreeMap::new(),
            cursors: BTreeSet::new(),
            prepared: BTreeSet::new(),
            prepared_txns: BTreeSet::new(),
            xa_active: false,
            handler_open: false,
            current_db: "main".into(),
            recent_kinds: Vec::new(),
            oracle: BugOracle::new(prof.dialect),
        }
    }

    /// Return to the just-connected state in place.
    ///
    /// Keeps `prof` and `oracle` (the oracle only points at its dialect's
    /// bug index, built once per process) and clears everything else while
    /// retaining the containers' allocations where the collection types
    /// allow it.
    pub fn reset(&mut self) {
        self.cat.clear();
        self.user.clear();
        self.user.push_str("admin");
        self.settings.clear();
        self.txn = None;
        self.savepoints.clear();
        self.listening.clear();
        self.notifications.clear();
        self.locks.clear();
        self.cursors.clear();
        self.prepared.clear();
        self.prepared_txns.clear();
        self.xa_active = false;
        self.handler_open = false;
        self.current_db.clear();
        self.current_db.push_str("main");
        self.recent_kinds.clear();
    }

    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn qenv(&self) -> QueryEnv<'_> {
        QueryEnv::new(&self.cat, &self.prof, &self.user)
    }

    /// Run a query against the session's current state and hand back the
    /// actual result set (the statement dispatcher only reports row counts).
    /// Used by the oracle layer via [`crate::Dbms::run_query`].
    pub fn run_query(
        &self,
        ctx: &mut ExecCtx,
        q: &lego_sqlast::ast::Query,
    ) -> Result<crate::query::ResultSet, String> {
        run_query(&self.qenv(), ctx, q)
    }

    fn check_privilege(
        &mut self,
        ctx: &mut ExecCtx,
        table: &str,
        privilege: &str,
    ) -> Result<(), String> {
        if !self.prof.check_privileges || self.user == "admin" {
            return Ok(());
        }
        cov!(ctx, 0x50dbc10b53ec0027);
        if self.cat.has_privilege(&self.user, table, privilege) {
            cov!(ctx, 0x5147c10b53f1b215);
            Ok(())
        } else {
            cov!(ctx, 0x5037c10b53e33ee2);
            Err(format!("permission denied: {privilege} on {table}"))
        }
    }

    /// Execute one statement. Returns affected/returned row count; semantic
    /// errors are `Err`. A planted-bug crash sets `ctx.crash`.
    pub fn exec_statement(&mut self, ctx: &mut ExecCtx, stmt: &Statement) -> Result<usize, String> {
        let kind = stmt.kind();
        // Per-case statement budget: every entry — top-level or trigger/rule
        // cascade — charges one unit, so a runaway cascade trips it too.
        ctx.charge_statement()?;
        // Test-only fault hooks (see `faults`): an injected engine panic and
        // an injected infinite loop, both keyed to CREATE TRIGGER so the
        // resilience tests can plant them behind a specific statement type.
        if matches!(stmt, Statement::CreateTrigger(_)) {
            if ctx.faults.panic_on_create_trigger {
                panic!("injected fault: engine panic on CREATE TRIGGER");
            }
            if ctx.faults.spin_on_create_trigger {
                // A "hang" the budget guard can catch deterministically: burn
                // row budget until the per-case limit aborts the case.
                loop {
                    ctx.charge_rows(4096)?;
                }
            }
        }
        // Per-kind dispatch site: every statement type has its own entry
        // branch, and AFL edges between consecutive statements' sites encode
        // type pairs — the substrate LEGO's affinity analysis feeds on.
        ctx.hit_idx(site_id!(0x4ab3010b539847e8), kind.code() as u64);
        // Cross-statement interaction branches. Only *meaningful* adjacencies
        // take distinct paths: a statement running right after one that
        // touched related session state (the plan cache was invalidated by
        // DDL, buffers dirtied by DML, privileges changed by DCL, …) goes
        // through extra re-validation code. Unrelated adjacencies share the
        // fast path, exactly like a real engine — this is what makes most
        // random type sequences "meaningless" (paper § II, challenge C2).
        if ctx.depth == 0 {
            if let Some(&prev) = self.recent_kinds.last() {
                if let Some(class) = meaningful_interaction(prev, kind) {
                    ctx.hit_idx(
                        site_id!(0x47f1810b5372e435),
                        (class as u64) << 10 | kind.code() as u64,
                    );
                    // Longer-range histories select yet deeper paths, but
                    // only along *chains* of meaningful interactions — the
                    // paper's "some code logic must be reached by executing
                    // some specific sequences" (§ II, Fig. 2). A chained
                    // trigram like CREATE TABLE → INSERT → SELECT walks the
                    // dirty-buffer + fresh-plan combination; an arbitrary
                    // interleaving does not.
                    if self.recent_kinds.len() >= 2 {
                        let prev2 = self.recent_kinds[self.recent_kinds.len() - 2];
                        if meaningful_interaction(prev2, prev).is_some() {
                            let h = (prev2.code() as u64) << 32
                                | (prev.code() as u64) << 16
                                | kind.code() as u64;
                            ctx.hit_idx(site_id!(0x441f410b533ef8eb), h);
                            // Four-statement chains (the § V.B case study is
                            // one) reach yet deeper combination logic.
                            if self.recent_kinds.len() >= 3 {
                                let prev3 = self.recent_kinds[self.recent_kinds.len() - 3];
                                if meaningful_interaction(prev3, prev2).is_some() {
                                    let h4 = h
                                        ^ (prev3.code() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                                    ctx.hit_idx(site_id!(0x4268c10b5327807b), h4);
                                }
                            }
                        }
                    }
                }
            }
            self.recent_kinds.push(kind);
            if self.recent_kinds.len() > 8 {
                self.recent_kinds.remove(0);
            }
        }
        // Deep-state combination paths: the shape of the accumulated session
        // state selects different code in the core executor. Reaching a new
        // combination requires a multi-statement setup chain.
        if ctx.depth == 0 {
            let state_bits = (!self.cat.triggers.is_empty() as u64)
                | (!self.cat.views.is_empty() as u64) << 1
                | (!self.cat.indexes.is_empty() as u64) << 2
                | (!self.cat.rules.is_empty() as u64) << 3
                | (self.txn.is_some() as u64) << 4
                | (!self.cat.users.is_empty() as u64) << 5;
            if state_bits != 0 {
                if let StmtKind::Other(
                    StandaloneKind::Select
                    | StandaloneKind::Insert
                    | StandaloneKind::Update
                    | StandaloneKind::Delete
                    | StandaloneKind::With
                    | StandaloneKind::Copy,
                ) = kind
                {
                    ctx.hit_idx(
                        site_id!(0x3b9fc10b52cb6ceb),
                        state_bits << 8 | kind.code() as u64 & 0xff,
                    );
                }
            }
        }
        if !self.prof.dialect.supports(kind) {
            cov!(ctx, 0x3af9c10b52c27546);
            return Err(format!(
                "{} is not supported by {}",
                kind.name(),
                self.prof.dialect.name()
            ));
        }
        // MySQL-family implicit commit on DDL.
        if self.prof.ddl_implicit_commit && matches!(kind, StmtKind::Ddl(..)) && self.txn.is_some()
        {
            cov!(ctx, 0x39b3810b52b12250);
            self.txn = None;
            self.savepoints.clear();
        }
        match stmt {
            Statement::CreateTable(c) => self.exec_create_table(ctx, c),
            Statement::CreateView(v) => self.exec_create_view(ctx, v),
            Statement::CreateIndex(i) => self.exec_create_index(ctx, i),
            Statement::CreateTrigger(t) => self.exec_create_trigger(ctx, t),
            Statement::CreateRule(r) => self.exec_create_rule(ctx, r),
            Statement::CreateTableAs { name, query } => {
                cov!(ctx, 0x36f2810b528bcc35);
                let rs = run_query(&self.qenv(), ctx, query)?;
                let n = rs.rows.len();
                self.cat.add_table(result_to_table(name, rs, false))?;
                Ok(n)
            }
            Statement::AlterTable(a) => self.exec_alter_table(ctx, a),
            Statement::Drop(d) => self.exec_drop(ctx, d),
            Statement::GenericDdl(g) => self.exec_generic_ddl(ctx, g),
            Statement::Select(s) => {
                cov!(ctx, 0x2ede410b521dddbf);
                let rs = run_query(&self.qenv(), ctx, &s.query)?;
                if let SelectVariant::Into(target) = &s.variant {
                    cov!(ctx, 0x2f83010b5226b368);
                    let stmt =
                        Statement::CreateTableAs { name: target.clone(), query: s.query.clone() };
                    return self.exec_statement(ctx, &stmt);
                }
                ctx.last_row_count = rs.rows.len();
                Ok(rs.rows.len())
            }
            Statement::Insert(i) => self.exec_insert(ctx, i),
            Statement::Update(u) => self.exec_update(ctx, u),
            Statement::Delete(d) => self.exec_delete(ctx, d),
            Statement::With(w) => self.exec_with(ctx, w),
            Statement::Values(rows) => {
                cov!(ctx, 0x2b7a410b51efe18f);
                Ok(rows.len())
            }
            Statement::Truncate { table } => {
                cov!(ctx, 0x2a9ec10b51e41e8b);
                self.check_privilege(ctx, table, "DELETE")?;
                let t = self
                    .cat
                    .table_mut(table)
                    .ok_or_else(|| format!("table \"{table}\" does not exist"))?;
                let n = t.rows.len();
                t.rows.clear();
                t.analyzed = false;
                Ok(n)
            }
            Statement::Copy(c) => self.exec_copy(ctx, c),
            Statement::Grant(g) => {
                cov!(ctx, 0x284a810b51c48ec2);
                self.cat
                    .user_mut(&g.grantee)
                    .privileges
                    .entry(g.object.to_ascii_lowercase())
                    .or_default()
                    .push(g.privilege.to_ascii_uppercase());
                Ok(0)
            }
            Statement::Revoke(g) => {
                cov!(ctx, 0x2702410b51b3056c);
                let user = self.cat.user_mut(&g.grantee);
                match user.privileges.get_mut(&g.object.to_ascii_lowercase()) {
                    Some(ps) => {
                        cov!(ctx, 0x262a410b51a7a190);
                        ps.retain(|p| !p.eq_ignore_ascii_case(&g.privilege));
                        Ok(0)
                    }
                    None => {
                        cov!(ctx, 0x23d2410b5187abd3);
                        Err(format!("no privileges to revoke on {}", g.object))
                    }
                }
            }
            Statement::Begin | Statement::StartTransaction => {
                if self.txn.is_some() {
                    cov!(ctx, 0x239e010b51850270);
                    return Err("there is already a transaction in progress".into());
                }
                cov!(ctx, 0x228e810b51769cd5);
                self.txn = Some(self.cat.clone());
                Ok(0)
            }
            Statement::Commit | Statement::End => {
                if self.txn.take().is_none() {
                    cov!(ctx, 0x206f010b5159c407);
                    return Err("there is no transaction in progress".into());
                }
                cov!(ctx, 0x2111c10b51626350);
                self.savepoints.clear();
                self.locks.clear();
                Ok(0)
            }
            Statement::Rollback | Statement::Abort => match self.txn.take() {
                Some(snapshot) => {
                    cov!(ctx, 0x1f26410b51482d19);
                    self.cat = snapshot;
                    self.savepoints.clear();
                    self.locks.clear();
                    Ok(0)
                }
                None => {
                    cov!(ctx, 0x1d3f410b512e713a);
                    Err("there is no transaction in progress".into())
                }
            },
            Statement::Savepoint(name) => {
                if self.txn.is_none() {
                    cov!(ctx, 0x1cd2010b51289d50);
                    return Err("SAVEPOINT can only be used in transaction blocks".into());
                }
                cov!(ctx, 0x1bc2810b511a37b5);
                self.savepoints.push((name.to_ascii_lowercase(), self.cat.clone()));
                Ok(0)
            }
            Statement::ReleaseSavepoint(name) => {
                cov!(ctx, 0x1b1f410b51118ad4);
                let key = name.to_ascii_lowercase();
                match self.savepoints.iter().rposition(|(n, _)| *n == key) {
                    Some(i) => {
                        self.savepoints.truncate(i);
                        Ok(0)
                    }
                    None => {
                        cov!(ctx, 0x196ac10b50fa48c4);
                        Err(format!("savepoint \"{name}\" does not exist"))
                    }
                }
            }
            Statement::RollbackToSavepoint(name) => {
                cov!(ctx, 0x174a810b50dd5b92);
                let key = name.to_ascii_lowercase();
                match self.savepoints.iter().rposition(|(n, _)| *n == key) {
                    Some(i) => {
                        cov!(ctx, 0x1672810b50d1f7b6);
                        self.cat = self.savepoints[i].1.clone();
                        self.savepoints.truncate(i + 1);
                        Ok(0)
                    }
                    None => {
                        cov!(ctx, 0x1606c10b50cc4c94);
                        Err(format!("savepoint \"{name}\" does not exist"))
                    }
                }
            }
            Statement::Set(s) => {
                cov!(ctx, 0x13e6810b50af5f62);
                if s.scope.is_some() {
                    cov!(ctx, 0x1453010b50b51ee8);
                }
                self.settings.insert(s.name.to_ascii_lowercase(), s.value.clone());
                Ok(0)
            }
            Statement::Reset(name) => {
                cov!(ctx, 0x1233810b5098461a);
                match self.settings.remove(&name.to_ascii_lowercase()) {
                    Some(_) => Ok(0),
                    None => {
                        cov!(ctx, 0x115a810b508cc70e);
                        Err(format!("unrecognized configuration parameter \"{name}\""))
                    }
                }
            }
            Statement::Show(name) => {
                cov!(ctx, 0x10eb410b5086bcc4);
                let key = name.to_ascii_lowercase();
                if self.settings.contains_key(&key) || key == "server_version" {
                    cov!(ctx, 0x0fdb410b50784991);
                    Ok(1)
                } else {
                    cov!(ctx, 0x0ecb410b5069d65e);
                    Err(format!("unrecognized configuration parameter \"{name}\""))
                }
            }
            Statement::Pragma { name, value } => {
                cov!(ctx, 0x0e2a810b50616d75);
                self.settings.insert(
                    format!("pragma.{}", name.to_ascii_lowercase()),
                    value.clone().unwrap_or_default(),
                );
                Ok(0)
            }
            Statement::Analyze(table) => {
                cov!(ctx, 0x0c77810b504a542d);
                match table {
                    Some(t) => {
                        let t = self
                            .cat
                            .table_mut(t)
                            .ok_or_else(|| format!("relation \"{t}\" does not exist"))?;
                        t.analyzed = true;
                    }
                    None => {
                        cov!(ctx, 0x097ec10b5021f587);
                        for t in self.cat.tables.values_mut() {
                            t.analyzed = true;
                        }
                    }
                }
                Ok(0)
            }
            Statement::Vacuum { table, full } => {
                cov!(ctx, 0x07ff810b500d780a);
                if *full {
                    cov!(ctx, 0x086e010b50136df0);
                }
                if let Some(t) = table {
                    if self.cat.table(t).is_none() {
                        cov!(ctx, 0x0792410b5007a420);
                        return Err(format!("relation \"{t}\" does not exist"));
                    }
                }
                Ok(0)
            }
            Statement::Explain(inner) => {
                cov!(ctx, 0x05ab810b4fedef0d);
                match &**inner {
                    Statement::Select(s) => {
                        // Planning exercises the optimizer without side
                        // effects.
                        let rs = run_query(&self.qenv(), ctx, &s.query)?;
                        Ok(rs.rows.len().min(1))
                    }
                    other => {
                        cov!(ctx, 0x042e410b4fd9a7f0);
                        for t in lego_sqlast::visit::table_names(other) {
                            if self.cat.table(&t).is_none() && self.cat.view(&t).is_none() {
                                cov!(ctx, 0x0320010b4fcb6451);
                            }
                        }
                        Ok(1)
                    }
                }
            }
            Statement::Reindex(table) => {
                cov!(ctx, 0x016a010b4fb3f979);
                if let Some(t) = table {
                    if self.cat.indexes_on(t).is_empty() {
                        cov!(ctx, 0x005a810b4fa593de);
                    }
                    if self.cat.table(t).is_none() {
                        return Err(format!("relation \"{t}\" does not exist"));
                    }
                }
                Ok(0)
            }
            Statement::Checkpoint => {
                cov!(ctx, 0xd85f810b5b1e2ded);
                Ok(0)
            }
            Statement::Cluster(table) => {
                cov!(ctx, 0xd786010b5b12a149);
                if let Some(name) = table {
                    let has_index = !self.cat.indexes_on(name).is_empty();
                    let t = self
                        .cat
                        .table_mut(name)
                        .ok_or_else(|| format!("relation \"{name}\" does not exist"))?;
                    if has_index {
                        cov!(ctx, 0xd5d2810b5afb7a69);
                        t.clustered = Some("idx".into());
                    } else {
                        cov!(ctx, 0xd4c2810b5aed0736);
                        return Err(format!("there is no clusterable index for table \"{name}\""));
                    }
                }
                Ok(0)
            }
            Statement::Discard(what) => {
                cov!(ctx, 0xd2d9c10b5ad31bc3);
                if what.eq_ignore_ascii_case("ALL") {
                    cov!(ctx, 0xd346410b5ad8db49);
                    self.settings.clear();
                    self.prepared.clear();
                    self.cursors.clear();
                }
                Ok(0)
            }
            Statement::Listen(ch) => {
                cov!(ctx, 0xd193810b5ac1c8cd);
                self.listening.insert(ch.to_ascii_lowercase());
                Ok(0)
            }
            Statement::Unlisten(ch) => {
                cov!(ctx, 0xd0ee410b5ab8e58c);
                if !self.listening.remove(&ch.to_ascii_lowercase()) {
                    cov!(ctx, 0xcfaa410b5aa7cfc2);
                }
                Ok(0)
            }
            Statement::Notify { channel, payload } => {
                cov!(ctx, 0xcf07010b5a9f22e1);
                if self.listening.contains(&channel.to_ascii_lowercase()) {
                    cov!(ctx, 0xcdbf010b5a8da057);
                    self.notifications
                        .push(format!("{channel}: {}", payload.clone().unwrap_or_default()));
                } else {
                    cov!(ctx, 0xcce7010b5a823c7b);
                }
                Ok(0)
            }
            Statement::LockTable { table, mode } => {
                cov!(ctx, 0xcc42010b5a796006);
                if self.cat.table(table).is_none() {
                    return Err(format!("relation \"{table}\" does not exist"));
                }
                let mode = mode.clone().unwrap_or_else(|| "ACCESS EXCLUSIVE".into());
                let key = table.to_ascii_lowercase();
                match self.locks.get(&key) {
                    Some(held) if *held != mode => {
                        cov!(ctx, 0xca8e810b5a623926);
                        Err(format!("lock mode conflict on {table}"))
                    }
                    _ => {
                        cov!(ctx, 0xc9b7010b5a56e2e2);
                        self.locks.insert(key, mode);
                        Ok(0)
                    }
                }
            }
            Statement::Comment { object, name, .. } => {
                cov!(ctx, 0xc7ce410b5a3cf76f);
                let exists = match object {
                    ObjectKind::Table => self.cat.table(name).is_some(),
                    ObjectKind::View => self.cat.view(name).is_some(),
                    ObjectKind::Index => self.cat.indexes.contains_key(&name.to_ascii_lowercase()),
                    other => self.cat.generic.contains_key(&(*other, name.to_ascii_lowercase())),
                };
                if exists {
                    cov!(ctx, 0xc61b010b5a25d75b);
                    Ok(0)
                } else {
                    cov!(ctx, 0xc6be010b5a2e7d70);
                    Err(format!("{} \"{name}\" does not exist", object.keyword()))
                }
            }
            Statement::Call { name, .. } => {
                cov!(ctx, 0xc466410b5a0e8e7f);
                if self
                    .cat
                    .generic
                    .contains_key(&(ObjectKind::Procedure, name.to_ascii_lowercase()))
                {
                    cov!(ctx, 0xc3fb410b5a08f7c1);
                    Ok(0)
                } else {
                    cov!(ctx, 0xc2eb410b59fa848e);
                    Err(format!("procedure {name} does not exist"))
                }
            }
            Statement::RefreshMatView(name) => {
                cov!(ctx, 0xc246810b59f1aee5);
                let query = match self.cat.view(name) {
                    Some(v) if v.materialized => v.query.clone(),
                    Some(_) => {
                        cov!(ctx, 0xc16e810b59e64b09);
                        return Err(format!("\"{name}\" is not a materialized view"));
                    }
                    None => return Err(format!("materialized view \"{name}\" does not exist")),
                };
                let rs = run_query(&self.qenv(), ctx, &query)?;
                let v = self.cat.view_mut(name).expect("checked above");
                v.snapshot = Some((rs.columns, rs.rows));
                Ok(0)
            }
            Statement::Misc(m) => self.exec_misc(ctx, m),
        }
    }

    // -- DDL ------------------------------------------------------------------

    fn exec_create_table(&mut self, ctx: &mut ExecCtx, c: &CreateTable) -> Result<usize, String> {
        cov!(ctx, 0xbe3dc10b59badd0c);
        if c.temporary {
            cov!(ctx, 0xbcf7c10b59a990e2);
        }
        if c.if_not_exists && self.cat.table(&c.name).is_some() {
            cov!(ctx, 0xbbe7810b599b16e3);
            return Ok(0);
        }
        if c.columns.is_empty() {
            cov!(ctx, 0xbb0f810b598fb307);
            return Err("a table must have at least one column".into());
        }
        let mut cols = Vec::with_capacity(c.columns.len());
        for (n, col) in c.columns.iter().enumerate() {
            if c.columns[..n].iter().any(|p| p.name.eq_ignore_ascii_case(&col.name)) {
                cov!(ctx, 0xbad7410b598c9ce4);
                return Err(format!("column \"{}\" specified more than once", col.name));
            }
            let mut meta = ColumnMeta {
                name: col.name.clone(),
                ty: col.ty,
                not_null: false,
                unique: false,
                primary_key: false,
                default: None,
                check: None,
                references: None,
            };
            for con in &col.constraints {
                match con {
                    ColumnConstraint::PrimaryKey => {
                        cov!(ctx, 0xb772c10b595e931c);
                        meta.primary_key = true;
                        meta.not_null = true;
                        meta.unique = true;
                    }
                    ColumnConstraint::Unique => {
                        cov!(ctx, 0xb553010b5941b382);
                        meta.unique = true;
                    }
                    ColumnConstraint::NotNull => {
                        cov!(ctx, 0xb47a810b5936420e);
                        meta.not_null = true;
                    }
                    ColumnConstraint::Default(e) => {
                        cov!(ctx, 0xb39f010b592a7f0a);
                        meta.default = Some(e.clone());
                    }
                    ColumnConstraint::Check(e) => {
                        cov!(ctx, 0xb2c6810b591f0d96);
                        meta.check = Some(e.clone());
                    }
                    ColumnConstraint::References { table, column } => {
                        cov!(ctx, 0xb1eb010b59134a92);
                        if self.prof.enforces_foreign_keys
                            && self.cat.table(table).is_none()
                            && !table.eq_ignore_ascii_case(&c.name)
                            && !table.is_empty()
                        {
                            cov!(ctx, 0xb17e810b590d8b0c);
                            return Err(format!("referenced table \"{table}\" does not exist"));
                        }
                        meta.references = Some((table.clone(), column.clone()));
                    }
                }
            }
            cols.push(meta);
        }
        let mut checks = Vec::new();
        let mut fks = Vec::new();
        for con in &c.constraints {
            match con {
                TableConstraint::PrimaryKey(names) | TableConstraint::Unique(names) => {
                    cov!(ctx, 0xadae410b58d9d622);
                    for n in names {
                        match cols.iter_mut().find(|cm| cm.name.eq_ignore_ascii_case(n)) {
                            Some(cm) => {
                                cm.unique = true;
                                if matches!(con, TableConstraint::PrimaryKey(_)) {
                                    cm.primary_key = true;
                                    cm.not_null = true;
                                }
                            }
                            None => {
                                cov!(ctx, 0xaae8410b58b3f817);
                                return Err(format!("column \"{n}\" named in key does not exist"));
                            }
                        }
                    }
                }
                TableConstraint::Check(e) => {
                    cov!(ctx, 0xaab3010b58b13384);
                    checks.push(e.clone());
                }
                TableConstraint::ForeignKey { columns, ref_table, ref_columns } => {
                    cov!(ctx, 0xa9db010b58a5cfa8);
                    if self.prof.enforces_foreign_keys && self.cat.table(ref_table).is_none() {
                        cov!(ctx, 0xa892810b58943f86);
                        return Err(format!("referenced table \"{ref_table}\" does not exist"));
                    }
                    fks.push((columns.clone(), ref_table.clone(), ref_columns.clone()));
                }
            }
        }
        self.cat.add_table(TableMeta {
            name: c.name.clone(),
            temporary: c.temporary,
            columns: Arc::new(cols),
            checks,
            foreign_keys: fks,
            rows: vec![],
            analyzed: false,
            clustered: None,
        })?;
        Ok(0)
    }

    fn exec_create_view(&mut self, ctx: &mut ExecCtx, v: &CreateView) -> Result<usize, String> {
        cov!(ctx, 0xa48b810b585d9d41);
        if !self.prof.has_views {
            cov!(ctx, 0xa345810b584c5117);
            return Err("views are not supported".into());
        }
        if v.materialized && !self.prof.has_matviews {
            cov!(ctx, 0xa26b810b5840b6db);
            return Err("materialized views are not supported".into());
        }
        // Validate the defining query against the current schema.
        run_query(&self.qenv(), ctx, &v.query)?;
        self.cat.add_view(
            ViewMeta {
                name: v.name.clone(),
                materialized: v.materialized,
                query: (*v.query).clone(),
                snapshot: None,
            },
            v.or_replace,
        )?;
        Ok(0)
    }

    fn exec_create_index(&mut self, ctx: &mut ExecCtx, i: &CreateIndex) -> Result<usize, String> {
        cov!(ctx, 0x9f71810b58183639);
        let key = i.name.to_ascii_lowercase();
        if self.cat.indexes.contains_key(&key) {
            cov!(ctx, 0x9e61c10b5809c9d2);
            return Err(format!("index \"{}\" already exists", i.name));
        }
        let table = self
            .cat
            .table(&i.table)
            .ok_or_else(|| format!("relation \"{}\" does not exist", i.table))?;
        let mut positions = Vec::new();
        for c in &i.columns {
            match table.column_index(c) {
                Some(p) => positions.push(p),
                None => {
                    cov!(ctx, 0x9bd6410b57e73f16);
                    return Err(format!("column \"{c}\" does not exist"));
                }
            }
        }
        if i.unique {
            cov!(ctx, 0x9b69810b57e178c4);
            let mut seen = BTreeSet::new();
            for row in &table.rows {
                let k: Vec<String> = positions.iter().map(|&p| row[p].key_repr()).collect();
                if !seen.insert(k.join("\u{1}")) {
                    cov!(ctx, 0x9912010b57c1909f);
                    return Err(format!("could not create unique index \"{}\"", i.name));
                }
            }
        }
        self.cat.indexes.insert(
            key,
            IndexMeta {
                name: i.name.clone(),
                table: i.table.clone(),
                columns: i.columns.clone(),
                unique: i.unique,
            },
        );
        Ok(0)
    }

    fn exec_create_trigger(
        &mut self,
        ctx: &mut ExecCtx,
        t: &CreateTrigger,
    ) -> Result<usize, String> {
        cov!(ctx, 0x953f810b578d9e89);
        if !self.prof.has_triggers {
            cov!(ctx, 0x93f9810b577c525f);
            return Err("triggers are not supported".into());
        }
        if self.cat.table(&t.table).is_none() {
            cov!(ctx, 0x931f810b5770b823);
            return Err(format!("relation \"{}\" does not exist", t.table));
        }
        let key = t.name.to_ascii_lowercase();
        if self.cat.triggers.contains_key(&key) {
            cov!(ctx, 0x927dc10b5768340a);
            return Err(format!("trigger \"{}\" already exists", t.name));
        }
        self.cat.triggers.insert(key, Arc::new(TriggerMeta { def: t.clone() }));
        Ok(0)
    }

    fn exec_create_rule(&mut self, ctx: &mut ExecCtx, r: &CreateRule) -> Result<usize, String> {
        cov!(ctx, 0x90c9810b5750f8c6);
        if !self.prof.has_rules {
            cov!(ctx, 0x9137810b5756e114);
            return Err("rules are not supported".into());
        }
        if self.cat.table(&r.table).is_none() && self.cat.view(&r.table).is_none() {
            cov!(ctx, 0x905d810b574b46d8);
            return Err(format!("relation \"{}\" does not exist", r.table));
        }
        let key = r.name.to_ascii_lowercase();
        if self.cat.rules.contains_key(&key) && !r.or_replace {
            cov!(ctx, 0x8e07810b572b877b);
            return Err(format!("rule \"{}\" already exists", r.name));
        }
        cov!(ctx, 0x8ea9c10b5734192c);
        self.cat.rules.insert(key, Arc::new(RuleMeta { def: r.clone() }));
        Ok(0)
    }

    fn exec_alter_table(&mut self, ctx: &mut ExecCtx, a: &AlterTable) -> Result<usize, String> {
        cov!(ctx, 0x8c8a010b57173992);
        if self.cat.table(&a.name).is_none() {
            cov!(ctx, 0x8cf7810b571d1448);
            return Err(format!("relation \"{}\" does not exist", a.name));
        }
        match &a.action {
            AlterTableAction::AddColumn(c) => {
                cov!(ctx, 0x8aa2410b56fd694f);
                let default = c.constraints.iter().find_map(|con| match con {
                    ColumnConstraint::Default(e) => Some(e.clone()),
                    _ => None,
                });
                let default_value = match &default {
                    Some(e) => {
                        let mut eenv = EvalEnv { cols: &vec![], row: &[], ctx, subquery: None };
                        eval(e, &mut eenv)?
                    }
                    None => Value::Null,
                };
                let t = self.cat.table_mut(&a.name).expect("checked above");
                if t.column_index(&c.name).is_some() {
                    cov!(ctx, 0x8882410b56e082e9);
                    return Err(format!("column \"{}\" already exists", c.name));
                }
                Arc::make_mut(&mut t.columns).push(ColumnMeta {
                    name: c.name.clone(),
                    ty: c.ty,
                    not_null: false,
                    unique: false,
                    primary_key: false,
                    default,
                    check: None,
                    references: None,
                });
                for row in &mut t.rows {
                    row.push(default_value.clone());
                }
                t.analyzed = false;
                Ok(0)
            }
            AlterTableAction::DropColumn(name) => {
                cov!(ctx, 0x8443010b56a6ca81);
                let indexed = self
                    .cat
                    .indexes_on(&a.name)
                    .iter()
                    .any(|ix| ix.columns.iter().any(|c| c.eq_ignore_ascii_case(name)));
                let t = self.cat.table_mut(&a.name).expect("checked above");
                let pos = t
                    .column_index(name)
                    .ok_or_else(|| format!("column \"{name}\" does not exist"))?;
                if t.columns.len() == 1 {
                    cov!(ctx, 0x817e410b56810e72);
                    return Err("cannot drop the only column".into());
                }
                if indexed {
                    cov!(ctx, 0x80a6410b5675aa96);
                    return Err(format!("cannot drop column \"{name}\": used by an index"));
                }
                Arc::make_mut(&mut t.columns).remove(pos);
                for row in &mut t.rows {
                    row.remove(pos);
                }
                Ok(0)
            }
            AlterTableAction::RenameColumn { old, new } => {
                cov!(ctx, 0x7f5e410b5664280c);
                let t = self.cat.table_mut(&a.name).expect("checked above");
                if t.column_index(new).is_some() {
                    cov!(ctx, 0x7e4e410b5655b4d9);
                    return Err(format!("column \"{new}\" already exists"));
                }
                let pos = t
                    .column_index(old)
                    .ok_or_else(|| format!("column \"{old}\" does not exist"))?;
                Arc::make_mut(&mut t.columns)[pos].name = new.clone();
                Ok(0)
            }
            AlterTableAction::RenameTo(new) => {
                cov!(ctx, 0x7b57410b562d85c7);
                if self.cat.table(new).is_some() || self.cat.view(new).is_some() {
                    cov!(ctx, 0x7bc2410b56331c85);
                    return Err(format!("relation \"{new}\" already exists"));
                }
                let mut meta = self.cat.drop_table(&a.name)?;
                meta.name = new.clone();
                self.cat.add_table(meta)?;
                Ok(0)
            }
            AlterTableAction::AlterColumnType { name, ty } => {
                cov!(ctx, 0x7a47410b561f1294);
                let t = self.cat.table_mut(&a.name).expect("checked above");
                let pos = t
                    .column_index(name)
                    .ok_or_else(|| format!("column \"{name}\" does not exist"))?;
                Arc::make_mut(&mut t.columns)[pos].ty = *ty;
                for row in &mut t.rows {
                    row[pos] = std::mem::replace(&mut row[pos], Value::Null).coerce_to(*ty);
                }
                Ok(0)
            }
        }
    }

    fn exec_drop(&mut self, ctx: &mut ExecCtx, d: &DropStmt) -> Result<usize, String> {
        cov!(ctx, 0x76a9810b55edd779);
        let missing = |ctx: &mut ExecCtx, what: String, if_exists: bool| -> Result<usize, String> {
            if if_exists {
                cov!(ctx, 0x759b010b55df8d0e);
                Ok(0)
            } else {
                cov!(ctx, 0x748b410b55d120a7);
                Err(what)
            }
        };
        match d.object {
            ObjectKind::Table => {
                if self.cat.table(&d.name).is_none() {
                    return missing(
                        ctx,
                        format!("table \"{}\" does not exist", d.name),
                        d.if_exists,
                    );
                }
                cov!(ctx, 0x7233010b55b1241e);
                self.cat.drop_table(&d.name)?;
                Ok(0)
            }
            ObjectKind::View | ObjectKind::MaterializedView => {
                cov!(ctx, 0x7192010b55a8b469);
                let key = d.name.to_ascii_lowercase();
                if self.cat.views.remove(&key).is_none() {
                    return missing(
                        ctx,
                        format!("view \"{}\" does not exist", d.name),
                        d.if_exists,
                    );
                }
                Ok(0)
            }
            ObjectKind::Index => {
                cov!(ctx, 0x6f03810b5585d81d);
                if self.cat.indexes.remove(&d.name.to_ascii_lowercase()).is_none() {
                    return missing(
                        ctx,
                        format!("index \"{}\" does not exist", d.name),
                        d.if_exists,
                    );
                }
                Ok(0)
            }
            ObjectKind::Trigger => {
                cov!(ctx, 0x45c2810b60ed2602);
                if self.cat.triggers.remove(&d.name.to_ascii_lowercase()).is_none() {
                    return missing(
                        ctx,
                        format!("trigger \"{}\" does not exist", d.name),
                        d.if_exists,
                    );
                }
                Ok(0)
            }
            ObjectKind::Rule => {
                cov!(ctx, 0x42fdc10b60c769f3);
                if self.cat.rules.remove(&d.name.to_ascii_lowercase()).is_none() {
                    return missing(
                        ctx,
                        format!("rule \"{}\" does not exist", d.name),
                        d.if_exists,
                    );
                }
                Ok(0)
            }
            other => {
                // Long-tail objects live in the generic catalog.
                ctx.hit_idx(site_id!(0x4072810b60a4e603), other as u64);
                let key = (other, d.name.to_ascii_lowercase());
                if self.cat.generic.remove(&key).is_none() {
                    return missing(
                        ctx,
                        format!("{} \"{}\" does not exist", other.keyword(), d.name),
                        d.if_exists,
                    );
                }
                cov!(ctx, 0x3ef6810b6090c0e2);
                Ok(0)
            }
        }
    }

    fn exec_generic_ddl(&mut self, ctx: &mut ExecCtx, g: &GenericDdl) -> Result<usize, String> {
        // One dispatch site per (verb, object) pair.
        ctx.hit_idx(site_id!(0x3d43410b6079a0ce), (g.verb as u64) << 8 | g.object as u64);
        let key = (g.object, g.name.to_ascii_lowercase());
        match g.verb {
            DdlVerb::Create => {
                if self.cat.generic.contains_key(&key) {
                    cov!(ctx, 0x3c9e410b6070c459);
                    return Err(format!("{} \"{}\" already exists", g.object.keyword(), g.name));
                }
                cov!(ctx, 0x3b8e810b606257f2);
                self.cat.generic.insert(
                    key,
                    GenericObject { kind: g.object, name: g.name.clone(), version: 1 },
                );
                Ok(0)
            }
            DdlVerb::Alter => match self.cat.generic.get_mut(&key) {
                Some(obj) => {
                    cov!(ctx, 0x3a12410b604e2c05);
                    obj.version += 1;
                    if obj.version > 3 {
                        // Repeatedly altered objects exercise a deeper path.
                        cov!(ctx, 0x393b010b6042dc8d);
                    }
                    Ok(0)
                }
                None => {
                    cov!(ctx, 0x3897010b603a1b48);
                    Err(format!("{} \"{}\" does not exist", g.object.keyword(), g.name))
                }
            },
            DdlVerb::Drop => {
                // DROP arrives as Statement::Drop; reaching here means the
                // generic fallback path (defensive).
                cov!(ctx, 0x36ae010b60202909);
                match self.cat.generic.remove(&key) {
                    Some(_) => Ok(0),
                    None => Err(format!("{} \"{}\" does not exist", g.object.keyword(), g.name)),
                }
            }
        }
    }

    // -- DML ------------------------------------------------------------------

    /// The rules on `table` for `event`, when one of them is an INSTEAD
    /// rule: the statement then runs their actions ([`rule_actions`])
    /// instead of itself. Otherwise the actions run here, in addition to the
    /// statement.
    fn rewrite_by_rules(
        &mut self,
        ctx: &mut ExecCtx,
        table: &str,
        event: DmlEvent,
    ) -> Result<Option<Vec<Arc<RuleMeta>>>, String> {
        if !self.prof.has_rules {
            return Ok(None);
        }
        let rules: Vec<Arc<RuleMeta>> =
            self.cat.rules_on(table, event).into_iter().cloned().collect();
        if rules.is_empty() {
            return Ok(None);
        }
        cov!(ctx, 0x3193810b5fdab469);
        let mut instead = false;
        for r in &rules {
            if r.def.instead {
                cov!(ctx, 0x30f1c10b5fd23050);
                instead = true;
            }
            if r.def.action.is_none() {
                // DO INSTEAD NOTHING swallows the statement.
                cov!(ctx, 0x2f06410b5fb7fa19);
            }
        }
        if instead {
            Ok(Some(rules))
        } else {
            // Non-INSTEAD rules run in addition to the original statement.
            for a in rule_actions(&rules) {
                self.exec_nested(ctx, a)?;
            }
            Ok(None)
        }
    }

    fn exec_nested(&mut self, ctx: &mut ExecCtx, stmt: &Statement) -> Result<usize, String> {
        if ctx.depth >= MAX_TRIGGER_DEPTH {
            cov!(ctx, 0x2bd7810b5f8cc27c);
            return Err("trigger/rule recursion limit exceeded".into());
        }
        ctx.depth += 1;
        let r = self.exec_statement(ctx, stmt);
        ctx.depth -= 1;
        r
    }

    fn fire_triggers(
        &mut self,
        ctx: &mut ExecCtx,
        table: &str,
        event: DmlEvent,
        timing: TriggerTiming,
        affected: usize,
    ) -> Result<(), String> {
        if !self.prof.has_triggers || affected == 0 {
            return Ok(());
        }
        let trigs: Vec<Arc<TriggerMeta>> = self
            .cat
            .triggers_on(table, event)
            .into_iter()
            .filter(|t| t.def.timing == timing)
            .cloned()
            .collect();
        if trigs.is_empty() {
            return Ok(());
        }
        cov!(ctx, 0x249f810b5f2aab6e);
        // A BEFORE trigger may drop or alter the table, while the statement
        // goes on with rows built against the column list it read. Hold that
        // list (an ALTER TABLE then copies it on write, and a recreated table
        // has another), and fail the statement unless the table still has it.
        let read = match timing {
            TriggerTiming::Before => self.cat.table(table).map(|t| Arc::clone(&t.columns)),
            TriggerTiming::After => None,
        };
        for t in trigs {
            let fires = if t.def.for_each_row { affected.min(MAX_TRIGGER_FIRES) } else { 1 };
            if affected > MAX_TRIGGER_FIRES && t.def.for_each_row {
                cov!(ctx, 0x23c6810b5f1f2c62); // fire-cap path
            }
            for _ in 0..fires {
                // Trigger action errors abort the outer statement, like real
                // engines.
                self.exec_nested(ctx, &t.def.action)?;
                if ctx.crashed() {
                    return Ok(());
                }
            }
        }
        if let Some(columns) = read {
            if !self.cat.table(table).is_some_and(|t| Arc::ptr_eq(&t.columns, &columns)) {
                cov!(ctx, 0x8367e58f67d22ef3);
                return Err(format!(
                    "relation \"{table}\" was dropped or altered by a BEFORE trigger"
                ));
            }
        }
        Ok(())
    }

    fn exec_insert(&mut self, ctx: &mut ExecCtx, i: &Insert) -> Result<usize, String> {
        cov!(ctx, 0x2029c10b5eee0c77);
        self.check_privilege(ctx, &i.table, "INSERT")?;
        if let Some(rules) = self.rewrite_by_rules(ctx, &i.table, DmlEvent::Insert)? {
            cov!(ctx, 0x20cb810b5ef69090);
            let mut n = 0;
            for a in rule_actions(&rules) {
                n += self.exec_nested(ctx, a)?;
                if ctx.crashed() {
                    return Ok(n);
                }
            }
            return Ok(n);
        }
        if self.cat.view(&i.table).is_some() {
            cov!(ctx, 0x1e09c10b5ed12611);
            return Err(format!("cannot insert into view \"{}\"", i.table));
        }
        // BEFORE triggers run before the rows are built, so the statement
        // keeps the columns it started with; `fire_triggers` fails it if a
        // trigger dropped or altered the table. The rows are read through
        // the catalog and need no copy.
        let columns = match self.cat.table(&i.table) {
            Some(t) => Arc::clone(&t.columns),
            None => return Err(format!("relation \"{}\" does not exist", i.table)),
        };

        // Column targets.
        let positions: Vec<usize> = if i.columns.is_empty() {
            (0..columns.len()).collect()
        } else {
            cov!(ctx, 0x1bb3810b5eb15fe8);
            let mut v = Vec::with_capacity(i.columns.len());
            for c in &i.columns {
                v.push(
                    columns
                        .iter()
                        .position(|col| col.name.eq_ignore_ascii_case(c))
                        .ok_or_else(|| format!("column \"{c}\" does not exist"))?,
                );
            }
            v
        };

        // Source rows (charged against the per-case row budget like any
        // other materialization).
        let src_rows: Vec<Row> = match &i.source {
            InsertSource::Values(rows) => {
                cov!(ctx, 0x184e410b5e8341bc);
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut row = Vec::with_capacity(r.len());
                    for e in r {
                        let mut run_subq = make_subquery_runner(&self.cat, &self.prof, &self.user);
                        let mut eenv =
                            EvalEnv { cols: &vec![], row: &[], ctx, subquery: Some(&mut run_subq) };
                        row.push(eval(e, &mut eenv)?);
                    }
                    out.push(row);
                }
                out
            }
            InsertSource::Query(q) => {
                cov!(ctx, 0x14b2010b5e522f69);
                run_query(&self.qenv(), ctx, q)?.rows
            }
            InsertSource::DefaultValues => {
                cov!(ctx, 0x13d6810b5e466c65);
                vec![vec![]]
            }
        };
        ctx.charge_rows(src_rows.len())?;

        self.fire_triggers(ctx, &i.table, DmlEvent::Insert, TriggerTiming::Before, src_rows.len())?;
        if ctx.crashed() {
            return Ok(0);
        }

        let mut inserted = 0usize;
        for src in src_rows {
            if src.len() > positions.len() {
                cov!(ctx, 0x1005c10b5e12a9e3);
                if i.ignore {
                    cov!(ctx, 0x1072410b5e186969);
                    continue;
                }
                return Err("INSERT has more expressions than target columns".into());
            }
            // Build the full row: defaults then provided values, coerced.
            let mut row: Row = Vec::with_capacity(columns.len());
            for col in columns.iter() {
                match &col.default {
                    Some(e) => {
                        let mut eenv = EvalEnv { cols: &vec![], row: &[], ctx, subquery: None };
                        row.push(eval(e, &mut eenv)?.coerce_to(col.ty));
                    }
                    None => row.push(Value::Null),
                }
            }
            for (vi, v) in src.into_iter().enumerate() {
                let pos = positions[vi];
                row[pos] = v.coerce_to(columns[pos].ty);
            }
            match self.validate_row(ctx, &i.table, &row) {
                Ok(()) => {}
                Err(e) => {
                    if i.ignore {
                        cov!(ctx, 0x0b57010b5dd2e065); // IGNORE swallows the violation
                        continue;
                    }
                    return Err(e);
                }
            }
            let t = self.cat.table_mut(&i.table).expect("exists");
            if t.rows.len() >= MAX_TABLE_ROWS {
                cov!(ctx, 0x09a6810b5dbc0b15);
                return Err(format!("table \"{}\" is full", i.table));
            }
            t.rows.push(row);
            t.analyzed = false;
            inserted += 1;
        }
        // Batch-size-dependent paths (single-row fast path vs bulk loader).
        ctx.hit_idx(
            site_id!(0x0829810b5da7cac4),
            match inserted {
                0 => 0,
                1 => 1,
                2..=7 => 2,
                _ => 3,
            },
        );
        self.fire_triggers(ctx, &i.table, DmlEvent::Insert, TriggerTiming::After, inserted)?;
        Ok(inserted)
    }

    /// Constraint validation for one candidate row.
    fn validate_row(&self, ctx: &mut ExecCtx, table: &str, row: &Row) -> Result<(), String> {
        let t = self.cat.table(table).expect("exists");
        // Only CHECK constraints read the row by column name.
        let bindings: LazyCell<Bindings, _> =
            LazyCell::new(|| t.columns.iter().map(|c| (None, Catalog::norm(&c.name))).collect());
        for (pos, col) in t.columns.iter().enumerate() {
            if col.not_null && row[pos].is_null() {
                cov!(ctx, 0x03b2010b5d6afc39);
                return Err(format!("null value in column \"{}\" violates not-null", col.name));
            }
            if col.unique && !row[pos].is_null() {
                cov!(ctx, 0x02da810b5d5fa5f5);
                if t.rows.iter().any(|r| r[pos].sql_eq(&row[pos]) == Some(true)) {
                    cov!(ctx, 0x0192010b5d4e15d3);
                    return Err(format!(
                        "duplicate key value violates unique constraint on \"{}\"",
                        col.name
                    ));
                }
            }
            if let Some(check) = &col.check {
                cov!(ctx, 0xffdf410b5d370357);
                let mut eenv = EvalEnv { cols: &bindings, row, ctx, subquery: None };
                let v = eval(check, &mut eenv)?;
                if !v.is_null() && !v.is_truthy() {
                    cov!(ctx, 0xff06010b5d2b7d7f);
                    return Err(format!("check constraint on column \"{}\" violated", col.name));
                }
            }
            if let Some((ref_table, ref_col)) = &col.references {
                if self.prof.enforces_foreign_keys && !row[pos].is_null() {
                    cov!(ctx, 0xfe9b410b5d25ed8d);
                    let parent = self
                        .cat
                        .table(ref_table)
                        .ok_or_else(|| format!("referenced table \"{ref_table}\" missing"))?;
                    let rpos = match ref_col {
                        Some(c) => parent
                            .column_index(c)
                            .ok_or_else(|| format!("referenced column \"{c}\" missing"))?,
                        None => 0,
                    };
                    if !parent.rows.iter().any(|r| r[rpos].sql_eq(&row[pos]) == Some(true)) {
                        cov!(ctx, 0xfc0f010b5d034e6d);
                        return Err(format!(
                            "insert violates foreign key referencing \"{ref_table}\""
                        ));
                    }
                }
            }
        }
        for check in &t.checks {
            cov!(ctx, 0xfa91810b5cef0084);
            let mut eenv = EvalEnv { cols: &bindings, row, ctx, subquery: None };
            let v = eval(check, &mut eenv)?;
            if !v.is_null() && !v.is_truthy() {
                cov!(ctx, 0xf9b6410b5ce3444c);
                return Err("table check constraint violated".into());
            }
        }
        // Unique indexes.
        for ix in self.cat.indexes_on(table) {
            if !ix.unique {
                continue;
            }
            cov!(ctx, 0xf687810b5cb80caf);
            let positions: Vec<usize> =
                ix.columns.iter().filter_map(|c| t.column_index(c)).collect();
            if positions.len() != ix.columns.len() {
                continue;
            }
            let key: Vec<String> = positions.iter().map(|&p| row[p].key_repr()).collect();
            if t.rows
                .iter()
                .any(|r| positions.iter().map(|&p| r[p].key_repr()).collect::<Vec<_>>() == key)
            {
                cov!(ctx, 0xf576c10b5ca98518);
                return Err(format!("duplicate key violates unique index \"{}\"", ix.name));
            }
        }
        Ok(())
    }

    fn exec_update(&mut self, ctx: &mut ExecCtx, u: &Update) -> Result<usize, String> {
        cov!(ctx, 0xf3c5410b5c929498);
        self.check_privilege(ctx, &u.table, "UPDATE")?;
        if let Some(rules) = self.rewrite_by_rules(ctx, &u.table, DmlEvent::Update)? {
            cov!(ctx, 0xf2b5c10b5c842efd);
            let mut n = 0;
            for a in rule_actions(&rules) {
                n += self.exec_nested(ctx, a)?;
            }
            return Ok(n);
        }
        let table = self
            .cat
            .table(&u.table)
            .ok_or_else(|| format!("relation \"{}\" does not exist", u.table))?;
        let label = Catalog::norm(&u.table);
        let bindings: Bindings =
            table.columns.iter().map(|c| (Some(label.clone()), Catalog::norm(&c.name))).collect();
        // CHECK constraints read the new image by unqualified column name.
        let check_bindings: LazyCell<Bindings, _> = LazyCell::new(|| {
            table.columns.iter().map(|c| (None, Catalog::norm(&c.name))).collect()
        });
        let mut targets = Vec::with_capacity(u.assignments.len());
        for (c, e) in &u.assignments {
            let pos =
                table.column_index(c).ok_or_else(|| format!("column \"{c}\" does not exist"))?;
            targets.push((pos, e));
        }
        let mut updated = 0usize;
        let mut new_rows = table.rows.clone();
        for row in new_rows.iter_mut() {
            let keep = match &u.where_ {
                None => true,
                Some(w) => {
                    let mut run_subq = make_subquery_runner(&self.cat, &self.prof, &self.user);
                    let mut eenv =
                        EvalEnv { cols: &bindings, row, ctx, subquery: Some(&mut run_subq) };
                    eval(w, &mut eenv)?.is_truthy()
                }
            };
            if !keep {
                continue;
            }
            cov!(ctx, 0xe9c9810b5c0adcab);
            let old = row.clone();
            for (pos, e) in &targets {
                let mut run_subq = make_subquery_runner(&self.cat, &self.prof, &self.user);
                let mut eenv =
                    EvalEnv { cols: &bindings, row: &old, ctx, subquery: Some(&mut run_subq) };
                row[*pos] = eval(e, &mut eenv)?.coerce_to(table.columns[*pos].ty);
            }
            // NOT NULL and CHECK re-validation on the new image.
            for (pos, col) in table.columns.iter().enumerate() {
                if col.not_null && row[pos].is_null() {
                    cov!(ctx, 0xe8ba010b5bfc7710);
                    return Err(format!("null value in column \"{}\" violates not-null", col.name));
                }
                if let Some(check) = &col.check {
                    let mut eenv = EvalEnv { cols: &check_bindings, row, ctx, subquery: None };
                    let v = eval(check, &mut eenv)?;
                    if !v.is_null() && !v.is_truthy() {
                        cov!(ctx, 0xe58a410b5bd12443);
                        return Err(format!("check constraint on \"{}\" violated", col.name));
                    }
                }
            }
            updated += 1;
        }
        self.fire_triggers(ctx, &u.table, DmlEvent::Update, TriggerTiming::Before, updated)?;
        if ctx.crashed() {
            return Ok(0);
        }
        let t = self.cat.table_mut(&u.table).expect("exists");
        t.rows = new_rows;
        t.analyzed = false;
        ctx.hit_idx(
            site_id!(0xe39f810b5bb70270),
            match updated {
                0 => 0,
                1 => 1,
                2..=7 => 2,
                _ => 3,
            },
        );
        self.fire_triggers(ctx, &u.table, DmlEvent::Update, TriggerTiming::After, updated)?;
        Ok(updated)
    }

    fn exec_delete(&mut self, ctx: &mut ExecCtx, d: &Delete) -> Result<usize, String> {
        cov!(ctx, 0xdf97c10b5b804bc7);
        self.check_privilege(ctx, &d.table, "DELETE")?;
        if let Some(rules) = self.rewrite_by_rules(ctx, &d.table, DmlEvent::Delete)? {
            cov!(ctx, 0xe039810b5b88cfe0);
            let mut n = 0;
            for a in rule_actions(&rules) {
                n += self.exec_nested(ctx, a)?;
            }
            return Ok(n);
        }
        let table = self
            .cat
            .table(&d.table)
            .ok_or_else(|| format!("relation \"{}\" does not exist", d.table))?;
        let label = Catalog::norm(&d.table);
        let bindings: Bindings =
            table.columns.iter().map(|c| (Some(label.clone()), Catalog::norm(&c.name))).collect();
        let mut kept = Vec::with_capacity(table.rows.len());
        let mut deleted = 0usize;
        for row in &table.rows {
            let gone = match &d.where_ {
                None => true,
                Some(w) => {
                    let mut run_subq = make_subquery_runner(&self.cat, &self.prof, &self.user);
                    let mut eenv =
                        EvalEnv { cols: &bindings, row, ctx, subquery: Some(&mut run_subq) };
                    eval(w, &mut eenv)?.is_truthy()
                }
            };
            if gone {
                cov!(ctx, 0xb282810b66b37802);
                deleted += 1;
            } else {
                kept.push(row.clone());
            }
        }
        self.fire_triggers(ctx, &d.table, DmlEvent::Delete, TriggerTiming::Before, deleted)?;
        if ctx.crashed() {
            return Ok(0);
        }
        let t = self.cat.table_mut(&d.table).expect("exists");
        t.rows = kept;
        t.analyzed = false;
        self.fire_triggers(ctx, &d.table, DmlEvent::Delete, TriggerTiming::After, deleted)?;
        Ok(deleted)
    }

    fn exec_with(&mut self, ctx: &mut ExecCtx, w: &WithStmt) -> Result<usize, String> {
        cov!(ctx, 0xaf87c10b668ae2fc);
        let mut temp_tables: Vec<String> = Vec::new();
        let mut result = Ok(0usize);
        for cte in &w.ctes {
            match &cte.body {
                CteBody::Dml(dml) => {
                    cov!(ctx, 0xad67410b666deefe);
                    // The § V.B case-study path: PostgreSQL's RewriteQuery
                    // handles DML inside WITH by recursing into the rule
                    // system; a DO INSTEAD NOTIFY rule replaces the DML with
                    // a utility statement the planner cannot plan — the
                    // jointree ends up NULL and replace_empty_jointree
                    // dereferences it.
                    if self.prof.has_rules {
                        let (target, event) = match &**dml {
                            Statement::Insert(i) => (Some(i.table.clone()), DmlEvent::Insert),
                            Statement::Update(u) => (Some(u.table.clone()), DmlEvent::Update),
                            Statement::Delete(d) => (Some(d.table.clone()), DmlEvent::Delete),
                            _ => (None, DmlEvent::Insert),
                        };
                        if let Some(target) = target {
                            let has_notify_instead_rule =
                                self.cat.rules_on(&target, event).iter().any(|r| {
                                    r.def.instead
                                        && matches!(
                                            r.def.action.as_deref(),
                                            Some(Statement::Notify { .. })
                                        )
                                });
                            if has_notify_instead_rule {
                                cov!(ctx, 0xa851810b6628fb82);
                                if let Some(bug) = self.oracle.special(Special::PgNotifyWithRewrite)
                                {
                                    ctx.crash = Some(CrashReport::for_bug(bug));
                                    return Ok(0);
                                }
                            }
                        }
                    }
                    let r = self.exec_nested(ctx, dml);
                    if ctx.crashed() {
                        return Ok(0);
                    }
                    if let Err(e) = r {
                        result = Err(e);
                        break;
                    }
                }
                CteBody::Query(q) => {
                    cov!(ctx, 0xa3db010b65ec4827);
                    let rs = match run_query(&self.qenv(), ctx, q) {
                        Ok(rs) => rs,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    };
                    // Materialize the CTE as a temporary table visible to the
                    // body statement.
                    let meta = result_to_table(&cte.name, rs, true);
                    match self.cat.add_table(meta) {
                        Ok(()) => temp_tables.push(cte.name.clone()),
                        Err(e) => {
                            cov!(ctx, 0xa1bac10b65cf5af5);
                            result = Err(e);
                            break;
                        }
                    }
                }
            }
        }
        if result.is_ok() && !ctx.crashed() {
            result = self.exec_nested(ctx, &w.body);
        }
        for t in temp_tables {
            let _ = self.cat.drop_table(&t);
        }
        result
    }

    fn exec_copy(&mut self, ctx: &mut ExecCtx, c: &CopyStmt) -> Result<usize, String> {
        cov!(ctx, 0x9d0d410b658fb373);
        for opt in &c.options {
            if opt.eq_ignore_ascii_case("CSV") || opt.eq_ignore_ascii_case("HEADER") {
                cov!(ctx, 0x9db1c10b65988250);
            }
        }
        match (&c.source, c.direction) {
            (CopySource::Query(q), CopyDirection::To) => {
                cov!(ctx, 0x9b59c10b65788c93);
                let rs = run_query(&self.qenv(), ctx, q)?;
                Ok(rs.rows.len())
            }
            (CopySource::Table { name, columns }, CopyDirection::To) => {
                cov!(ctx, 0x9ab6810b656fdfb2);
                self.check_privilege(ctx, name, "SELECT")?;
                let t = self
                    .cat
                    .table(name)
                    .ok_or_else(|| format!("relation \"{name}\" does not exist"))?;
                for col in columns {
                    if t.column_index(col).is_none() {
                        cov!(ctx, 0x9903010b6558b8d2);
                        return Err(format!("column \"{col}\" does not exist"));
                    }
                }
                Ok(t.rows.len())
            }
            (CopySource::Table { name, .. }, CopyDirection::From) => {
                cov!(ctx, 0x971a410b653ecd5f);
                self.check_privilege(ctx, name, "INSERT")?;
                if self.cat.table(name).is_none() {
                    return Err(format!("relation \"{name}\" does not exist"));
                }
                // No stdin in the harness: COPY FROM parses and validates but
                // transfers zero rows.
                Ok(0)
            }
            (CopySource::Query(_), CopyDirection::From) => {
                cov!(ctx, 0x95d6010b652db0c9);
                Err("cannot COPY FROM into a query".into())
            }
        }
    }

    // -- the statement long tail ------------------------------------------------

    fn exec_misc(&mut self, ctx: &mut ExecCtx, m: &MiscStmt) -> Result<usize, String> {
        use StandaloneKind as K;
        // Per-kind site plus a transaction-sensitive branch: the same
        // statement inside and outside a transaction covers differently.
        ctx.hit_idx(site_id!(0x9347410b650acdb1), m.kind as u64);
        if self.in_txn() {
            ctx.hit_idx(site_id!(0x9202c10b64f9aa4f), m.kind as u64);
        }
        let arg1 = m.arg.as_deref().and_then(|a| a.split_whitespace().next()).map(str::to_string);
        match m.kind {
            K::DeclareCursor => {
                let name = arg1.ok_or("DECLARE requires a cursor name")?;
                if !self.cursors.insert(name.to_ascii_lowercase()) {
                    cov!(ctx, 0x91cb010b64f6a1c4);
                    return Err(format!("cursor \"{name}\" already exists"));
                }
                cov!(ctx, 0x90bb010b64e82e91);
                Ok(0)
            }
            K::Fetch | K::Move => {
                cov!(ctx, 0x8fe3810b64dcd84d);
                let name = arg1.unwrap_or_default();
                if self.cursors.contains(&name.to_ascii_lowercase()) {
                    cov!(ctx, 0x8ed3410b64ce5e4e);
                    Ok(1)
                } else {
                    cov!(ctx, 0x8dc2010b64bfc91f);
                    Err(format!("cursor \"{name}\" does not exist"))
                }
            }
            K::CloseCursor => {
                cov!(ctx, 0x8d1e810b64b71572);
                let name = arg1.unwrap_or_default();
                if self.cursors.remove(&name.to_ascii_lowercase()) {
                    Ok(0)
                } else {
                    cov!(ctx, 0x8c7b410b64ae6891);
                    Err(format!("cursor \"{name}\" does not exist"))
                }
            }
            K::PrepareStmt => {
                cov!(ctx, 0x8bda410b64a5f8dc);
                let name = arg1.ok_or("PREPARE requires a name")?;
                if !self.prepared.insert(name.to_ascii_lowercase()) {
                    cov!(ctx, 0x8aca410b649785a9);
                    return Err(format!("prepared statement \"{name}\" already exists"));
                }
                Ok(0)
            }
            K::ExecuteStmt | K::ExecuteImmediate => {
                cov!(ctx, 0x88aac10b647aacdb);
                let name = arg1.unwrap_or_default();
                if m.kind == K::ExecuteImmediate
                    || self.prepared.contains(&name.to_ascii_lowercase())
                {
                    cov!(ctx, 0x8807410b6471f92e);
                    Ok(0)
                } else {
                    cov!(ctx, 0x86f6010b646363ff);
                    Err(format!("prepared statement \"{name}\" does not exist"))
                }
            }
            K::Deallocate => {
                cov!(ctx, 0x8652810b645ab052);
                let name = arg1.unwrap_or_default();
                if self.prepared.remove(&name.to_ascii_lowercase()) {
                    Ok(0)
                } else {
                    cov!(ctx, 0x85af410b64520371);
                    Err(format!("prepared statement \"{name}\" does not exist"))
                }
            }
            K::XaBegin => {
                if self.xa_active {
                    cov!(ctx, 0x8392010b643567cf);
                    return Err("XA transaction already active".into());
                }
                cov!(ctx, 0x8432c10b643dd0b8);
                self.xa_active = true;
                Ok(0)
            }
            K::XaCommit | K::XaRollback => {
                if !self.xa_active {
                    cov!(ctx, 0x8213410b6420f7ea);
                    return Err("no active XA transaction".into());
                }
                cov!(ctx, 0x8103410b641284b7);
                self.xa_active = false;
                Ok(0)
            }
            K::PrepareTransaction => {
                cov!(ctx, 0x8062010b640a0e36);
                if self.txn.take().is_none() {
                    cov!(ctx, 0x80cf010b640fdb54);
                    return Err("PREPARE TRANSACTION requires a transaction".into());
                }
                self.prepared_txns.insert(arg1.unwrap_or_default());
                Ok(0)
            }
            K::CommitPrepared | K::RollbackPrepared => {
                cov!(ctx, 0x7ee3810b63f5a51d);
                let gid = arg1.unwrap_or_default();
                if self.prepared_txns.remove(&gid) {
                    cov!(ctx, 0x7dd3410b63e72b1e);
                    Ok(0)
                } else {
                    cov!(ctx, 0x7cc6010b63d902af);
                    Err(format!("prepared transaction \"{gid}\" does not exist"))
                }
            }
            K::Handler => {
                cov!(ctx, 0x7c22810b63d04f02);
                self.handler_open = !self.handler_open;
                if self.handler_open {
                    cov!(ctx, 0x7b13010b63c1e967);
                }
                Ok(0)
            }
            K::Use => {
                cov!(ctx, 0x7a6f810b63b935ba);
                self.current_db = arg1.ok_or("USE requires a database name")?;
                Ok(0)
            }
            K::SetRole | K::SetSessionAuthorization => {
                cov!(ctx, 0x79ca810b63b05945);
                match arg1 {
                    Some(u)
                        if !u.eq_ignore_ascii_case("NONE")
                            && !u.eq_ignore_ascii_case("DEFAULT") =>
                    {
                        cov!(ctx, 0x77aa410b63936c13);
                        self.user = u;
                    }
                    _ => {
                        cov!(ctx, 0x76d2c10b638815cf);
                        self.user = "admin".into();
                    }
                }
                Ok(0)
            }
            K::SetTransaction | K::SetConstraints => {
                cov!(ctx, 0x769ac10b63850678);
                if !self.in_txn() {
                    cov!(ctx, 0x7556410b6373e316);
                    return Err(format!(
                        "{} can only be used in transaction blocks",
                        m.kind.name()
                    ));
                }
                Ok(0)
            }
            K::LockTables => {
                cov!(ctx, 0x73da010b635fb729);
                let name = arg1.unwrap_or_default();
                if !name.is_empty() && self.cat.table(&name).is_none() {
                    cov!(ctx, 0x72ca410b63514ac2);
                    return Err(format!("table \"{name}\" does not exist"));
                }
                self.locks.insert(name.to_ascii_lowercase(), "TABLE".into());
                Ok(0)
            }
            K::UnlockTables => {
                cov!(ctx, 0x70dec10b6337148b);
                if self.locks.is_empty() {
                    cov!(ctx, 0x714b410b633cd411);
                }
                self.locks.clear();
                Ok(0)
            }
            K::RenameTable => {
                cov!(ctx, 0x6f2dc10b632031a3);
                // `RENAME TABLE a TO b`
                let words: Vec<&str> = m.arg.as_deref().unwrap_or("").split_whitespace().collect();
                if words.len() >= 3 && words[1].eq_ignore_ascii_case("TO") {
                    cov!(ctx, 0x6e52010b631467d3);
                    let (old, new) = (words[0], words[2]);
                    if self.cat.table(new).is_some() {
                        cov!(ctx, 0x6ef6c10b631d3d7c);
                        return Err(format!("table \"{new}\" already exists"));
                    }
                    let mut meta = self.cat.drop_table(old)?;
                    meta.name = new.to_string();
                    self.cat.add_table(meta)?;
                    Ok(0)
                } else {
                    cov!(ctx, 0x6d42010b6305f4a0);
                    Err("malformed RENAME TABLE".into())
                }
            }
            K::RenameUser | K::SetPassword | K::SetDefaultRole => {
                cov!(ctx, 0x6aee410b62e6726f);
                if self.cat.users.is_empty() {
                    cov!(ctx, 0x6b5b410b62ec3f8d);
                }
                Ok(0)
            }
            K::CheckTable | K::ChecksumTable | K::OptimizeTable | K::RepairTable | K::Rebuild => {
                cov!(ctx, 0x6ab5c10b62e35580);
                let name = arg1.unwrap_or_default();
                match self.cat.table(&name) {
                    Some(t) => {
                        if t.rows.is_empty() {
                            cov!(ctx, 0x6862810b62c3e0e7);
                        } else {
                            cov!(ctx, 0x68cec10b62c999a1);
                        }
                        Ok(0)
                    }
                    None => {
                        cov!(ctx, 0x682ac10b62c0d85c);
                        Err(format!("table \"{name}\" does not exist"))
                    }
                }
            }
            K::ExecProcedure => {
                cov!(ctx, 0x660b810b62a4065a);
                let name = arg1.unwrap_or_default();
                if self
                    .cat
                    .generic
                    .contains_key(&(ObjectKind::Procedure, name.to_ascii_lowercase()))
                {
                    cov!(ctx, 0x6422010b628a0683);
                    Ok(0)
                } else {
                    cov!(ctx, 0x64c3010b62927638);
                    Err(format!("procedure {name} does not exist"))
                }
            }
            K::Put => {
                cov!(ctx, 0x626f410b6272f407);
                self.settings.insert(
                    format!("put.{}", arg1.unwrap_or_default().to_ascii_lowercase()),
                    String::new(),
                );
                Ok(0)
            }
            K::Shutdown | K::Restart | K::KillStmt => {
                cov!(ctx, 0x60ba410b625ba45f);
                // Administrative statements are rejected in the harness (they
                // would kill the server under test).
                Err(format!("{} is not permitted", m.kind.name()))
            }
            K::FlushStmt
            | K::ResetPersist
            | K::ResetMaster
            | K::ResetSlave
            | K::PurgeBinaryLogs => {
                cov!(ctx, 0x5f76010b624a87c9);
                self.settings.retain(|k, _| !k.starts_with("cache."));
                Ok(0)
            }
            K::LoadData | K::LoadXml | K::ImportTable | K::BulkImport => {
                cov!(ctx, 0x5ed2c10b6241dae8);
                if self.cat.tables.is_empty() {
                    cov!(ctx, 0x5d8a410b62304ac6);
                    return Err("no table to load into".into());
                }
                Ok(0)
            }
            K::Signal | K::Resignal => {
                cov!(ctx, 0x5d1dc10b622a8b40);
                Err("signal raised".into())
            }
            k if k.name().starts_with("SHOW") => {
                // All SHOW variants branch on catalog emptiness.
                ctx.hit_idx(site_id!(0x5aca810b620b16a7), k as u64);
                if self.cat.tables.is_empty() {
                    ctx.hit_idx(site_id!(0x5b37810b6210e3c5), k as u64);
                } else if self.cat.total_rows() > 0 {
                    ctx.hit_idx(site_id!(0x59f1410b61ff90cf), k as u64);
                }
                Ok(1)
            }
            _ => {
                // Default behaviour: a branch keyed by whether any schema
                // exists yet, so even exotic statements have order-sensitive
                // coverage.
                if self.cat.tables.is_empty() && self.cat.generic.is_empty() {
                    ctx.hit_idx(site_id!(0x5870810b61eaea8a), m.kind as u64);
                } else {
                    ctx.hit_idx(site_id!(0x58e1410b61f11d9c), m.kind as u64);
                }
                Ok(0)
            }
        }
    }
}

/// The actions of `rules`, in order (DO NOTHING has none).
fn rule_actions(rules: &[Arc<RuleMeta>]) -> impl Iterator<Item = &Statement> {
    rules.iter().filter_map(|r| r.def.action.as_deref())
}

/// Does running `cur` directly after `prev` exercise a distinct interaction
/// path? Yes when `prev` perturbed state `cur` consults: DDL invalidates the
/// plan cache consulted by queries and later DDL; DML dirties buffers read
/// by queries and maintenance commands; DCL changes the privilege cache;
/// TCL changes visibility; session/utility statements perturb settings used
/// by everything *except* other utility statements. Returns the interaction
/// class, or `None` for the shared fast path.
fn meaningful_interaction(prev: StmtKind, cur: StmtKind) -> Option<u16> {
    use lego_sqlast::kind::StmtCategory as C;
    let (pc, cc) = (prev.category(), cur.category());
    // The always-related core: DDL invalidates plans consulted by queries
    // and DML; DDL on the same object class re-validates; transaction
    // control changes visibility for everything.
    let core_related = match (pc, cc) {
        (C::Ddl, C::Dql) | (C::Ddl, C::Dml) => true,
        (C::Ddl, C::Ddl) => {
            matches!((prev, cur), (StmtKind::Ddl(_, a), StmtKind::Ddl(_, b)) if a == b)
        }
        (C::Dml, C::Dql) | (C::Dml, C::Dml) => true,
        (C::Dcl, C::Dql) | (C::Dcl, C::Dml) => true,
        (C::Tcl, _) | (_, C::Tcl) => true,
        _ => false,
    };
    // Beyond the core, relatedness is *sparse* at the statement-type level —
    // the paper's challenge C2: "many statement types are not closely
    // related, and forming them into a sequence does not cover new logic".
    // A deterministic ~12% of type pairs share hidden state (caches, flags,
    // object namespaces) and therefore interact; the rest take the shared
    // fast path and yield nothing.
    let related = core_related || {
        let h = (prev.code() as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(cur.code() as u64)
            .wrapping_mul(0xff51_afd7_ed55_8ccd);
        (h >> 16) % 100 < 12
    };
    if !related {
        return None;
    }
    // Fine class: distinguish the core relational kinds individually, the
    // long tail by category, mirroring how much dedicated interaction code
    // each has in a real engine.
    let fine = |k: StmtKind| -> u16 {
        match k {
            StmtKind::Ddl(verb, obj)
                if matches!(
                    obj,
                    ObjectKind::Table
                        | ObjectKind::View
                        | ObjectKind::MaterializedView
                        | ObjectKind::Index
                        | ObjectKind::Trigger
                        | ObjectKind::Rule
                ) =>
            {
                100 + (verb as u16) * 8 + obj as u16 % 8
            }
            StmtKind::Other(k2)
                if matches!(
                    k2,
                    StandaloneKind::Select
                        | StandaloneKind::Insert
                        | StandaloneKind::Update
                        | StandaloneKind::Delete
                        | StandaloneKind::With
                        | StandaloneKind::Copy
                        | StandaloneKind::Notify
                        | StandaloneKind::Begin
                        | StandaloneKind::Commit
                        | StandaloneKind::Rollback
                        | StandaloneKind::Grant
                        | StandaloneKind::Revoke
                        | StandaloneKind::Set
                        | StandaloneKind::Analyze
                        | StandaloneKind::Vacuum
                        | StandaloneKind::Truncate
                        | StandaloneKind::Explain
                ) =>
            {
                200 + k2 as u16
            }
            other => match other.category() {
                C::Ddl => 1,
                C::Dql => 2,
                C::Dml => 3,
                C::Dcl => 4,
                C::Tcl => 5,
                C::Util => 6,
            },
        }
    };
    Some(fine(prev))
}

/// Build a self-contained subquery runner over an immutable catalog snapshot.
fn make_subquery_runner<'a>(
    cat: &'a Catalog,
    prof: &'a Profile,
    user: &'a str,
) -> impl FnMut(&Query, &mut ExecCtx) -> Result<Vec<Row>, String> + 'a {
    move |q: &Query, ctx: &mut ExecCtx| {
        let env = QueryEnv::new(cat, prof, user);
        run_query(&env, ctx, q).map(|rs| rs.rows)
    }
}

fn infer_type(v: Option<&Value>) -> DataType {
    match v {
        Some(Value::Int(_)) | Some(Value::Bool(_)) => DataType::Int,
        Some(Value::Float(_)) => DataType::Float,
        Some(Value::Blob(_)) => DataType::Blob,
        _ => DataType::Text,
    }
}

/// A table holding a query's result (CREATE TABLE AS, a materialized CTE).
fn result_to_table(name: &str, rs: ResultSet, temporary: bool) -> TableMeta {
    let columns = rs
        .columns
        .into_iter()
        .enumerate()
        .map(|(i, c)| ColumnMeta {
            name: if c.is_empty() { format!("column{}", i + 1) } else { c },
            ty: infer_type(rs.rows.first().and_then(|r| r.get(i))),
            not_null: false,
            unique: false,
            primary_key: false,
            default: None,
            check: None,
            references: None,
        })
        .collect();
    TableMeta {
        name: name.to_string(),
        temporary,
        columns: Arc::new(columns),
        checks: vec![],
        foreign_keys: vec![],
        rows: rs.rows,
        analyzed: false,
        clustered: None,
    }
}
