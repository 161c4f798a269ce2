//! The tri-state binder: an abstract interpreter over statement sequences.
//!
//! [`Binder::step`] mirrors `lego_dbms::exec::Session::exec_statement` one
//! statement at a time, tracking an *abstract* session state: every fact is
//! three-valued ([`Tri`] for booleans, [`Presence`] for catalog objects), and
//! every transition is the join of the engine's success and failure paths
//! when the analyzer cannot prove which one is taken.
//!
//! The contract that makes the conformance oracle sound:
//!
//! - [`Verdict::Reject`] is only produced when **every** engine path for the
//!   statement ends in a semantic error, given any concrete state consistent
//!   with the abstract one.
//! - [`Verdict::Accept`] is only produced when **every** such path succeeds.
//! - Anything else is [`Verdict::Unknown`], and the abstract state after the
//!   statement over-approximates both the success and the failure outcome.
//!
//! Soundness leans on two engine properties that are pinned by tests: error
//! paths in `exec_statement` never mutate session state (checks precede
//! mutations in every arm), and statements cut short by a budget trip leave
//! `Outcome != Ok`, which the conformance comparison excludes.

use std::collections::BTreeMap;

use lego_dbms::Profile;
use lego_sqlast::kind::StandaloneKind;
use lego_sqlast::{
    AlterTableAction, ColumnConstraint, CopyDirection, CopySource, CreateTable, CteBody,
    ObjectKind, Query, SelectVariant, Statement, StmtKind, TableConstraint,
};

use crate::types;
use crate::{StmtVerdict, Verdict};

pub(crate) fn norm(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// Three-valued truth: the analyzer's answer to "does this hold right now?".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tri {
    No,
    Maybe,
    Yes,
}

/// Three-valued existence of a catalog or session object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Presence {
    Absent,
    Maybe,
    Present,
}

#[derive(Clone, Debug, PartialEq)]
struct Ent<T> {
    pres: Presence,
    info: T,
}

/// A named namespace (tables, views, cursors, …) with an "anything could be
/// in here" fog bit. A key with no entry is `Absent` in clear weather and
/// `Maybe` under fog; fogging forgets every exact entry.
#[derive(Clone, Debug)]
pub(crate) struct Ns<T: Clone> {
    known: BTreeMap<String, Ent<T>>,
    fog: bool,
}

impl<T: Clone> Default for Ns<T> {
    fn default() -> Self {
        Ns { known: BTreeMap::new(), fog: false }
    }
}

impl<T: Clone + Default + PartialEq> Ns<T> {
    fn presence(&self, key: &str) -> Presence {
        match self.known.get(key) {
            Some(e) => e.pres,
            None if self.fog => Presence::Maybe,
            None => Presence::Absent,
        }
    }

    fn info(&self, key: &str) -> Option<&T> {
        self.known.get(key).map(|e| &e.info)
    }

    fn set(&mut self, key: String, pres: Presence, info: T) {
        self.known.insert(key, Ent { pres, info });
    }

    fn set_absent(&mut self, key: String) {
        self.set(key, Presence::Absent, T::default());
    }

    fn fog(&mut self) {
        self.known.clear();
        self.fog = true;
    }

    /// Definitely empty (e.g. `DISCARD ALL` cleared it).
    fn clear_definite(&mut self) {
        self.known.clear();
        self.fog = false;
    }

    /// The key's object may have been removed: Present → Maybe.
    fn downgrade(&mut self, key: &str) {
        if let Some(e) = self.known.get_mut(key) {
            if e.pres == Presence::Present {
                e.pres = Presence::Maybe;
            }
        }
    }

    /// Every object may have been removed: Present → Maybe across the map.
    fn downgrade_all(&mut self) {
        for e in self.known.values_mut() {
            if e.pres == Presence::Present {
                e.pres = Presence::Maybe;
            }
        }
    }

    /// The object may have been created here (a create whose success is
    /// unprovable). A definitely-present entry is left alone — the engine's
    /// duplicate check would have failed the create.
    fn uncertain_create(&mut self, key: &str, info: T) {
        match self.presence(key) {
            Presence::Present => {}
            Presence::Absent => self.set(key.to_string(), Presence::Maybe, info),
            Presence::Maybe => self.set(key.to_string(), Presence::Maybe, T::default()),
        }
    }

    /// Could this namespace hold *any* object right now?
    fn maybe_nonempty(&self) -> bool {
        self.fog || self.known.values().any(|e| e.pres != Presence::Absent)
    }

    fn definitely_present(&self) -> impl Iterator<Item = (&String, &T)> {
        self.known.iter().filter(|(_, e)| e.pres == Presence::Present).map(|(k, e)| (k, &e.info))
    }
}

/// A namespace keyed by something other than a single name (generic DDL
/// objects, grants).
#[derive(Clone, Debug)]
pub(crate) struct KeyedNs<K: Ord + Clone> {
    known: BTreeMap<K, Presence>,
    fog: bool,
}

impl<K: Ord + Clone> Default for KeyedNs<K> {
    fn default() -> Self {
        KeyedNs { known: BTreeMap::new(), fog: false }
    }
}

impl<K: Ord + Clone> KeyedNs<K> {
    fn presence(&self, key: &K) -> Presence {
        match self.known.get(key) {
            Some(p) => *p,
            None if self.fog => Presence::Maybe,
            None => Presence::Absent,
        }
    }

    fn set(&mut self, key: K, pres: Presence) {
        self.known.insert(key, pres);
    }

    fn fog(&mut self) {
        self.known.clear();
        self.fog = true;
    }

    fn uncertain_create(&mut self, key: &K) {
        if self.presence(key) != Presence::Present {
            self.set(key.clone(), Presence::Maybe);
        }
    }

    fn downgrade(&mut self, key: &K) {
        if let Some(p) = self.known.get_mut(key) {
            if *p == Presence::Present {
                *p = Presence::Maybe;
            }
        }
    }
}

/// Abstract image of `lego_dbms::catalog::Catalog` — everything a
/// transaction snapshot captures and `ROLLBACK` restores. Index, trigger and
/// rule entries carry the (normalized) table they hang off, `None` when
/// unknown, so `DROP TABLE` cascades can be modelled.
#[derive(Clone, Debug, Default)]
pub(crate) struct CatalogState {
    tables: Ns<Option<Vec<String>>>, // columns (normalized), None = unknown
    views: Ns<Option<bool>>,         // materialized?, None = unknown
    indexes: Ns<Option<String>>,
    triggers: Ns<Option<String>>,
    rules: Ns<Option<String>>,
    generic: KeyedNs<(ObjectKind, String)>,
    grants: KeyedNs<(String, String)>, // (grantee, object), both normalized
}

impl CatalogState {
    fn fog(&mut self) {
        self.tables.fog();
        self.views.fog();
        self.indexes.fog();
        self.triggers.fog();
        self.rules.fog();
        self.generic.fog();
        self.grants.fog();
    }

    fn relation(&self, key: &str) -> (Presence, Presence) {
        (self.tables.presence(key), self.views.presence(key))
    }

    /// `Catalog::drop_table` cascade: indexes/triggers/rules on `t` go away.
    /// `definite` distinguishes a proven drop from a possible one. Entries
    /// whose table is unknown may or may not be on `t`, so they degrade to
    /// `Maybe` either way.
    fn cascade_drop(&mut self, t: &str, definite: bool) {
        for ns in [&mut self.indexes, &mut self.triggers, &mut self.rules] {
            for e in ns.known.values_mut() {
                if e.pres == Presence::Absent {
                    continue;
                }
                match &e.info {
                    Some(on) if on == t => {
                        if definite {
                            e.pres = Presence::Absent;
                        } else if e.pres == Presence::Present {
                            e.pres = Presence::Maybe;
                        }
                    }
                    Some(_) => {}
                    None => {
                        if e.pres == Presence::Present {
                            e.pres = Presence::Maybe;
                        }
                    }
                }
            }
        }
    }
}

/// Who the session user is. The engine compares `user == "admin"` exactly
/// (no case folding), so `Named` keeps the exact string.
#[derive(Clone, PartialEq, Eq, Debug)]
enum UserState {
    Admin,
    Named(String),
    Unknown,
}

/// The abstract interpreter. One instance walks one statement sequence.
#[derive(Clone, Debug)]
pub struct Binder {
    prof: Profile,
    cat: CatalogState,
    /// Is a transaction open? The snapshot is only tracked when provably so.
    txn: Tri,
    /// Catalog image at `BEGIN`, when the `BEGIN` was provably clean.
    /// `None` with `txn == Yes` means "open, but snapshot unknown".
    txn_snapshot: Option<Box<CatalogState>>,
    /// Exact savepoint stack (names normalized) — only meaningful when
    /// `!sp_fog`. Under fog the stack contents are unknown.
    savepoints: Vec<(String, CatalogState)>,
    sp_fog: bool,
    settings: Ns<()>,
    user: UserState,
    cursors: Ns<()>,
    prepared: Ns<()>,
    /// Prepared-transaction gids — the one namespace the engine does *not*
    /// case-fold.
    prepared_txns: Ns<()>,
    xa: Tri,
    /// Table locks (normalized name → mode; `None` = unknown mode).
    locks: Ns<Option<String>>,
    /// Planted analyzer bug (test-only, see `lego_dbms::faults`).
    pub(crate) overaccept_commit: bool,
}

fn acc() -> StmtVerdict {
    StmtVerdict { verdict: Verdict::Accept, reason: None }
}

fn rej(reason: &'static str) -> StmtVerdict {
    StmtVerdict { verdict: Verdict::Reject, reason: Some(reason) }
}

fn unk() -> StmtVerdict {
    StmtVerdict { verdict: Verdict::Unknown, reason: None }
}

impl Binder {
    pub fn new(prof: Profile) -> Binder {
        Binder {
            prof,
            cat: CatalogState::default(),
            txn: Tri::No,
            txn_snapshot: None,
            savepoints: Vec::new(),
            sp_fog: false,
            settings: Ns::default(),
            user: UserState::Admin,
            cursors: Ns::default(),
            prepared: Ns::default(),
            prepared_txns: Ns::default(),
            xa: Tri::No,
            locks: Ns::default(),
            overaccept_commit: false,
        }
    }

    pub fn profile(&self) -> &Profile {
        &self.prof
    }

    // -- public scope queries (dependency-aware mutation uses these) --------

    /// Tables proven to exist at this point, in sorted order.
    pub fn tables_in_scope(&self) -> Vec<String> {
        self.cat.tables.definitely_present().map(|(k, _)| k.clone()).collect()
    }

    /// The alphabetically first table or view proven to exist at this point.
    pub fn first_relation_in_scope(&self) -> Option<&str> {
        let table = self.cat.tables.definitely_present().next().map(|(k, _)| k.as_str());
        let view = self.cat.views.definitely_present().next().map(|(k, _)| k.as_str());
        match (table, view) {
            (Some(t), Some(v)) => Some(t.min(v)),
            (t, v) => t.or(v),
        }
    }

    /// The (normalized) columns of `table`, when both the table and its
    /// column list are statically known.
    pub fn table_columns(&self, table: &str) -> Option<&[String]> {
        let key = norm(table);
        if self.cat.tables.presence(&key) != Presence::Present {
            return None;
        }
        self.cat.tables.info(&key).and_then(|c| c.as_deref())
    }

    /// Is `name` provably neither a table nor a view right now?
    pub fn relation_definitely_absent(&self, name: &str) -> bool {
        self.cat.relation(&norm(name)) == (Presence::Absent, Presence::Absent)
    }

    /// Is a transaction open?
    pub fn txn_state(&self) -> Tri {
        self.txn
    }

    // -- helpers -------------------------------------------------------------

    fn stack_maybe_nonempty(&self) -> bool {
        self.sp_fog || !self.savepoints.is_empty()
    }

    /// Savepoints may or may not have been cleared — forget the exact stack.
    fn uncertain_clear_savepoints(&mut self) {
        if self.stack_maybe_nonempty() {
            self.savepoints.clear();
            self.sp_fog = true;
        }
    }

    fn clear_savepoints(&mut self) {
        self.savepoints.clear();
        self.sp_fog = false;
    }

    /// Could a trigger or rule fire (and run an arbitrary nested statement)?
    fn hooks_possible(&self) -> bool {
        (self.prof.has_triggers && self.cat.triggers.maybe_nonempty())
            || (self.prof.has_rules && self.cat.rules.maybe_nonempty())
    }

    /// Could a rule rewrite DML that targets `tkey` (normalized)?
    fn rules_possible_on(&self, tkey: &str) -> bool {
        self.prof.has_rules
            && (self.cat.rules.fog
                || self.cat.rules.known.values().any(|e| {
                    e.pres != Presence::Absent
                        && e.info.as_deref().map(|on| on == tkey).unwrap_or(true)
                }))
    }

    fn index_possible_on(&self, tkey: &str) -> bool {
        self.cat.indexes.fog
            || self.cat.indexes.known.values().any(|e| {
                e.pres != Presence::Absent && e.info.as_deref().map(|on| on == tkey).unwrap_or(true)
            })
    }

    fn index_definitely_on(&self, tkey: &str) -> bool {
        self.cat
            .indexes
            .known
            .values()
            .any(|e| e.pres == Presence::Present && e.info.as_deref() == Some(tkey))
    }

    /// Outcome of `Session::check_privilege(table, _)` for the current user.
    /// `Maybe` for a named non-admin with a grant entry: the entry proves a
    /// grant happened, not that it covers the specific privilege.
    fn priv_ok(&self, table: &str) -> Tri {
        if !self.prof.check_privileges {
            return Tri::Yes;
        }
        match &self.user {
            UserState::Admin => Tri::Yes,
            UserState::Unknown => Tri::Maybe,
            UserState::Named(u) => match self.cat.grants.presence(&(norm(u), norm(table))) {
                Presence::Absent => Tri::No,
                _ => Tri::Maybe,
            },
        }
    }

    /// Static verdict for a query (`run_query`). Reject only fires on the
    /// one eagerly-resolved FROM shape; Accept only on literal-projection
    /// queries under the admin user (both pinned against the engine by the
    /// crate tests).
    fn query_verdict(&self, q: &Query) -> Verdict {
        if let Some(name) = types::single_named_from(q) {
            if self.cat.relation(&norm(name)) == (Presence::Absent, Presence::Absent) {
                return Verdict::Reject;
            }
        }
        if types::query_always_ok(q) && self.user == UserState::Admin {
            return Verdict::Accept;
        }
        Verdict::Unknown
    }

    /// Everything is lost: a trigger/rule action may have run an arbitrary
    /// nested statement (including TCL), so no fact survives.
    fn fog_all(&mut self) {
        self.cat.fog();
        self.txn = Tri::Maybe;
        self.txn_snapshot = None;
        self.savepoints.clear();
        self.sp_fog = true;
        self.settings.fog();
        self.user = UserState::Unknown;
        self.cursors.fog();
        self.prepared.fog();
        self.prepared_txns.fog();
        self.xa = Tri::Maybe;
        self.locks.fog();
    }

    /// DML reached the engine's mutation path (verdict was not Reject):
    /// row-level effects are untracked, but hooks can rewrite the world.
    fn dml_effects(&mut self) {
        if self.hooks_possible() {
            self.fog_all();
        }
    }

    /// MySQL-family implicit commit before DDL:
    /// `if txn.is_some() { txn = None; savepoints.clear(); }` — locks stay.
    fn implicit_commit(&mut self) {
        match self.txn {
            Tri::No => {}
            Tri::Yes => {
                self.txn = Tri::No;
                self.txn_snapshot = None;
                self.clear_savepoints();
            }
            Tri::Maybe => {
                self.txn = Tri::No;
                self.txn_snapshot = None;
                self.uncertain_clear_savepoints();
            }
        }
    }

    // -- the interpreter ------------------------------------------------------

    /// Advance the abstract state over `stmt` and classify it.
    pub fn step(&mut self, stmt: &Statement) -> StmtVerdict {
        let kind = stmt.kind();
        if !self.prof.dialect.supports(kind) {
            return rej("statement kind not supported by this dialect");
        }
        if self.prof.ddl_implicit_commit && matches!(kind, StmtKind::Ddl(..)) {
            self.implicit_commit();
        }
        self.dispatch(stmt)
    }

    fn dispatch(&mut self, stmt: &Statement) -> StmtVerdict {
        match stmt {
            Statement::CreateTable(c) => self.step_create_table(c),
            Statement::CreateView(v) => {
                let key = norm(&v.name);
                let (tp, vp) = self.cat.relation(&key);
                let qv = self.query_verdict(&v.query);
                let verdict = if !self.prof.has_views {
                    rej("views are not supported")
                } else if v.materialized && !self.prof.has_matviews {
                    rej("materialized views are not supported")
                } else if qv == Verdict::Reject {
                    rej("view query references a missing relation")
                } else if tp == Presence::Present {
                    rej("a table with this name already exists")
                } else if vp == Presence::Present && !v.or_replace {
                    rej("view already exists")
                } else {
                    unk()
                };
                if verdict.verdict != Verdict::Reject {
                    // May have (re)created the view; OR REPLACE can change
                    // the materialized flag of an existing entry.
                    match vp {
                        Presence::Present => {
                            if self.cat.views.info(&key) != Some(&Some(v.materialized)) {
                                self.cat.views.set(key, Presence::Present, None);
                            }
                        }
                        Presence::Absent => {
                            self.cat.views.set(key, Presence::Maybe, Some(v.materialized));
                        }
                        Presence::Maybe => self.cat.views.set(key, Presence::Maybe, None),
                    }
                }
                verdict
            }
            Statement::CreateIndex(i) => {
                let key = norm(&i.name);
                let tkey = norm(&i.table);
                let ip = self.cat.indexes.presence(&key);
                let tp = self.cat.tables.presence(&tkey);
                let cols = self.cat.tables.info(&tkey).cloned().flatten();
                let col_missing = cols
                    .as_ref()
                    .map(|cs| i.columns.iter().any(|c| !cs.contains(&norm(c))))
                    .unwrap_or(false);
                let verdict = if ip == Presence::Present {
                    rej("index already exists")
                } else if tp == Presence::Absent {
                    rej("relation does not exist")
                } else if tp == Presence::Present && col_missing {
                    rej("indexed column does not exist")
                } else if ip == Presence::Absent
                    && tp == Presence::Present
                    && cols.is_some()
                    && !col_missing
                    && !i.unique
                {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => self.cat.indexes.set(key, Presence::Present, Some(tkey)),
                    Verdict::Unknown => self.cat.indexes.uncertain_create(&key, Some(tkey)),
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::CreateTrigger(t) => {
                let key = norm(&t.name);
                let tkey = norm(&t.table);
                let tp = self.cat.tables.presence(&tkey);
                let trp = self.cat.triggers.presence(&key);
                let verdict = if !self.prof.has_triggers {
                    rej("triggers are not supported")
                } else if tp == Presence::Absent {
                    rej("relation does not exist")
                } else if trp == Presence::Present {
                    rej("trigger already exists")
                } else if tp == Presence::Present && trp == Presence::Absent {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => self.cat.triggers.set(key, Presence::Present, Some(tkey)),
                    Verdict::Unknown => self.cat.triggers.uncertain_create(&key, Some(tkey)),
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::CreateRule(r) => {
                let key = norm(&r.name);
                let tkey = norm(&r.table);
                let (tp, vp) = self.cat.relation(&tkey);
                let rp = self.cat.rules.presence(&key);
                let verdict = if !self.prof.has_rules {
                    rej("rules are not supported")
                } else if tp == Presence::Absent && vp == Presence::Absent {
                    rej("relation does not exist")
                } else if rp == Presence::Present && !r.or_replace {
                    rej("rule already exists")
                } else if (tp == Presence::Present || vp == Presence::Present)
                    && (rp == Presence::Absent || r.or_replace)
                {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => self.cat.rules.set(key, Presence::Present, Some(tkey)),
                    Verdict::Unknown => self.cat.rules.uncertain_create(&key, Some(tkey)),
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::CreateTableAs { name, query } => {
                let key = norm(name);
                let (tp, vp) = self.cat.relation(&key);
                let qv = self.query_verdict(query);
                let verdict = if qv == Verdict::Reject {
                    rej("query references a missing relation")
                } else if tp == Presence::Present || vp == Presence::Present {
                    rej("relation already exists")
                } else if qv == Verdict::Accept && tp == Presence::Absent && vp == Presence::Absent
                {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    // Column names come from the query — not tracked.
                    Verdict::Accept => self.cat.tables.set(key, Presence::Present, None),
                    Verdict::Unknown => self.cat.tables.uncertain_create(&key, None),
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::AlterTable(a) => self.step_alter_table(a),
            Statement::Drop(d) => {
                let key = norm(&d.name);
                let (pres, is_table) = match d.object {
                    ObjectKind::Table => (self.cat.tables.presence(&key), true),
                    ObjectKind::View | ObjectKind::MaterializedView => {
                        (self.cat.views.presence(&key), false)
                    }
                    ObjectKind::Index => (self.cat.indexes.presence(&key), false),
                    ObjectKind::Trigger => (self.cat.triggers.presence(&key), false),
                    ObjectKind::Rule => (self.cat.rules.presence(&key), false),
                    other => (self.cat.generic.presence(&(other, key.clone())), false),
                };
                let verdict = match pres {
                    Presence::Present => acc(),
                    Presence::Absent if d.if_exists => acc(), // no-op success
                    Presence::Absent => rej("object does not exist"),
                    Presence::Maybe => unk(),
                };
                match (verdict.verdict, pres) {
                    (Verdict::Accept, Presence::Present) => match d.object {
                        ObjectKind::Table => {
                            self.cat.tables.set_absent(key.clone());
                            self.cat.cascade_drop(&key, true);
                        }
                        ObjectKind::View | ObjectKind::MaterializedView => {
                            self.cat.views.set_absent(key)
                        }
                        ObjectKind::Index => self.cat.indexes.set_absent(key),
                        ObjectKind::Trigger => self.cat.triggers.set_absent(key),
                        ObjectKind::Rule => self.cat.rules.set_absent(key),
                        other => self.cat.generic.set((other, key), Presence::Absent),
                    },
                    (Verdict::Unknown, _) => {
                        match d.object {
                            ObjectKind::Table => {
                                self.cat.tables.downgrade(&key);
                                self.cat.cascade_drop(&key, false);
                            }
                            ObjectKind::View | ObjectKind::MaterializedView => {
                                self.cat.views.downgrade(&key)
                            }
                            ObjectKind::Index => self.cat.indexes.downgrade(&key),
                            ObjectKind::Trigger => self.cat.triggers.downgrade(&key),
                            ObjectKind::Rule => self.cat.rules.downgrade(&key),
                            other => self.cat.generic.downgrade(&(other, key)),
                        }
                        let _ = is_table;
                    }
                    _ => {}
                }
                verdict
            }
            Statement::GenericDdl(g) => {
                use lego_sqlast::DdlVerb;
                let gkey = (g.object, norm(&g.name));
                let pres = self.cat.generic.presence(&gkey);
                let verdict = match g.verb {
                    DdlVerb::Create => match pres {
                        Presence::Absent => acc(),
                        Presence::Present => rej("object already exists"),
                        Presence::Maybe => unk(),
                    },
                    DdlVerb::Alter | DdlVerb::Drop => match pres {
                        Presence::Present => acc(),
                        Presence::Absent => rej("object does not exist"),
                        Presence::Maybe => unk(),
                    },
                };
                match (g.verb, verdict.verdict) {
                    (DdlVerb::Create, Verdict::Accept) => {
                        self.cat.generic.set(gkey, Presence::Present)
                    }
                    (DdlVerb::Create, Verdict::Unknown) => self.cat.generic.uncertain_create(&gkey),
                    (DdlVerb::Drop, Verdict::Accept) => {
                        self.cat.generic.set(gkey, Presence::Absent)
                    }
                    (DdlVerb::Drop, Verdict::Unknown) => self.cat.generic.downgrade(&gkey),
                    _ => {} // Alter only bumps a version counter
                }
                verdict
            }
            Statement::Select(s) => match &s.variant {
                SelectVariant::Into(target) => {
                    let key = norm(target);
                    let (tp, vp) = self.cat.relation(&key);
                    let qv = self.query_verdict(&s.query);
                    let ctas_ok =
                        self.prof.dialect.supports(StmtKind::Other(StandaloneKind::CreateTableAs));
                    let verdict = if qv == Verdict::Reject {
                        rej("query references a missing relation")
                    } else if !ctas_ok {
                        rej("CREATE TABLE AS is not supported by this dialect")
                    } else if tp == Presence::Present || vp == Presence::Present {
                        rej("relation already exists")
                    } else if qv == Verdict::Accept
                        && tp == Presence::Absent
                        && vp == Presence::Absent
                    {
                        acc()
                    } else {
                        unk()
                    };
                    match verdict.verdict {
                        Verdict::Accept => self.cat.tables.set(key, Presence::Present, None),
                        Verdict::Unknown => self.cat.tables.uncertain_create(&key, None),
                        Verdict::Reject => {}
                    }
                    verdict
                }
                _ => match self.query_verdict(&s.query) {
                    Verdict::Accept => acc(),
                    Verdict::Reject => rej("query references a missing relation"),
                    Verdict::Unknown => unk(),
                },
            },
            Statement::Insert(i) => {
                let tkey = norm(&i.table);
                let pv = self.priv_ok(&i.table);
                let rewrite = self.rules_possible_on(&tkey);
                let (tp, vp) = self.cat.relation(&tkey);
                let verdict = if pv == Tri::No {
                    rej("permission denied")
                } else if !rewrite && vp == Presence::Present {
                    rej("cannot insert into a view")
                } else if !rewrite && tp == Presence::Absent {
                    rej("relation does not exist")
                } else {
                    unk()
                };
                if verdict.verdict != Verdict::Reject {
                    self.dml_effects();
                }
                verdict
            }
            Statement::Update(u) => {
                let tkey = norm(&u.table);
                let pv = self.priv_ok(&u.table);
                let rewrite = self.rules_possible_on(&tkey);
                let verdict = if pv == Tri::No {
                    rej("permission denied")
                } else if !rewrite && self.cat.tables.presence(&tkey) == Presence::Absent {
                    rej("relation does not exist")
                } else {
                    unk()
                };
                if verdict.verdict != Verdict::Reject {
                    self.dml_effects();
                }
                verdict
            }
            Statement::Delete(d) => {
                let tkey = norm(&d.table);
                let pv = self.priv_ok(&d.table);
                let rewrite = self.rules_possible_on(&tkey);
                let verdict = if pv == Tri::No {
                    rej("permission denied")
                } else if !rewrite && self.cat.tables.presence(&tkey) == Presence::Absent {
                    rej("relation does not exist")
                } else {
                    unk()
                };
                if verdict.verdict != Verdict::Reject {
                    self.dml_effects();
                }
                verdict
            }
            Statement::With(w) => {
                // CTE errors surface lazily and the body runs nested; no
                // statically-provable outcome either way. Query CTEs
                // materialize temp tables that are dropped afterwards (net
                // zero), but their add can fail and DML CTE effects persist.
                if self.hooks_possible() {
                    self.fog_all();
                } else {
                    for cte in &w.ctes {
                        match &cte.body {
                            CteBody::Dml(dml) => self.apply_uncertain(dml),
                            CteBody::Query(_) => {
                                // Materialized then dropped; a body statement
                                // observing it mid-flight is already covered
                                // by apply_uncertain on the body.
                            }
                        }
                    }
                    self.apply_uncertain(&w.body);
                }
                unk()
            }
            Statement::Values(_) => acc(),
            Statement::Truncate { table } => {
                let pv = self.priv_ok(table);
                let tp = self.cat.tables.presence(&norm(table));
                if pv == Tri::No {
                    rej("permission denied")
                } else if tp == Presence::Absent {
                    rej("table does not exist")
                } else if pv == Tri::Yes && tp == Presence::Present {
                    acc() // row-level effect only
                } else {
                    unk()
                }
            }
            Statement::Copy(c) => match (&c.source, c.direction) {
                (CopySource::Query(_), CopyDirection::From) => rej("cannot COPY FROM into a query"),
                (CopySource::Query(q), CopyDirection::To) => match self.query_verdict(q) {
                    Verdict::Reject => rej("query references a missing relation"),
                    Verdict::Accept => acc(),
                    Verdict::Unknown => unk(),
                },
                (CopySource::Table { name, columns }, CopyDirection::To) => {
                    let pv = self.priv_ok(name);
                    let tkey = norm(name);
                    let tp = self.cat.tables.presence(&tkey);
                    let cols = self.cat.tables.info(&tkey).cloned().flatten();
                    let col_missing = cols
                        .as_ref()
                        .map(|cs| columns.iter().any(|c| !cs.contains(&norm(c))))
                        .unwrap_or(false);
                    if pv == Tri::No {
                        rej("permission denied")
                    } else if tp == Presence::Absent {
                        rej("relation does not exist")
                    } else if tp == Presence::Present && col_missing {
                        rej("column does not exist")
                    } else if pv == Tri::Yes
                        && tp == Presence::Present
                        && (columns.is_empty() || (cols.is_some() && !col_missing))
                    {
                        acc()
                    } else {
                        unk()
                    }
                }
                (CopySource::Table { name, .. }, CopyDirection::From) => {
                    let pv = self.priv_ok(name);
                    let tp = self.cat.tables.presence(&norm(name));
                    if pv == Tri::No {
                        rej("permission denied")
                    } else if tp == Presence::Absent {
                        rej("relation does not exist")
                    } else if pv == Tri::Yes && tp == Presence::Present {
                        acc() // no stdin in the harness: zero rows transferred
                    } else {
                        unk()
                    }
                }
            },
            Statement::Grant(g) => {
                self.cat.grants.set((norm(&g.grantee), norm(&g.object)), Presence::Present);
                acc()
            }
            Statement::Revoke(g) => {
                // The engine retains within an existing privilege entry (the
                // entry itself survives, even emptied), so no state change.
                match self.cat.grants.presence(&(norm(&g.grantee), norm(&g.object))) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("no privileges to revoke"),
                    Presence::Maybe => unk(),
                }
            }
            Statement::Begin | Statement::StartTransaction => {
                let verdict = match self.txn {
                    Tri::No => acc(),
                    Tri::Yes => rej("there is already a transaction in progress"),
                    Tri::Maybe => unk(),
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        self.txn = Tri::Yes;
                        self.txn_snapshot = Some(Box::new(self.cat.clone()));
                    }
                    // Failure leaves the old transaction (and snapshot) in
                    // place; success opens a new one — open either way.
                    Verdict::Unknown => {
                        self.txn = Tri::Yes;
                        self.txn_snapshot = None;
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::Commit | Statement::End => {
                let mut verdict = match self.txn {
                    Tri::Yes => acc(),
                    Tri::No => rej("there is no transaction in progress"),
                    Tri::Maybe => unk(),
                };
                // `txn.take()` runs on both paths: closed afterwards always.
                let true_verdict = verdict.verdict;
                self.txn = Tri::No;
                self.txn_snapshot = None;
                match true_verdict {
                    Verdict::Accept => {
                        self.clear_savepoints();
                        self.locks.clear_definite();
                    }
                    Verdict::Unknown => {
                        self.uncertain_clear_savepoints();
                        self.locks.downgrade_all();
                    }
                    Verdict::Reject => {}
                }
                if true_verdict == Verdict::Reject && self.overaccept_commit {
                    // Planted analyzer bug (test-only): claim the COMMIT is
                    // fine even though no transaction can be open. The state
                    // transition above stays honest — only the verdict lies.
                    verdict = acc();
                }
                verdict
            }
            Statement::Rollback | Statement::Abort => {
                let verdict = match self.txn {
                    Tri::Yes => acc(),
                    Tri::No => rej("there is no transaction in progress"),
                    Tri::Maybe => unk(),
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        match self.txn_snapshot.take() {
                            Some(snap) => self.cat = *snap,
                            // Open, but the snapshot contents are unknown
                            // (a BEGIN we could not prove clean).
                            None => self.cat.fog(),
                        }
                        self.clear_savepoints();
                        self.locks.clear_definite();
                    }
                    Verdict::Unknown => {
                        self.cat.fog();
                        self.uncertain_clear_savepoints();
                        self.locks.downgrade_all();
                    }
                    Verdict::Reject => {}
                }
                self.txn = Tri::No;
                self.txn_snapshot = None;
                verdict
            }
            Statement::Savepoint(name) => {
                let verdict = match self.txn {
                    Tri::Yes => acc(),
                    Tri::No => rej("SAVEPOINT can only be used in transaction blocks"),
                    Tri::Maybe => unk(),
                };
                match verdict.verdict {
                    Verdict::Accept if !self.sp_fog => {
                        self.savepoints.push((norm(name), self.cat.clone()));
                    }
                    Verdict::Accept | Verdict::Unknown => self.sp_fog = true,
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::ReleaseSavepoint(name) => {
                // No transaction precondition in the engine.
                if self.sp_fog {
                    return unk();
                }
                let key = norm(name);
                match self.savepoints.iter().rposition(|(n, _)| *n == key) {
                    Some(i) => {
                        self.savepoints.truncate(i);
                        acc()
                    }
                    None => rej("savepoint does not exist"),
                }
            }
            Statement::RollbackToSavepoint(name) => {
                if self.sp_fog {
                    // May have restored an unknown snapshot.
                    self.cat.fog();
                    return unk();
                }
                let key = norm(name);
                match self.savepoints.iter().rposition(|(n, _)| *n == key) {
                    Some(i) => {
                        self.cat = self.savepoints[i].1.clone();
                        self.savepoints.truncate(i + 1);
                        acc()
                    }
                    None => rej("savepoint does not exist"),
                }
            }
            Statement::Set(s) => {
                self.settings.set(norm(&s.name), Presence::Present, ());
                acc()
            }
            Statement::Reset(name) => {
                let key = norm(name);
                match self.settings.presence(&key) {
                    Presence::Present => {
                        self.settings.set_absent(key);
                        acc()
                    }
                    Presence::Absent => rej("unrecognized configuration parameter"),
                    Presence::Maybe => {
                        self.settings.downgrade(&key);
                        unk()
                    }
                }
            }
            Statement::Show(name) => {
                let key = norm(name);
                if key == "server_version" {
                    return acc();
                }
                match self.settings.presence(&key) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("unrecognized configuration parameter"),
                    Presence::Maybe => unk(),
                }
            }
            Statement::Pragma { name, .. } => {
                self.settings.set(format!("pragma.{}", norm(name)), Presence::Present, ());
                acc()
            }
            Statement::Analyze(table) => match table {
                None => acc(),
                Some(t) => match self.cat.tables.presence(&norm(t)) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("relation does not exist"),
                    Presence::Maybe => unk(),
                },
            },
            Statement::Vacuum { table, .. } => match table {
                None => acc(),
                Some(t) => match self.cat.tables.presence(&norm(t)) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("relation does not exist"),
                    Presence::Maybe => unk(),
                },
            },
            Statement::Explain(inner) => match &**inner {
                // EXPLAIN plans the query (it can fail) but executes nothing
                // else; non-SELECT inners are never executed at all.
                Statement::Select(s) => match self.query_verdict(&s.query) {
                    Verdict::Accept => acc(),
                    Verdict::Reject => rej("query references a missing relation"),
                    Verdict::Unknown => unk(),
                },
                _ => acc(),
            },
            Statement::Reindex(table) => match table {
                None => acc(),
                Some(t) => match self.cat.tables.presence(&norm(t)) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("relation does not exist"),
                    Presence::Maybe => unk(),
                },
            },
            Statement::Checkpoint => acc(),
            Statement::Cluster(table) => match table {
                None => acc(),
                Some(t) => {
                    let tkey = norm(t);
                    let tp = self.cat.tables.presence(&tkey);
                    if tp == Presence::Absent {
                        rej("relation does not exist")
                    } else if tp == Presence::Present && !self.index_possible_on(&tkey) {
                        rej("no clusterable index")
                    } else if tp == Presence::Present && self.index_definitely_on(&tkey) {
                        acc()
                    } else {
                        unk()
                    }
                }
            },
            Statement::Discard(what) => {
                if what.eq_ignore_ascii_case("ALL") {
                    self.settings.clear_definite();
                    self.prepared.clear_definite();
                    self.cursors.clear_definite();
                }
                acc()
            }
            Statement::Listen(_) | Statement::Unlisten(_) | Statement::Notify { .. } => acc(),
            Statement::LockTable { table, mode } => {
                let tkey = norm(table);
                let tp = self.cat.tables.presence(&tkey);
                let mode = mode.clone().unwrap_or_else(|| "ACCESS EXCLUSIVE".into());
                let held = self.locks.presence(&tkey);
                let held_mode = self.locks.info(&tkey).cloned().flatten();
                let conflict_definite = held == Presence::Present
                    && held_mode.as_deref().map(|m| m != mode).unwrap_or(false);
                let no_conflict_definite = held == Presence::Absent
                    || (held == Presence::Present && held_mode.as_deref() == Some(&mode));
                let verdict = if tp == Presence::Absent {
                    rej("relation does not exist")
                } else if conflict_definite {
                    rej("lock mode conflict")
                } else if tp == Presence::Present && no_conflict_definite {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => self.locks.set(tkey, Presence::Present, Some(mode)),
                    Verdict::Unknown => {
                        // Success inserts (table, mode); failure leaves state.
                        match held {
                            Presence::Present if held_mode.as_deref() == Some(&mode) => {}
                            Presence::Present => self.locks.set(tkey, Presence::Present, None),
                            _ => self.locks.set(tkey, Presence::Maybe, None),
                        }
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            Statement::Comment { object, name, .. } => {
                let key = norm(name);
                let pres = match object {
                    ObjectKind::Table => self.cat.tables.presence(&key),
                    ObjectKind::View => self.cat.views.presence(&key),
                    ObjectKind::Index => self.cat.indexes.presence(&key),
                    other => self.cat.generic.presence(&(*other, key)),
                };
                match pres {
                    Presence::Present => acc(),
                    Presence::Absent => rej("object does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            Statement::Call { name, .. } => {
                match self.cat.generic.presence(&(ObjectKind::Procedure, norm(name))) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("procedure does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            Statement::RefreshMatView(name) => {
                let key = norm(name);
                match self.cat.views.presence(&key) {
                    Presence::Absent => rej("materialized view does not exist"),
                    Presence::Present if self.cat.views.info(&key) == Some(&Some(false)) => {
                        rej("not a materialized view")
                    }
                    // The refresh re-runs the stored query — not provable.
                    _ => unk(),
                }
            }
            Statement::Misc(m) => self.step_misc(m),
        }
    }

    fn step_create_table(&mut self, c: &CreateTable) -> StmtVerdict {
        let key = norm(&c.name);
        let (tp, vp) = self.cat.relation(&key);

        // `IF NOT EXISTS` early-out consults the *tables* map only.
        if c.if_not_exists && tp == Presence::Present {
            return acc(); // Ok(0), no state change
        }
        let early_ok_possible = c.if_not_exists && tp != Presence::Absent;

        let cols: Vec<String> = c.columns.iter().map(|cd| norm(&cd.name)).collect();
        let mut sorted = cols.clone();
        sorted.sort();
        let dup_col = sorted.windows(2).any(|w| w[0] == w[1]);
        let key_col_missing = c.constraints.iter().any(|tc| match tc {
            TableConstraint::PrimaryKey(names) | TableConstraint::Unique(names) => {
                names.iter().any(|n| !cols.contains(&norm(n)))
            }
            _ => false,
        });

        // Foreign keys: column-level References are exempt when they point
        // at the table being created; table-level FKs are checked before the
        // table is added, so even a self-reference must already resolve.
        let mut fk_bad = false; // provably violated
        let mut fk_good = true; // provably satisfied
        if self.prof.enforces_foreign_keys {
            for cd in &c.columns {
                for con in &cd.constraints {
                    if let ColumnConstraint::References { table, .. } = con {
                        if table.is_empty() || table.eq_ignore_ascii_case(&c.name) {
                            continue;
                        }
                        match self.cat.tables.presence(&norm(table)) {
                            Presence::Present => {}
                            Presence::Absent => {
                                fk_bad = true;
                                fk_good = false;
                            }
                            Presence::Maybe => fk_good = false,
                        }
                    }
                }
            }
            for tc in &c.constraints {
                if let TableConstraint::ForeignKey { ref_table, .. } = tc {
                    match self.cat.tables.presence(&norm(ref_table)) {
                        Presence::Present => {}
                        Presence::Absent => {
                            fk_bad = true;
                            fk_good = false;
                        }
                        Presence::Maybe => fk_good = false,
                    }
                }
            }
        }

        // Reject: provable error on the full-create path, and the IF NOT
        // EXISTS early-out provably not taken.
        if !early_ok_possible {
            let full_path_reject = if c.columns.is_empty() {
                Some(rej("a table must have at least one column"))
            } else if dup_col {
                Some(rej("column specified more than once"))
            } else if fk_bad {
                Some(rej("referenced table does not exist"))
            } else if key_col_missing {
                Some(rej("column named in key does not exist"))
            } else if tp == Presence::Present || vp == Presence::Present {
                Some(rej("relation already exists"))
            } else {
                None
            };
            if let Some(v) = full_path_reject {
                return v;
            }
        }

        // Accept: every check provably passes (or the early-out provably
        // covers the duplicate-name case and the rest still passes).
        let checks_pass = !c.columns.is_empty() && !dup_col && !key_col_missing && fk_good;
        if checks_pass && vp == Presence::Absent && (tp == Presence::Absent || c.if_not_exists) {
            if tp == Presence::Absent {
                self.cat.tables.set(key, Presence::Present, Some(cols));
            } else {
                // IF NOT EXISTS with the table maybe-present: exists after
                // either path, but the columns are only known on the
                // create path.
                self.cat.tables.set(key, Presence::Present, None);
            }
            return acc();
        }

        self.cat.tables.uncertain_create(&key, None);
        unk()
    }

    fn step_alter_table(&mut self, a: &lego_sqlast::AlterTable) -> StmtVerdict {
        let tkey = norm(&a.name);
        let tp = self.cat.tables.presence(&tkey);
        if tp == Presence::Absent {
            return rej("relation does not exist");
        }
        let cols = self.cat.tables.info(&tkey).cloned().flatten();
        let known = tp == Presence::Present && cols.is_some();
        match &a.action {
            AlterTableAction::AddColumn(c) => {
                let default = c.constraints.iter().find_map(|con| match con {
                    ColumnConstraint::Default(e) => Some(e),
                    _ => None,
                });
                // The default is evaluated (in an empty row context) before
                // the duplicate check; only a literal is provably safe.
                let default_safe = default.map(types::expr_infallible).unwrap_or(true);
                let ckey = norm(&c.name);
                let has = cols.as_ref().map(|cs| cs.contains(&ckey));
                let verdict = if known && default_safe && has == Some(true) {
                    rej("column already exists")
                } else if known && default_safe && has == Some(false) {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        let mut cs = cols.unwrap();
                        cs.push(ckey);
                        self.cat.tables.set(tkey, Presence::Present, Some(cs));
                    }
                    Verdict::Unknown => {
                        // Column list no longer certain (nor, under Maybe
                        // presence, is the table itself).
                        if tp == Presence::Present {
                            self.cat.tables.set(tkey, Presence::Present, None);
                        }
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            AlterTableAction::DropColumn(name) => {
                let ckey = norm(name);
                let has = cols.as_ref().map(|cs| cs.contains(&ckey));
                let only_col = cols.as_ref().map(|cs| cs.len() == 1).unwrap_or(false);
                let verdict = if known && has == Some(false) {
                    rej("column does not exist")
                } else if known && has == Some(true) && only_col {
                    rej("cannot drop the only column")
                } else if known && has == Some(true) && !only_col && !self.index_possible_on(&tkey)
                {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        let mut cs = cols.unwrap();
                        cs.retain(|c| *c != ckey);
                        self.cat.tables.set(tkey, Presence::Present, Some(cs));
                    }
                    Verdict::Unknown => {
                        if tp == Presence::Present {
                            self.cat.tables.set(tkey, Presence::Present, None);
                        }
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            AlterTableAction::RenameColumn { old, new } => {
                let okey = norm(old);
                let nkey = norm(new);
                let has_old = cols.as_ref().map(|cs| cs.contains(&okey));
                let has_new = cols.as_ref().map(|cs| cs.contains(&nkey));
                let verdict = if known && has_new == Some(true) {
                    rej("column already exists")
                } else if known && has_new == Some(false) && has_old == Some(false) {
                    rej("column does not exist")
                } else if known && has_new == Some(false) && has_old == Some(true) {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        let mut cs = cols.unwrap();
                        for c in &mut cs {
                            if *c == okey {
                                *c = nkey.clone();
                            }
                        }
                        self.cat.tables.set(tkey, Presence::Present, Some(cs));
                    }
                    Verdict::Unknown => {
                        if tp == Presence::Present {
                            self.cat.tables.set(tkey, Presence::Present, None);
                        }
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            AlterTableAction::RenameTo(new) => {
                let nkey = norm(new);
                let (ntp, nvp) = self.cat.relation(&nkey);
                let verdict = if ntp == Presence::Present || nvp == Presence::Present {
                    rej("relation already exists")
                } else if tp == Presence::Present
                    && ntp == Presence::Absent
                    && nvp == Presence::Absent
                {
                    acc()
                } else {
                    unk()
                };
                match verdict.verdict {
                    Verdict::Accept => {
                        // drop_table + add_table: old cascades away, the
                        // column list travels with the rename.
                        self.cat.tables.set_absent(tkey.clone());
                        self.cat.cascade_drop(&tkey, true);
                        self.cat.tables.set(nkey, Presence::Present, cols);
                    }
                    Verdict::Unknown => {
                        self.cat.tables.downgrade(&tkey);
                        self.cat.cascade_drop(&tkey, false);
                        self.cat.tables.uncertain_create(&nkey, None);
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            AlterTableAction::AlterColumnType { name, .. } => {
                let ckey = norm(name);
                let has = cols.as_ref().map(|cs| cs.contains(&ckey));
                // `coerce_to` is total, so a resolved column always succeeds.
                if known && has == Some(false) {
                    rej("column does not exist")
                } else if known && has == Some(true) {
                    acc()
                } else {
                    unk()
                }
            }
        }
    }

    fn step_misc(&mut self, m: &lego_sqlast::MiscStmt) -> StmtVerdict {
        use StandaloneKind as K;
        let arg1 = m.arg.as_deref().and_then(|a| a.split_whitespace().next());
        match m.kind {
            K::DeclareCursor => {
                let Some(name) = arg1 else {
                    return rej("DECLARE requires a cursor name");
                };
                let key = norm(name);
                match self.cursors.presence(&key) {
                    Presence::Present => rej("cursor already exists"),
                    Presence::Absent => {
                        self.cursors.set(key, Presence::Present, ());
                        acc()
                    }
                    Presence::Maybe => unk(),
                }
            }
            K::Fetch | K::Move => {
                let key = norm(arg1.unwrap_or_default());
                match self.cursors.presence(&key) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("cursor does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::CloseCursor => {
                let key = norm(arg1.unwrap_or_default());
                match self.cursors.presence(&key) {
                    Presence::Present => {
                        self.cursors.set_absent(key);
                        acc()
                    }
                    Presence::Absent => rej("cursor does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::PrepareStmt => {
                let Some(name) = arg1 else {
                    return rej("PREPARE requires a name");
                };
                let key = norm(name);
                match self.prepared.presence(&key) {
                    Presence::Present => rej("prepared statement already exists"),
                    Presence::Absent => {
                        self.prepared.set(key, Presence::Present, ());
                        acc()
                    }
                    Presence::Maybe => unk(),
                }
            }
            K::ExecuteImmediate => acc(),
            K::ExecuteStmt => {
                let key = norm(arg1.unwrap_or_default());
                match self.prepared.presence(&key) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("prepared statement does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::Deallocate => {
                let key = norm(arg1.unwrap_or_default());
                match self.prepared.presence(&key) {
                    Presence::Present => {
                        self.prepared.set_absent(key);
                        acc()
                    }
                    Presence::Absent => rej("prepared statement does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::XaBegin => {
                let verdict = match self.xa {
                    Tri::No => acc(),
                    Tri::Yes => rej("XA transaction already active"),
                    Tri::Maybe => unk(),
                };
                // Active after both paths.
                self.xa = Tri::Yes;
                verdict
            }
            K::XaCommit | K::XaRollback => {
                let verdict = match self.xa {
                    Tri::Yes => acc(),
                    Tri::No => rej("no active XA transaction"),
                    Tri::Maybe => unk(),
                };
                self.xa = Tri::No;
                verdict
            }
            K::PrepareTransaction => {
                let verdict = match self.txn {
                    Tri::Yes => acc(),
                    Tri::No => rej("PREPARE TRANSACTION requires a transaction"),
                    Tri::Maybe => unk(),
                };
                // `txn.take()` runs on both paths; savepoints are NOT
                // cleared (unlike COMMIT).
                self.txn = Tri::No;
                self.txn_snapshot = None;
                // Gids are stored with exact case.
                let gid = arg1.unwrap_or_default().to_string();
                match verdict.verdict {
                    Verdict::Accept => self.prepared_txns.set(gid, Presence::Present, ()),
                    Verdict::Unknown => self.prepared_txns.uncertain_create(&gid, ()),
                    Verdict::Reject => {}
                }
                verdict
            }
            K::CommitPrepared | K::RollbackPrepared => {
                let gid = arg1.unwrap_or_default().to_string();
                match self.prepared_txns.presence(&gid) {
                    Presence::Present => {
                        self.prepared_txns.set_absent(gid);
                        acc()
                    }
                    Presence::Absent => rej("prepared transaction does not exist"),
                    Presence::Maybe => {
                        self.prepared_txns.downgrade(&gid);
                        unk()
                    }
                }
            }
            K::Handler => acc(), // toggles a session flag, always Ok
            K::Use => match arg1 {
                Some(_) => acc(),
                None => rej("USE requires a database name"),
            },
            K::SetRole | K::SetSessionAuthorization => {
                self.user = match arg1 {
                    Some(u)
                        if !u.eq_ignore_ascii_case("NONE")
                            && !u.eq_ignore_ascii_case("DEFAULT") =>
                    {
                        if u == "admin" {
                            UserState::Admin
                        } else {
                            UserState::Named(u.to_string())
                        }
                    }
                    _ => UserState::Admin,
                };
                acc()
            }
            K::SetTransaction | K::SetConstraints => match self.txn {
                Tri::Yes => acc(),
                Tri::No => rej("can only be used in transaction blocks"),
                Tri::Maybe => unk(),
            },
            K::LockTables => {
                let name = arg1.unwrap_or_default();
                let key = norm(name);
                let tp = self.cat.tables.presence(&key);
                let verdict = if name.is_empty() {
                    acc()
                } else {
                    match tp {
                        Presence::Present => acc(),
                        Presence::Absent => rej("table does not exist"),
                        Presence::Maybe => unk(),
                    }
                };
                match verdict.verdict {
                    Verdict::Accept => self.locks.set(key, Presence::Present, Some("TABLE".into())),
                    Verdict::Unknown => self.locks.set(key, Presence::Maybe, None),
                    Verdict::Reject => {}
                }
                verdict
            }
            K::UnlockTables => {
                self.locks.clear_definite();
                acc()
            }
            K::RenameTable => {
                // `RENAME TABLE a TO b`, parsed from the raw arg.
                let words: Vec<&str> = m.arg.as_deref().unwrap_or("").split_whitespace().collect();
                if !(words.len() >= 3 && words[1].eq_ignore_ascii_case("TO")) {
                    return rej("malformed RENAME TABLE");
                }
                let (okey, nkey) = (norm(words[0]), norm(words[2]));
                let otp = self.cat.tables.presence(&okey);
                let ntp = self.cat.tables.presence(&nkey);
                let nvp = self.cat.views.presence(&nkey);
                // Engine order: new-name check (tables only) → drop old →
                // add new (which can still clash with a *view*).
                let verdict = if ntp == Presence::Present {
                    rej("table already exists")
                } else if otp == Presence::Absent {
                    rej("table does not exist")
                } else if otp == Presence::Present
                    && ntp == Presence::Absent
                    && nvp == Presence::Absent
                {
                    acc()
                } else {
                    unk()
                };
                let cols = self.cat.tables.info(&okey).cloned().flatten();
                match verdict.verdict {
                    Verdict::Accept => {
                        self.cat.tables.set_absent(okey.clone());
                        self.cat.cascade_drop(&okey, true);
                        self.cat.tables.set(nkey, Presence::Present, cols);
                    }
                    Verdict::Unknown => {
                        // The drop can succeed and the re-add still fail on
                        // a view clash, losing the table entirely.
                        self.cat.tables.downgrade(&okey);
                        self.cat.cascade_drop(&okey, false);
                        self.cat.tables.uncertain_create(&nkey, None);
                    }
                    Verdict::Reject => {}
                }
                verdict
            }
            K::RenameUser | K::SetPassword | K::SetDefaultRole => acc(),
            K::CheckTable | K::ChecksumTable | K::OptimizeTable | K::RepairTable | K::Rebuild => {
                match self.cat.tables.presence(&norm(arg1.unwrap_or_default())) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("table does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::ExecProcedure => {
                let key = (ObjectKind::Procedure, norm(arg1.unwrap_or_default()));
                match self.cat.generic.presence(&key) {
                    Presence::Present => acc(),
                    Presence::Absent => rej("procedure does not exist"),
                    Presence::Maybe => unk(),
                }
            }
            K::Put => {
                self.settings.set(
                    format!("put.{}", norm(arg1.unwrap_or_default())),
                    Presence::Present,
                    (),
                );
                acc()
            }
            K::Shutdown | K::Restart | K::KillStmt => rej("not permitted in the harness"),
            K::FlushStmt
            | K::ResetPersist
            | K::ResetMaster
            | K::ResetSlave
            | K::PurgeBinaryLogs => {
                // Removes every "cache."-prefixed setting.
                let gone: Vec<String> = self
                    .settings
                    .known
                    .keys()
                    .filter(|k| k.starts_with("cache."))
                    .cloned()
                    .collect();
                for k in gone {
                    self.settings.set_absent(k);
                }
                acc()
            }
            K::LoadData | K::LoadXml | K::ImportTable | K::BulkImport => {
                // Errs iff no table exists at all.
                if self.cat.tables.definitely_present().next().is_some() {
                    acc()
                } else if !self.cat.tables.maybe_nonempty() {
                    rej("no table to load into")
                } else {
                    unk()
                }
            }
            K::Signal | K::Resignal => rej("signal raised"),
            k if k.name().starts_with("SHOW") => acc(),
            _ => acc(), // engine default arm: Ok(0), coverage only
        }
    }

    /// Join in the effects of a statement that *may* have executed (and, if
    /// it did, may have failed): used for statements nested inside `WITH`
    /// bodies, where the engine runs them via `exec_nested` but the analyzer
    /// cannot prove whether control reaches them.
    pub(crate) fn apply_uncertain(&mut self, stmt: &Statement) {
        // Nested execution goes back through exec_statement, so the
        // MySQL-family implicit commit applies to nested DDL too.
        let kind = stmt.kind();
        if self.prof.ddl_implicit_commit && matches!(kind, StmtKind::Ddl(..)) && self.txn != Tri::No
        {
            self.txn = Tri::Maybe;
            self.txn_snapshot = None;
            self.uncertain_clear_savepoints();
        }
        match stmt {
            Statement::CreateTable(c) => {
                self.cat.tables.uncertain_create(&norm(&c.name), None);
            }
            Statement::CreateTableAs { name, .. } => {
                self.cat.tables.uncertain_create(&norm(name), None);
            }
            Statement::CreateView(v) => {
                let key = norm(&v.name);
                if v.or_replace && self.cat.views.presence(&key) == Presence::Present {
                    if self.cat.views.info(&key) != Some(&Some(v.materialized)) {
                        self.cat.views.set(key, Presence::Present, None);
                    }
                } else {
                    self.cat.views.uncertain_create(&key, None);
                }
            }
            Statement::CreateIndex(i) => {
                self.cat.indexes.uncertain_create(&norm(&i.name), Some(norm(&i.table)));
            }
            Statement::CreateTrigger(t) => {
                self.cat.triggers.uncertain_create(&norm(&t.name), Some(norm(&t.table)));
            }
            Statement::CreateRule(r) => {
                let key = norm(&r.name);
                if r.or_replace && self.cat.rules.presence(&key) == Presence::Present {
                    self.cat.rules.set(key, Presence::Present, None);
                } else {
                    self.cat.rules.uncertain_create(&key, Some(norm(&r.table)));
                }
            }
            Statement::AlterTable(a) => {
                let tkey = norm(&a.name);
                match &a.action {
                    AlterTableAction::RenameTo(new) => {
                        self.cat.tables.downgrade(&tkey);
                        self.cat.cascade_drop(&tkey, false);
                        self.cat.tables.uncertain_create(&norm(new), None);
                    }
                    _ => {
                        if self.cat.tables.presence(&tkey) == Presence::Present {
                            self.cat.tables.set(tkey, Presence::Present, None);
                        }
                    }
                }
            }
            Statement::Drop(d) => {
                let key = norm(&d.name);
                match d.object {
                    ObjectKind::Table => {
                        self.cat.tables.downgrade(&key);
                        self.cat.cascade_drop(&key, false);
                    }
                    ObjectKind::View | ObjectKind::MaterializedView => {
                        self.cat.views.downgrade(&key)
                    }
                    ObjectKind::Index => self.cat.indexes.downgrade(&key),
                    ObjectKind::Trigger => self.cat.triggers.downgrade(&key),
                    ObjectKind::Rule => self.cat.rules.downgrade(&key),
                    other => self.cat.generic.downgrade(&(other, key)),
                }
            }
            Statement::GenericDdl(g) => {
                use lego_sqlast::DdlVerb;
                let gkey = (g.object, norm(&g.name));
                match g.verb {
                    DdlVerb::Create => self.cat.generic.uncertain_create(&gkey),
                    DdlVerb::Drop => self.cat.generic.downgrade(&gkey),
                    DdlVerb::Alter => {}
                }
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                self.dml_effects();
            }
            Statement::With(w) => {
                if self.hooks_possible() {
                    self.fog_all();
                } else {
                    for cte in &w.ctes {
                        if let CteBody::Dml(dml) = &cte.body {
                            self.apply_uncertain(dml);
                        }
                    }
                    self.apply_uncertain(&w.body);
                }
            }
            Statement::Select(s) => {
                if let SelectVariant::Into(target) = &s.variant {
                    self.cat.tables.uncertain_create(&norm(target), None);
                }
            }
            Statement::Grant(g) => {
                let gkey = (norm(&g.grantee), norm(&g.object));
                // Grant always succeeds when executed — but execution itself
                // is uncertain here.
                self.cat.grants.uncertain_create(&gkey);
            }
            Statement::Begin | Statement::StartTransaction => {
                if self.txn != Tri::Yes {
                    self.txn = Tri::Maybe;
                }
                self.txn_snapshot = None;
            }
            Statement::Commit | Statement::End => {
                if self.txn != Tri::No {
                    self.txn = Tri::Maybe;
                }
                self.txn_snapshot = None;
                self.uncertain_clear_savepoints();
                self.locks.downgrade_all();
            }
            Statement::Rollback | Statement::Abort => {
                if self.txn != Tri::No {
                    self.txn = Tri::Maybe;
                    self.cat.fog();
                }
                self.txn_snapshot = None;
                self.uncertain_clear_savepoints();
                self.locks.downgrade_all();
            }
            Statement::Savepoint(_) => {
                if self.txn != Tri::No {
                    self.sp_fog = true;
                }
            }
            Statement::ReleaseSavepoint(_) => self.uncertain_clear_savepoints(),
            Statement::RollbackToSavepoint(_) => {
                if self.stack_maybe_nonempty() {
                    self.cat.fog();
                    self.sp_fog = true;
                }
            }
            Statement::Set(s) => {
                let key = norm(&s.name);
                if self.settings.presence(&key) != Presence::Present {
                    self.settings.set(key, Presence::Maybe, ());
                }
            }
            Statement::Reset(name) => self.settings.downgrade(&norm(name)),
            Statement::Pragma { name, .. } => {
                let key = format!("pragma.{}", norm(name));
                if self.settings.presence(&key) != Presence::Present {
                    self.settings.set(key, Presence::Maybe, ());
                }
            }
            Statement::Discard(what) => {
                if what.eq_ignore_ascii_case("ALL") {
                    self.settings.downgrade_all();
                    self.prepared.downgrade_all();
                    self.cursors.downgrade_all();
                }
            }
            Statement::LockTable { table, .. } => {
                let key = norm(table);
                if self.locks.presence(&key) != Presence::Present {
                    self.locks.set(key, Presence::Maybe, None);
                } else {
                    self.locks.set(key, Presence::Present, None);
                }
            }
            Statement::Misc(msub) => self.apply_uncertain_misc(msub),
            // Read-only / untracked-state statements.
            Statement::Revoke(_)
            | Statement::Values(_)
            | Statement::Truncate { .. }
            | Statement::Copy(_)
            | Statement::Show(_)
            | Statement::Analyze(_)
            | Statement::Vacuum { .. }
            | Statement::Explain(_)
            | Statement::Reindex(_)
            | Statement::Checkpoint
            | Statement::Cluster(_)
            | Statement::Listen(_)
            | Statement::Notify { .. }
            | Statement::Unlisten(_)
            | Statement::Comment { .. }
            | Statement::Call { .. }
            | Statement::RefreshMatView(_) => {}
        }
    }

    fn apply_uncertain_misc(&mut self, m: &lego_sqlast::MiscStmt) {
        use StandaloneKind as K;
        let arg1 = m.arg.as_deref().and_then(|a| a.split_whitespace().next());
        match m.kind {
            K::DeclareCursor => {
                if let Some(name) = arg1 {
                    self.cursors.uncertain_create(&norm(name), ());
                }
            }
            K::CloseCursor => self.cursors.downgrade(&norm(arg1.unwrap_or_default())),
            K::PrepareStmt => {
                if let Some(name) = arg1 {
                    self.prepared.uncertain_create(&norm(name), ());
                }
            }
            K::Deallocate => self.prepared.downgrade(&norm(arg1.unwrap_or_default())),
            K::XaBegin if self.xa != Tri::Yes => {
                self.xa = Tri::Maybe;
            }
            K::XaCommit | K::XaRollback if self.xa != Tri::No => {
                self.xa = Tri::Maybe;
            }
            K::PrepareTransaction => {
                if self.txn != Tri::No {
                    self.txn = Tri::Maybe;
                    self.txn_snapshot = None;
                }
                self.prepared_txns.uncertain_create(arg1.unwrap_or_default(), ());
            }
            K::CommitPrepared | K::RollbackPrepared => {
                self.prepared_txns.downgrade(arg1.unwrap_or_default());
            }
            K::SetRole | K::SetSessionAuthorization => {
                let executed = match arg1 {
                    Some(u)
                        if !u.eq_ignore_ascii_case("NONE")
                            && !u.eq_ignore_ascii_case("DEFAULT") =>
                    {
                        if u == "admin" {
                            UserState::Admin
                        } else {
                            UserState::Named(u.to_string())
                        }
                    }
                    _ => UserState::Admin,
                };
                if self.user != executed {
                    self.user = UserState::Unknown;
                }
            }
            K::LockTables => {
                let key = norm(arg1.unwrap_or_default());
                if self.locks.presence(&key) != Presence::Present {
                    self.locks.set(key, Presence::Maybe, None);
                } else {
                    self.locks.set(key, Presence::Present, None);
                }
            }
            K::UnlockTables => self.locks.downgrade_all(),
            K::RenameTable => {
                let words: Vec<&str> = m.arg.as_deref().unwrap_or("").split_whitespace().collect();
                if words.len() >= 3 && words[1].eq_ignore_ascii_case("TO") {
                    let (okey, nkey) = (norm(words[0]), norm(words[2]));
                    self.cat.tables.downgrade(&okey);
                    self.cat.cascade_drop(&okey, false);
                    self.cat.tables.uncertain_create(&nkey, None);
                }
            }
            K::Put => {
                let key = format!("put.{}", norm(arg1.unwrap_or_default()));
                if self.settings.presence(&key) != Presence::Present {
                    self.settings.set(key, Presence::Maybe, ());
                }
            }
            K::FlushStmt
            | K::ResetPersist
            | K::ResetMaster
            | K::ResetSlave
            | K::PurgeBinaryLogs => {
                let cached: Vec<String> = self
                    .settings
                    .known
                    .keys()
                    .filter(|k| k.starts_with("cache."))
                    .cloned()
                    .collect();
                for k in cached {
                    self.settings.downgrade(&k);
                }
            }
            _ => {} // remaining misc kinds touch no tracked state
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego::gen::{gen_statement, SchemaModel};
    use lego_sqlast::Dialect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The scope query `first_relation_in_scope` replaced: every table and
    /// view proven to exist, copied and sorted.
    fn relations_in_scope(b: &Binder) -> Vec<String> {
        let mut v: Vec<String> =
            b.cat.tables.definitely_present().map(|(k, _)| k.clone()).collect();
        v.extend(b.cat.views.definitely_present().map(|(k, _)| k.clone()));
        v.sort();
        v
    }

    #[test]
    fn first_relation_in_scope_is_the_first_of_the_sorted_relations() {
        use lego_sqlast::{DdlVerb, ObjectKind, StmtKind};
        let mut nonempty = 0;
        for dialect in Dialect::ALL {
            let kinds = dialect.supported_kinds();
            // Half the draws create or drop a table or view, so scopes hold
            // several relations.
            let mut ddl: Vec<StmtKind> = [ObjectKind::Table, ObjectKind::View]
                .into_iter()
                .flat_map(|o| [StmtKind::Ddl(DdlVerb::Create, o), StmtKind::Ddl(DdlVerb::Drop, o)])
                .collect();
            ddl.retain(|k| kinds.contains(k));
            for seed in 0..500 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut schema = SchemaModel::new();
                let mut binder = crate::Sema::new(dialect).binder();
                for _ in 0..12 {
                    let kind = if rng.gen_bool(0.5) {
                        ddl[rng.gen_range(0..ddl.len())]
                    } else {
                        kinds[rng.gen_range(0..kinds.len())]
                    };
                    let stmt = gen_statement(kind, &schema, dialect, &mut rng);
                    schema.observe(&stmt);
                    binder.step(&stmt);
                    let sorted = relations_in_scope(&binder);
                    assert_eq!(
                        binder.first_relation_in_scope(),
                        sorted.first().map(String::as_str),
                        "{dialect:?} seed {seed}: {stmt}"
                    );
                    nonempty += usize::from(sorted.len() > 1);
                }
            }
        }
        assert!(nonempty > 1000, "{nonempty}");

        // CREATE VIEW proves no view present, so set the namespaces: a view
        // first, a table first, either alone, a shadowed (Maybe) entry.
        for (tables, views, first) in [
            (&["z1", "b1"][..], &["a1", "y1"][..], Some("a1")),
            (&["b1"], &["c1"], Some("b1")),
            (&[], &["c1"], Some("c1")),
            (&["d1"], &[], Some("d1")),
            (&[], &[], None),
        ] {
            let mut binder = crate::Sema::new(Dialect::Postgres).binder();
            for t in tables {
                binder.cat.tables.set(t.to_string(), Presence::Present, None);
            }
            for v in views {
                binder.cat.views.set(v.to_string(), Presence::Present, None);
            }
            binder.cat.views.set("a0".into(), Presence::Maybe, None);
            assert_eq!(relations_in_scope(&binder).first().map(String::as_str), first);
            assert_eq!(binder.first_relation_in_scope(), first, "{tables:?} {views:?}");
        }
    }
}
