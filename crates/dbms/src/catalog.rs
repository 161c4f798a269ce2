//! System catalog: tables, views, triggers, rules, indexes, generic objects,
//! users and privileges.

use crate::value::{Row, Value};
use lego_sqlast::ast::{CreateRule, CreateTrigger, Query};
use lego_sqlast::expr::{DataType, Expr};
use lego_sqlast::kind::ObjectKind;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
pub struct ColumnMeta {
    pub name: String,
    pub ty: DataType,
    pub not_null: bool,
    pub unique: bool,
    pub primary_key: bool,
    pub default: Option<Expr>,
    pub check: Option<Expr>,
    pub references: Option<(String, Option<String>)>,
}

#[derive(Clone, Debug)]
pub struct IndexMeta {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

#[derive(Clone, Debug)]
pub struct TableMeta {
    pub name: String,
    pub temporary: bool,
    /// Shared with transaction snapshots and running statements; ALTER
    /// TABLE copies it on write (`Arc::make_mut`).
    pub columns: Arc<Vec<ColumnMeta>>,
    /// Table-level CHECK expressions.
    pub checks: Vec<Expr>,
    /// Table-level FOREIGN KEY constraints: (cols, ref table, ref cols).
    pub foreign_keys: Vec<(Vec<String>, String, Vec<String>)>,
    pub rows: Vec<Row>,
    /// ANALYZE has run since the last write (drives planner branches).
    pub analyzed: bool,
    /// Clustered by which column (CLUSTER).
    pub clustered: Option<String>,
}

impl TableMeta {
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

#[derive(Clone, Debug)]
pub struct ViewMeta {
    pub name: String,
    pub materialized: bool,
    pub query: Query,
    /// Materialized contents (refreshed by REFRESH MATERIALIZED VIEW).
    pub snapshot: Option<(Vec<String>, Vec<Row>)>,
}

#[derive(Clone, Debug)]
pub struct TriggerMeta {
    pub def: CreateTrigger,
}

#[derive(Clone, Debug)]
pub struct RuleMeta {
    pub def: CreateRule,
}

/// Catalog entry for the statement long tail (sequences, extensions, …).
#[derive(Clone, Debug)]
pub struct GenericObject {
    pub kind: ObjectKind,
    pub name: String,
    /// Bumped by ALTER; lets repeated DDL hit different branches.
    pub version: u32,
}

#[derive(Clone, Debug, Default)]
pub struct UserMeta {
    /// `privileges[table]` = set of privilege names (SELECT, INSERT, ALL, …).
    pub privileges: BTreeMap<String, Vec<String>>,
}

/// The whole database state. Cloned wholesale for transaction snapshots —
/// fuzzing databases stay tiny, so this is cheaper than undo logging.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    pub tables: BTreeMap<String, TableMeta>,
    pub views: BTreeMap<String, ViewMeta>,
    pub indexes: BTreeMap<String, IndexMeta>,
    /// Definitions are shared: firing a trigger or rule holds its `Arc`
    /// while the action runs (and may drop the definition), instead of a
    /// copy of it.
    pub triggers: BTreeMap<String, Arc<TriggerMeta>>,
    pub rules: BTreeMap<String, Arc<RuleMeta>>,
    pub generic: BTreeMap<(ObjectKind, String), GenericObject>,
    pub users: BTreeMap<String, UserMeta>,
    pub sequences_values: BTreeMap<String, i64>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every object, returning to the freshly-initialized state without
    /// replacing the catalog value itself.
    pub fn clear(&mut self) {
        self.tables.clear();
        self.views.clear();
        self.indexes.clear();
        self.triggers.clear();
        self.rules.clear();
        self.generic.clear();
        self.users.clear();
        self.sequences_values.clear();
    }

    /// The catalog key of `name`. Keys are lowercase; a name that already is
    /// (the common case) is looked up as it stands, without a copy. Column
    /// bindings follow the same rule.
    pub(crate) fn norm(name: &str) -> Cow<'_, str> {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        }
    }

    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(&*Self::norm(name))
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut TableMeta> {
        self.tables.get_mut(&*Self::norm(name))
    }

    pub fn add_table(&mut self, meta: TableMeta) -> Result<(), String> {
        let key = meta.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(format!("relation \"{}\" already exists", meta.name));
        }
        self.tables.insert(key, meta);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<TableMeta, String> {
        let meta = self
            .tables
            .remove(&*Self::norm(name))
            .ok_or_else(|| format!("table \"{name}\" does not exist"))?;
        self.indexes.retain(|_, ix| !ix.table.eq_ignore_ascii_case(name));
        self.triggers.retain(|_, t| !t.def.table.eq_ignore_ascii_case(name));
        self.rules.retain(|_, r| !r.def.table.eq_ignore_ascii_case(name));
        Ok(meta)
    }

    pub fn view(&self, name: &str) -> Option<&ViewMeta> {
        self.views.get(&*Self::norm(name))
    }

    pub fn view_mut(&mut self, name: &str) -> Option<&mut ViewMeta> {
        self.views.get_mut(&*Self::norm(name))
    }

    pub fn add_view(&mut self, meta: ViewMeta, or_replace: bool) -> Result<(), String> {
        let key = meta.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(format!("relation \"{}\" already exists", meta.name));
        }
        if self.views.contains_key(&key) && !or_replace {
            return Err(format!("view \"{}\" already exists", meta.name));
        }
        self.views.insert(key, meta);
        Ok(())
    }

    pub fn indexes_on(&self, table: &str) -> Vec<&IndexMeta> {
        self.indexes.values().filter(|ix| ix.table.eq_ignore_ascii_case(table)).collect()
    }

    pub fn triggers_on(
        &self,
        table: &str,
        event: lego_sqlast::ast::DmlEvent,
    ) -> Vec<&Arc<TriggerMeta>> {
        self.triggers
            .values()
            .filter(|t| t.def.table.eq_ignore_ascii_case(table) && t.def.event == event)
            .collect()
    }

    pub fn rules_on(&self, table: &str, event: lego_sqlast::ast::DmlEvent) -> Vec<&Arc<RuleMeta>> {
        self.rules
            .values()
            .filter(|r| r.def.table.eq_ignore_ascii_case(table) && r.def.event == event)
            .collect()
    }

    pub fn user_mut(&mut self, name: &str) -> &mut UserMeta {
        self.users.entry(Self::norm(name).into_owned()).or_default()
    }

    pub fn has_privilege(&self, user: &str, table: &str, privilege: &str) -> bool {
        self.users
            .get(&*Self::norm(user))
            .and_then(|u| u.privileges.get(&*Self::norm(table)))
            .map(|ps| {
                ps.iter()
                    .any(|p| p.eq_ignore_ascii_case(privilege) || p.eq_ignore_ascii_case("ALL"))
            })
            .unwrap_or(false)
    }

    /// Total number of stored rows across tables (used by SHOW/engine stats).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }
}

/// Helper to build a `Value` default for a column with no DEFAULT expression.
pub fn null_default() -> Value {
    Value::Null
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlast::expr::DataType;

    fn table(name: &str) -> TableMeta {
        TableMeta {
            name: name.into(),
            temporary: false,
            columns: Arc::new(vec![ColumnMeta {
                name: "a".into(),
                ty: DataType::Int,
                not_null: false,
                unique: false,
                primary_key: false,
                default: None,
                check: None,
                references: None,
            }]),
            checks: vec![],
            foreign_keys: vec![],
            rows: vec![],
            analyzed: false,
            clustered: None,
        }
    }

    #[test]
    fn add_and_lookup_is_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(table("T1")).unwrap();
        assert!(c.table("t1").is_some());
        assert!(c.table("T1").is_some());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.add_table(table("t")).unwrap();
        assert!(c.add_table(table("T")).is_err());
    }

    #[test]
    fn drop_table_cascades_indexes() {
        let mut c = Catalog::new();
        c.add_table(table("t")).unwrap();
        c.indexes.insert(
            "i1".into(),
            IndexMeta {
                name: "i1".into(),
                table: "t".into(),
                columns: vec!["a".into()],
                unique: false,
            },
        );
        c.drop_table("t").unwrap();
        assert!(c.indexes.is_empty());
    }

    #[test]
    fn privileges() {
        let mut c = Catalog::new();
        c.user_mut("alice").privileges.insert("t".into(), vec!["SELECT".into()]);
        assert!(c.has_privilege("alice", "t", "select"));
        assert!(!c.has_privilege("alice", "t", "INSERT"));
        c.user_mut("bob").privileges.insert("t".into(), vec!["ALL".into()]);
        assert!(c.has_privilege("bob", "t", "DELETE"));
    }
}
