//! Per-DBMS feature profiles and component taxonomy.

use lego_sqlast::Dialect;
use serde::Serialize;

/// Source components, matching the "Component" column of the paper's Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum Component {
    Parser,
    Rewriter,
    Optimizer,
    Dml,
    Executor,
    Storage,
    Auth,
    Lock,
    Item,
    Mem,
    Bdb,
    Berkdb,
    Csc2,
    Db,
    Sqlite,
}

impl Component {
    pub fn name(self) -> &'static str {
        match self {
            Component::Parser => "Parser",
            Component::Rewriter => "Rewriter",
            Component::Optimizer => "Optimizer",
            Component::Dml => "DML",
            Component::Executor => "Executor",
            Component::Storage => "Storage",
            Component::Auth => "Auth",
            Component::Lock => "Lock",
            Component::Item => "Item",
            Component::Mem => "Mem",
            Component::Bdb => "Bdb",
            Component::Berkdb => "Berkdb",
            Component::Csc2 => "Csc2",
            Component::Db => "Db",
            Component::Sqlite => "Sqlite",
        }
    }

    /// Representative stack frames for synthetic crash call stacks.
    pub fn stack_frames(self) -> &'static [&'static str] {
        match self {
            Component::Parser => &["raw_parser", "transformStmt"],
            Component::Rewriter => &["RewriteQuery", "rewriteRuleAction"],
            Component::Optimizer => &["plan_query", "replace_empty_jointree"],
            Component::Dml => &["ExecModifyTable", "ExecInsert"],
            Component::Executor => &["ExecutorRun", "ExecProcNode"],
            Component::Storage => &["heap_insert", "btree_search"],
            Component::Auth => &["check_privileges", "acl_lookup"],
            Component::Lock => &["lock_acquire", "deadlock_check"],
            Component::Item => &["Item_func::val_int", "Item::evaluate"],
            Component::Mem => &["comdb2_malloc", "mspace_free"],
            Component::Bdb => &["bdb_fetch", "bdb_cursor_move"],
            Component::Berkdb => &["__db_get", "__bam_search"],
            Component::Csc2 => &["csc2_parse_schema", "csc2_typecheck"],
            Component::Db => &["sqlengine_work", "osql_process"],
            Component::Sqlite => &["sqlite3VdbeExec", "sqlite3WhereBegin"],
        }
    }
}

/// Feature switches for one simulated DBMS.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub dialect: Dialect,
    /// PostgreSQL query-rewrite rules (`CREATE RULE`).
    pub has_rules: bool,
    /// LISTEN/NOTIFY.
    pub has_notify: bool,
    pub has_triggers: bool,
    pub has_views: bool,
    pub has_matviews: bool,
    pub has_window_functions: bool,
    pub enforces_foreign_keys: bool,
    /// MySQL-family: DDL commits any open transaction.
    pub ddl_implicit_commit: bool,
    pub check_privileges: bool,
}

impl Profile {
    pub fn for_dialect(dialect: Dialect) -> Profile {
        match dialect {
            Dialect::Postgres => Profile {
                dialect,
                has_rules: true,
                has_notify: true,
                has_triggers: true,
                has_views: true,
                has_matviews: true,
                has_window_functions: true,
                enforces_foreign_keys: true,
                ddl_implicit_commit: false,
                check_privileges: true,
            },
            Dialect::MySql | Dialect::MariaDb => Profile {
                dialect,
                has_rules: false,
                has_notify: false,
                has_triggers: true,
                has_views: true,
                has_matviews: false,
                has_window_functions: true,
                enforces_foreign_keys: true,
                ddl_implicit_commit: true,
                check_privileges: true,
            },
            Dialect::Comdb2 => Profile {
                dialect,
                has_rules: false,
                has_notify: false,
                has_triggers: false,
                has_views: true,
                has_matviews: false,
                has_window_functions: false,
                enforces_foreign_keys: false,
                ddl_implicit_commit: true,
                check_privileges: true,
            },
        }
    }

    /// Components instrumented for this DBMS (Table I groups bugs by these).
    pub fn components(&self) -> &'static [Component] {
        match self.dialect {
            Dialect::Postgres => &[
                Component::Parser,
                Component::Rewriter,
                Component::Optimizer,
                Component::Dml,
                Component::Executor,
                Component::Storage,
            ],
            Dialect::MySql => &[
                Component::Parser,
                Component::Optimizer,
                Component::Dml,
                Component::Auth,
                Component::Storage,
                Component::Item,
            ],
            Dialect::MariaDb => &[
                Component::Parser,
                Component::Optimizer,
                Component::Dml,
                Component::Storage,
                Component::Item,
                Component::Lock,
            ],
            Dialect::Comdb2 => &[
                Component::Bdb,
                Component::Berkdb,
                Component::Csc2,
                Component::Db,
                Component::Mem,
                Component::Sqlite,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_it_matters() {
        let pg = Profile::for_dialect(Dialect::Postgres);
        let my = Profile::for_dialect(Dialect::MySql);
        let c2 = Profile::for_dialect(Dialect::Comdb2);
        assert!(pg.has_rules && pg.has_notify);
        assert!(!my.has_rules && my.ddl_implicit_commit);
        assert!(!c2.has_triggers && !c2.has_window_functions);
    }

    #[test]
    fn every_profile_has_six_components() {
        for d in Dialect::ALL {
            assert_eq!(Profile::for_dialect(d).components().len(), 6, "{d:?}");
        }
    }
}
