//! The statement-type inventory.
//!
//! The paper (§ II): "a statement type defines one certain kind of specific
//! operation on a certain type of object. For example, CREATE TABLE and
//! CREATE VIEW are two types." We model a type either as a (DDL verb, object
//! kind) pair or as a standalone kind (SELECT, NOTIFY, COPY, …).

use serde::Serialize;
use std::fmt;

/// DDL verbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum DdlVerb {
    Create,
    Alter,
    Drop,
}

impl DdlVerb {
    pub const ALL: [DdlVerb; 3] = [DdlVerb::Create, DdlVerb::Alter, DdlVerb::Drop];

    pub fn keyword(self) -> &'static str {
        match self {
            DdlVerb::Create => "CREATE",
            DdlVerb::Alter => "ALTER",
            DdlVerb::Drop => "DROP",
        }
    }
}

macro_rules! object_kinds {
    ($( $variant:ident => $name:literal ),+ $(,)?) => {
        /// Kinds of schema objects a DDL statement can target.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
        pub enum ObjectKind {
            $( $variant, )+
        }

        impl ObjectKind {
            pub const ALL: &'static [ObjectKind] = &[ $( ObjectKind::$variant, )+ ];

            /// The SQL keyword(s) naming this object kind.
            pub fn keyword(self) -> &'static str {
                match self {
                    $( ObjectKind::$variant => $name, )+
                }
            }
        }
    };
}

object_kinds! {
    AccessMethod => "ACCESS METHOD",
    Aggregate => "AGGREGATE",
    Cast => "CAST",
    Collation => "COLLATION",
    Conversion => "CONVERSION",
    Database => "DATABASE",
    Domain => "DOMAIN",
    Event => "EVENT",
    EventTrigger => "EVENT TRIGGER",
    Extension => "EXTENSION",
    ForeignDataWrapper => "FOREIGN DATA WRAPPER",
    ForeignTable => "FOREIGN TABLE",
    Function => "FUNCTION",
    Group => "GROUP",
    Index => "INDEX",
    Language => "LANGUAGE",
    LogfileGroup => "LOGFILE GROUP",
    MaterializedView => "MATERIALIZED VIEW",
    Operator => "OPERATOR",
    OperatorClass => "OPERATOR CLASS",
    OperatorFamily => "OPERATOR FAMILY",
    Package => "PACKAGE",
    Policy => "POLICY",
    Procedure => "PROCEDURE",
    Publication => "PUBLICATION",
    Role => "ROLE",
    Rule => "RULE",
    Schema => "SCHEMA",
    Sequence => "SEQUENCE",
    Server => "SERVER",
    SpatialReferenceSystem => "SPATIAL REFERENCE SYSTEM",
    Statistics => "STATISTICS",
    Subscription => "SUBSCRIPTION",
    Table => "TABLE",
    Tablespace => "TABLESPACE",
    TextSearchConfiguration => "TEXT SEARCH CONFIGURATION",
    TextSearchDictionary => "TEXT SEARCH DICTIONARY",
    TextSearchParser => "TEXT SEARCH PARSER",
    TextSearchTemplate => "TEXT SEARCH TEMPLATE",
    Transform => "TRANSFORM",
    Trigger => "TRIGGER",
    Type => "TYPE",
    User => "USER",
    UserMapping => "USER MAPPING",
    View => "VIEW",
    ResourceGroup => "RESOURCE GROUP",
    Routine => "ROUTINE",
}

macro_rules! standalone_kinds {
    ($( $variant:ident => ($name:literal, $cat:ident) ),+ $(,)?) => {
        /// Statement kinds that are not (verb, object) DDL pairs.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
        pub enum StandaloneKind {
            $( $variant, )+
        }

        impl StandaloneKind {
            pub const ALL: &'static [StandaloneKind] = &[ $( StandaloneKind::$variant, )+ ];

            pub fn name(self) -> &'static str {
                match self {
                    $( StandaloneKind::$variant => $name, )+
                }
            }

            pub fn category(self) -> StmtCategory {
                match self {
                    $( StandaloneKind::$variant => StmtCategory::$cat, )+
                }
            }
        }
    };
}

standalone_kinds! {
    // Query & manipulation
    Select => ("SELECT", Dql),
    SelectInto => ("SELECT INTO", Dql),
    SelectV => ("SELECTV", Dql),
    Values => ("VALUES", Dql),
    Insert => ("INSERT", Dml),
    Replace => ("REPLACE", Dml),
    Update => ("UPDATE", Dml),
    Delete => ("DELETE", Dml),
    Merge => ("MERGE", Dml),
    With => ("WITH", Dml),
    Truncate => ("TRUNCATE", Dml),
    Copy => ("COPY", Dml),
    LoadData => ("LOAD DATA", Dml),
    LoadXml => ("LOAD XML", Dml),
    ImportForeignSchema => ("IMPORT FOREIGN SCHEMA", Ddl),
    CreateTableAs => ("CREATE TABLE AS", Ddl),
    RenameTable => ("RENAME TABLE", Ddl),
    // Access control
    Grant => ("GRANT", Dcl),
    Revoke => ("REVOKE", Dcl),
    ReassignOwned => ("REASSIGN OWNED", Dcl),
    DropOwned => ("DROP OWNED", Dcl),
    AlterDefaultPrivileges => ("ALTER DEFAULT PRIVILEGES", Dcl),
    RenameUser => ("RENAME USER", Dcl),
    SetPassword => ("SET PASSWORD", Dcl),
    SetRole => ("SET ROLE", Dcl),
    SetSessionAuthorization => ("SET SESSION AUTHORIZATION", Dcl),
    // Transactions
    Begin => ("BEGIN", Tcl),
    StartTransaction => ("START TRANSACTION", Tcl),
    Commit => ("COMMIT", Tcl),
    End => ("END", Tcl),
    Rollback => ("ROLLBACK", Tcl),
    Abort => ("ABORT", Tcl),
    Savepoint => ("SAVEPOINT", Tcl),
    ReleaseSavepoint => ("RELEASE SAVEPOINT", Tcl),
    RollbackToSavepoint => ("ROLLBACK TO SAVEPOINT", Tcl),
    PrepareTransaction => ("PREPARE TRANSACTION", Tcl),
    CommitPrepared => ("COMMIT PREPARED", Tcl),
    RollbackPrepared => ("ROLLBACK PREPARED", Tcl),
    SetTransaction => ("SET TRANSACTION", Tcl),
    SetConstraints => ("SET CONSTRAINTS", Tcl),
    XaBegin => ("XA BEGIN", Tcl),
    XaCommit => ("XA COMMIT", Tcl),
    XaRollback => ("XA ROLLBACK", Tcl),
    LockTable => ("LOCK", Tcl),
    LockTables => ("LOCK TABLES", Tcl),
    UnlockTables => ("UNLOCK TABLES", Tcl),
    // Session / configuration
    Set => ("SET", Util),
    Reset => ("RESET", Util),
    Show => ("SHOW", Util),
    Use => ("USE", Util),
    Pragma => ("PRAGMA", Util),
    AlterSystem => ("ALTER SYSTEM", Util),
    Discard => ("DISCARD", Util),
    // Maintenance & introspection
    Analyze => ("ANALYZE", Util),
    Vacuum => ("VACUUM", Util),
    Explain => ("EXPLAIN", Util),
    Describe => ("DESCRIBE", Util),
    Cluster => ("CLUSTER", Util),
    Reindex => ("REINDEX", Util),
    Rebuild => ("REBUILD", Util),
    Checkpoint => ("CHECKPOINT", Util),
    Comment => ("COMMENT", Util),
    SecurityLabel => ("SECURITY LABEL", Util),
    RefreshMaterializedView => ("REFRESH MATERIALIZED VIEW", Util),
    CheckTable => ("CHECK TABLE", Util),
    ChecksumTable => ("CHECKSUM TABLE", Util),
    OptimizeTable => ("OPTIMIZE TABLE", Util),
    RepairTable => ("REPAIR TABLE", Util),
    // Async messaging (PostgreSQL)
    Listen => ("LISTEN", Util),
    Notify => ("NOTIFY", Util),
    Unlisten => ("UNLISTEN", Util),
    // Prepared statements & cursors
    PrepareStmt => ("PREPARE", Util),
    ExecuteStmt => ("EXECUTE", Util),
    Deallocate => ("DEALLOCATE", Util),
    DeclareCursor => ("DECLARE", Util),
    Fetch => ("FETCH", Util),
    Move => ("MOVE", Util),
    CloseCursor => ("CLOSE", Util),
    Handler => ("HANDLER", Util),
    // Procedural
    Call => ("CALL", Util),
    Do => ("DO", Util),
    ExecProcedure => ("EXEC PROCEDURE", Util),
    // Server administration (MySQL family)
    FlushStmt => ("FLUSH", Util),
    KillStmt => ("KILL", Util),
    ResetMaster => ("RESET MASTER", Util),
    ResetSlave => ("RESET SLAVE", Util),
    PurgeBinaryLogs => ("PURGE BINARY LOGS", Util),
    ChangeMaster => ("CHANGE MASTER", Util),
    StartSlave => ("START SLAVE", Util),
    StopSlave => ("STOP SLAVE", Util),
    Binlog => ("BINLOG", Util),
    InstallPlugin => ("INSTALL PLUGIN", Util),
    UninstallPlugin => ("UNINSTALL PLUGIN", Util),
    CacheIndex => ("CACHE INDEX", Util),
    LoadIndexIntoCache => ("LOAD INDEX INTO CACHE", Util),
    Load => ("LOAD", Util),
    Shutdown => ("SHUTDOWN", Util),
    HelpStmt => ("HELP", Util),
    // Diagnostics / signals (MySQL family)
    Signal => ("SIGNAL", Util),
    Resignal => ("RESIGNAL", Util),
    GetDiagnostics => ("GET DIAGNOSTICS", Util),
    // Comdb2 specific
    Put => ("PUT", Util),
    BulkImport => ("BULKIMPORT", Util),
    // MySQL-family SHOW variants: the paper counts statement types as
    // "operation on a certain type of object", so each SHOW form is a type.
    ShowBinaryLogs => ("SHOW BINARY LOGS", Util),
    ShowBinlogEvents => ("SHOW BINLOG EVENTS", Util),
    ShowCharacterSet => ("SHOW CHARACTER SET", Util),
    ShowCollation => ("SHOW COLLATION", Util),
    ShowColumns => ("SHOW COLUMNS", Util),
    ShowCreateDatabase => ("SHOW CREATE DATABASE", Util),
    ShowCreateEvent => ("SHOW CREATE EVENT", Util),
    ShowCreateFunction => ("SHOW CREATE FUNCTION", Util),
    ShowCreateProcedure => ("SHOW CREATE PROCEDURE", Util),
    ShowCreateTable => ("SHOW CREATE TABLE", Util),
    ShowCreateTrigger => ("SHOW CREATE TRIGGER", Util),
    ShowCreateUser => ("SHOW CREATE USER", Util),
    ShowCreateView => ("SHOW CREATE VIEW", Util),
    ShowDatabases => ("SHOW DATABASES", Util),
    ShowEngine => ("SHOW ENGINE", Util),
    ShowEngines => ("SHOW ENGINES", Util),
    ShowErrors => ("SHOW ERRORS", Util),
    ShowEvents => ("SHOW EVENTS", Util),
    ShowFunctionStatus => ("SHOW FUNCTION STATUS", Util),
    ShowGrants => ("SHOW GRANTS", Util),
    ShowIndex => ("SHOW INDEX", Util),
    ShowMasterStatus => ("SHOW MASTER STATUS", Util),
    ShowOpenTables => ("SHOW OPEN TABLES", Util),
    ShowPlugins => ("SHOW PLUGINS", Util),
    ShowPrivileges => ("SHOW PRIVILEGES", Util),
    ShowProcedureStatus => ("SHOW PROCEDURE STATUS", Util),
    ShowProcesslist => ("SHOW PROCESSLIST", Util),
    ShowProfile => ("SHOW PROFILE", Util),
    ShowProfiles => ("SHOW PROFILES", Util),
    ShowRelaylogEvents => ("SHOW RELAYLOG EVENTS", Util),
    ShowSlaveHosts => ("SHOW SLAVE HOSTS", Util),
    ShowSlaveStatus => ("SHOW SLAVE STATUS", Util),
    ShowStatus => ("SHOW STATUS", Util),
    ShowTableStatus => ("SHOW TABLE STATUS", Util),
    ShowTables => ("SHOW TABLES", Util),
    ShowTriggers => ("SHOW TRIGGERS", Util),
    ShowVariables => ("SHOW VARIABLES", Util),
    ShowWarnings => ("SHOW WARNINGS", Util),
    // Misc MySQL 8 / MariaDB statements needed for inventory parity
    SetNames => ("SET NAMES", Util),
    SetCharacterSet => ("SET CHARACTER SET", Util),
    SetDefaultRole => ("SET DEFAULT ROLE", Dcl),
    SetResourceGroup => ("SET RESOURCE GROUP", Util),
    TableStmt => ("TABLE", Dql),
    ChangeReplicationFilter => ("CHANGE REPLICATION FILTER", Util),
    ResetPersist => ("RESET PERSIST", Util),
    Restart => ("RESTART", Util),
    CloneStmt => ("CLONE", Util),
    ImportTable => ("IMPORT TABLE", Util),
    ExecuteImmediate => ("EXECUTE IMMEDIATE", Util),
    ShowExplain => ("SHOW EXPLAIN", Util),
    ShowIndexStatistics => ("SHOW INDEX_STATISTICS", Util),
    ShowUserStatistics => ("SHOW USER_STATISTICS", Util),
    ShowAuthors => ("SHOW AUTHORS", Util),
    ShowContributors => ("SHOW CONTRIBUTORS", Util),
    BackupStage => ("BACKUP STAGE", Util),
}

/// Coarse classification of statement types (paper § II: DDL / DQL / DML /
/// DCL plus transaction control and utility statements).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum StmtCategory {
    Ddl,
    Dql,
    Dml,
    Dcl,
    Tcl,
    Util,
}

/// A SQL statement type — the alphabet of SQL Type Sequences.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum StmtKind {
    Ddl(DdlVerb, ObjectKind),
    Other(StandaloneKind),
}

impl StmtKind {
    /// Total number of statement types (= the number of distinct
    /// [`StmtKind::code`] values, which are contiguous in `0..COUNT`).
    /// Lets dense per-kind tables be sized at compile time.
    pub const COUNT: usize = DdlVerb::ALL.len() * ObjectKind::ALL.len() + StandaloneKind::ALL.len();

    /// Every statement type known to any dialect.
    pub fn all() -> Vec<StmtKind> {
        let mut v = Vec::with_capacity(
            DdlVerb::ALL.len() * ObjectKind::ALL.len() + StandaloneKind::ALL.len(),
        );
        for &verb in &DdlVerb::ALL {
            for &obj in ObjectKind::ALL {
                v.push(StmtKind::Ddl(verb, obj));
            }
        }
        v.extend(StandaloneKind::ALL.iter().map(|&k| StmtKind::Other(k)));
        v
    }

    pub fn category(self) -> StmtCategory {
        match self {
            StmtKind::Ddl(..) => StmtCategory::Ddl,
            StmtKind::Other(k) => k.category(),
        }
    }

    /// Human/SQL-facing name, e.g. `CREATE TABLE`, `NOTIFY`.
    pub fn name(self) -> String {
        match self {
            StmtKind::Ddl(verb, obj) => format!("{} {}", verb.keyword(), obj.keyword()),
            StmtKind::Other(k) => k.name().to_string(),
        }
    }

    /// A compact stable code, useful as an RNG stream id or map key.
    /// O(1): the enums carry no payload, so the discriminant *is* the
    /// position in the `ALL` tables (both are declaration-ordered).
    pub fn code(self) -> u16 {
        match self {
            StmtKind::Ddl(verb, obj) => verb as u16 * ObjectKind::ALL.len() as u16 + obj as u16,
            StmtKind::Other(k) => (DdlVerb::ALL.len() * ObjectKind::ALL.len()) as u16 + k as u16,
        }
    }

    /// Inverse of [`StmtKind::code`]; `None` for codes outside the alphabet
    /// (e.g. read from a corrupt checkpoint).
    pub fn from_code(code: u16) -> Option<StmtKind> {
        let ddl = (DdlVerb::ALL.len() * ObjectKind::ALL.len()) as u16;
        if code < ddl {
            let verb = DdlVerb::ALL[(code / ObjectKind::ALL.len() as u16) as usize];
            let obj = ObjectKind::ALL[(code % ObjectKind::ALL.len() as u16) as usize];
            Some(StmtKind::Ddl(verb, obj))
        } else {
            StandaloneKind::ALL.get((code - ddl) as usize).map(|&k| StmtKind::Other(k))
        }
    }

    /// Statement types that are natural *sequence starters* for synthesis
    /// (paper § III-B: "Beginning from specific starting statement types
    /// (e.g., CREATE TABLE)").
    pub fn is_sequence_starter(self) -> bool {
        matches!(
            self,
            StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table)
                | StmtKind::Ddl(DdlVerb::Create, ObjectKind::Schema)
                | StmtKind::Ddl(DdlVerb::Create, ObjectKind::Database)
                | StmtKind::Other(StandaloneKind::Begin)
                | StmtKind::Other(StandaloneKind::Set)
                | StmtKind::Other(StandaloneKind::Pragma)
        )
    }
}

impl fmt::Display for StmtKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtKind::Ddl(verb, obj) => write!(f, "{} {}", verb.keyword(), obj.keyword()),
            StmtKind::Other(k) => f.write_str(k.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_kinds_are_distinct() {
        let all = StmtKind::all();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn codes_are_unique() {
        let all = StmtKind::all();
        let codes: HashSet<u16> = all.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn from_code_inverts_code() {
        for k in StmtKind::all() {
            assert_eq!(StmtKind::from_code(k.code()), Some(k));
        }
        let max = StmtKind::all().iter().map(|k| k.code()).max().unwrap();
        assert_eq!(StmtKind::from_code(max + 1), None);
    }

    #[test]
    fn names_are_unique() {
        let all = StmtKind::all();
        let names: HashSet<String> = all.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn category_of_ddl_pairs() {
        assert_eq!(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table).category(), StmtCategory::Ddl);
        assert_eq!(StmtKind::Other(StandaloneKind::Select).category(), StmtCategory::Dql);
        assert_eq!(StmtKind::Other(StandaloneKind::Insert).category(), StmtCategory::Dml);
        assert_eq!(StmtKind::Other(StandaloneKind::Grant).category(), StmtCategory::Dcl);
        assert_eq!(StmtKind::Other(StandaloneKind::Commit).category(), StmtCategory::Tcl);
    }

    #[test]
    fn sequence_starters_exist() {
        let starters: Vec<_> =
            StmtKind::all().into_iter().filter(|k| k.is_sequence_starter()).collect();
        assert!(starters.contains(&StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table)));
        assert!(starters.len() >= 3);
    }

    #[test]
    fn display_matches_name() {
        for k in StmtKind::all() {
            assert_eq!(format!("{}", k), k.name());
        }
    }
}
