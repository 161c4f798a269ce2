#![forbid(unsafe_code)]

//! A hand-written recursive-descent SQL parser for the four dialects.
//!
//! The paper builds its AST parser with Bison/Flex and thousands of grammar
//! rules; here one lenient parser accepts the *union* grammar of all four
//! dialects (dialect validity is checked downstream by the engine). The
//! design goals, in order:
//!
//! 1. Every statement produced by `lego_sqlast`'s `Display` must round-trip.
//! 2. Every statement kind of every dialect must parse to the right
//!    [`StmtKind`](lego_sqlast::StmtKind) — exotic kinds parse generically.
//! 3. Garbage must fail fast with a useful error, never panic.

//! ```
//! let case = lego_sqlparser::parse_script(
//!     "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
//! ).unwrap();
//! let names: Vec<String> = case.type_sequence().iter().map(|k| k.name()).collect();
//! assert_eq!(names, ["CREATE TABLE", "INSERT", "SELECT"]);
//! ```

pub mod lexer;
mod parser;
mod phrases;
mod tracer;

pub use lexer::{lex, lex_spanned, LexError, Tok};
pub use parser::{ParseError, Parser};
pub use tracer::RuleTracer;

use lego_coverage::{CovMap, CovRecorder};
use lego_sqlast::{Statement, TestCase};

/// A short source excerpt starting at byte `offset`, for error messages.
/// Clamped to char boundaries, newlines flattened.
fn snippet(sql: &str, offset: usize) -> String {
    let mut start = offset.min(sql.len());
    while start > 0 && !sql.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = (start + 24).min(sql.len());
    while end < sql.len() && !sql.is_char_boundary(end) {
        end += 1;
    }
    sql[start..end].replace(['\n', '\r'], " ")
}

/// Attach the byte offset and a source snippet to a parse error. `pos`
/// keeps its token-index semantics; errors past the last token point at
/// end-of-input.
fn enrich(sql: &str, spans: &[usize], e: ParseError) -> ParseError {
    let offset = spans.get(e.pos).copied().unwrap_or(sql.len());
    ParseError {
        pos: e.pos,
        message: format!("{} at byte {offset} (near `{}`)", e.message, snippet(sql, offset)),
    }
}

/// Map a lexer failure into the `ParseError` coordinate system: the token
/// index the bad token would have had, with byte offset and snippet in the
/// message.
fn lex_error(sql: &str, e: LexError) -> ParseError {
    ParseError { pos: e.token_index, message: format!("{e} (near `{}`)", snippet(sql, e.offset)) }
}

/// Parse a SQL script (statements separated by `;`) into a test case.
pub fn parse_script(sql: &str) -> Result<TestCase, ParseError> {
    match parse_script_inner(sql, None) {
        Ok((case, _)) => Ok(case),
        Err((e, _)) => Err(e),
    }
}

/// Parse a SQL script while recording grammar-rule traversal coverage into
/// `rec` (AFL-style rule→rule edges, chain reset at each statement
/// boundary). Returns the rule map even when parsing fails: the partial
/// traversal up to the error. [`RuleTracer`] gives the same map for a
/// printed test case without re-parsing the statements it has seen.
pub fn parse_script_traced(sql: &str, rec: CovRecorder) -> (Result<TestCase, ParseError>, CovMap) {
    match parse_script_inner(sql, Some(rec)) {
        Ok((case, map)) => (Ok(case), map.expect("traced parse returns its map")),
        Err((e, map)) => (Err(e), map.unwrap_or_default()),
    }
}

type TracedError = (ParseError, Option<CovMap>);

fn parse_script_inner(
    sql: &str,
    rec: Option<CovRecorder>,
) -> Result<(TestCase, Option<CovMap>), TracedError> {
    let traced = rec.is_some();
    let (toks, spans) = match lexer::lex_spanned(sql) {
        Ok(x) => x,
        Err(e) => return Err((lex_error(sql, e), rec.map(CovRecorder::into_map))),
    };
    let mut p = match rec {
        Some(r) => Parser::with_rules(toks, r),
        None => Parser::new(toks),
    };
    let mut statements = Vec::new();
    loop {
        p.skip_semicolons();
        if p.at_end() {
            break;
        }
        p.reset_rule_chain();
        match p.parse_statement() {
            Ok(s) => statements.push(s),
            Err(e) => {
                let e = enrich(sql, &spans, e);
                return Err((e, traced.then(|| p.into_rule_map())));
            }
        }
        if !p.at_end() && !p.eat_sym(";") {
            let e = enrich(sql, &spans, p.error("expected ';' between statements"));
            return Err((e, traced.then(|| p.into_rule_map())));
        }
    }
    let map = traced.then(|| p.into_rule_map());
    Ok((TestCase::new(statements), map))
}

/// Parse exactly one statement.
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tc = parse_script(sql)?;
    match tc.statements.len() {
        1 => Ok(tc.statements.into_iter().next().unwrap()),
        n => Err(ParseError { pos: 0, message: format!("expected 1 statement, found {n}") }),
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    /// Parse, render, re-parse: the two ASTs must be identical.
    fn roundtrip(sql: &str) {
        let one = parse_script(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let rendered = one.to_sql();
        let two = parse_script(&rendered).unwrap_or_else(|e| panic!("re-parse {rendered:?}: {e}"));
        assert_eq!(one, two, "round-trip mismatch for {sql:?} -> {rendered:?}");
    }

    #[test]
    fn roundtrip_core_dml() {
        roundtrip("CREATE TABLE t1 (v1 INT, v2 INT);");
        roundtrip("INSERT INTO t1 VALUES (1, 1), (2, 1);");
        roundtrip("SELECT v2 FROM t1 WHERE v1 = 1;");
        roundtrip("SELECT * FROM t1 ORDER BY v1 DESC LIMIT 10 OFFSET 2;");
        roundtrip("UPDATE t1 SET v1 = 1 WHERE v2 > 3;");
        roundtrip("DELETE FROM t1 WHERE v1 = 1;");
    }

    #[test]
    fn roundtrip_paper_figure_1() {
        roundtrip(
            "CREATE TABLE t1(v1 INT, v2 INT);\n\
             INSERT INTO t1 VALUES(1, 1);\n\
             INSERT INTO t1 VALUES(2, 1);\n\
             SELECT * FROM t1 ORDER BY v1;\n\
             SELECT v2 FROM t1 WHERE v1=1;",
        );
    }

    #[test]
    fn roundtrip_paper_case_study() {
        // Figure 7: the PostgreSQL SEGV reproducer.
        roundtrip(
            "CREATE TABLE v0( v4 INT, v3 INT UNIQUE, v2 INT , v1 INT UNIQUE ) ;\n\
             CREATE OR REPLACE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY COMPRESSION;\n\
             COPY ( SELECT 32 EXCEPT SELECT v3 + 16 FROM v0 ) TO STDOUT CSV HEADER ;\n\
             WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = - - - 48;",
        );
    }

    #[test]
    fn roundtrip_cve_2021_35643_shape() {
        // Figure 3: the synthesized MySQL crasher (window frame + trigger).
        roundtrip(
            "CREATE TABLE v0 (v1 YEAR);\n\
             INSERT LOW_PRIORITY IGNORE INTO v0 VALUES ( NULL ), (22471185.000000), ('x' LIKE NULL);\n\
             CREATE TRIGGER v0 AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0 SELECT * FROM v2 GROUP BY v1 ORDER BY RANK () OVER (ORDER BY v1);\n\
             SELECT LEAD (v1) OVER (ORDER BY v1 RANGE BETWEEN 1468.000 FOLLOWING AND 16 FOLLOWING ) AS v1 FROM v0;",
        );
    }

    #[test]
    fn roundtrip_ddl_variants() {
        roundtrip("CREATE TEMPORARY TABLE t (a INT PRIMARY KEY, b VARCHAR(100) NOT NULL);");
        roundtrip("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a), UNIQUE (b));");
        roundtrip("CREATE TABLE c (pid INT REFERENCES p(id), CHECK ((pid > 0)));");
        roundtrip("CREATE VIEW w AS SELECT * FROM t;");
        roundtrip("CREATE MATERIALIZED VIEW w AS SELECT a FROM t;");
        roundtrip("CREATE UNIQUE INDEX i ON t (a, b);");
        roundtrip("ALTER TABLE t ADD COLUMN c INT;");
        roundtrip("ALTER TABLE t DROP COLUMN c;");
        roundtrip("ALTER TABLE t RENAME TO u;");
        roundtrip("ALTER TABLE t RENAME COLUMN a TO z;");
        roundtrip("ALTER TABLE t ALTER COLUMN a TYPE TEXT;");
        roundtrip("DROP TABLE IF EXISTS t;");
        roundtrip("DROP TRIGGER tg ON t;");
        roundtrip("DROP VIEW w;");
        roundtrip("CREATE TABLE snap AS SELECT * FROM t;");
    }

    #[test]
    fn roundtrip_exotic_generic_ddl() {
        roundtrip("CREATE SEQUENCE s1;");
        roundtrip("ALTER SEQUENCE s1 RESTART;");
        roundtrip("CREATE EXTENSION pgcrypto;");
        roundtrip("DROP ACCESS METHOD am1;");
        roundtrip("CREATE FOREIGN DATA WRAPPER w1;");
        roundtrip("ALTER TEXT SEARCH CONFIGURATION cfg1;");
        roundtrip("CREATE LOGFILE GROUP lg1;");
        roundtrip("CREATE SPATIAL REFERENCE SYSTEM srs1;");
    }

    #[test]
    fn roundtrip_txn_and_session() {
        roundtrip("BEGIN; COMMIT;");
        roundtrip("START TRANSACTION; ROLLBACK;");
        roundtrip("SAVEPOINT sp1; ROLLBACK TO SAVEPOINT sp1; RELEASE SAVEPOINT sp1;");
        roundtrip("SET search_path = public;");
        roundtrip("SET @@SESSION.explicit_for_timestamp = OFF;");
        roundtrip("SET SESSION sql_mode = strict;");
        roundtrip("RESET search_path;");
        roundtrip("SHOW server_version;");
        roundtrip("PRAGMA foreign_keys = ON;");
        roundtrip("LOCK TABLE t IN EXCLUSIVE MODE;");
    }

    #[test]
    fn roundtrip_utility() {
        roundtrip("ANALYZE t;");
        roundtrip("VACUUM FULL t;");
        roundtrip("EXPLAIN SELECT * FROM t;");
        roundtrip("REINDEX TABLE t;");
        roundtrip("CHECKPOINT;");
        roundtrip("CLUSTER t;");
        roundtrip("DISCARD ALL;");
        roundtrip("LISTEN ch; NOTIFY ch, 'hi'; UNLISTEN ch;");
        roundtrip("COMMENT ON TABLE t IS 'a table';");
        roundtrip("CALL p(1, 'x');");
        roundtrip("REFRESH MATERIALIZED VIEW w;");
        roundtrip("GRANT SELECT ON t TO alice;");
        roundtrip("REVOKE SELECT ON t FROM alice;");
        roundtrip("TRUNCATE TABLE t;");
        roundtrip("COPY t (a, b) FROM STDIN;");
        roundtrip("VALUES (1, 2), (3, 4);");
    }

    #[test]
    fn roundtrip_misc_kinds() {
        roundtrip("SHOW TABLES;");
        roundtrip("SHOW CREATE TABLE t1;");
        roundtrip("FLUSH PRIVILEGES;");
        roundtrip("KILL 42;");
        roundtrip("XA BEGIN 'x1';");
        roundtrip("LOCK TABLES t1 READ;");
        roundtrip("UNLOCK TABLES;");
        roundtrip("USE db1;");
        roundtrip("DESCRIBE t1;");
        roundtrip("CHECK TABLE t1;");
        roundtrip("OPTIMIZE TABLE t1;");
        roundtrip("RENAME TABLE t1 TO t2;");
        roundtrip("PUT counter ON;");
        roundtrip("REBUILD t1;");
        roundtrip("EXEC PROCEDURE p1 ( );");
        roundtrip("SET TRANSACTION ISOLATION LEVEL READ COMMITTED;");
        roundtrip("PREPARE TRANSACTION 'gx';");
        roundtrip("IMPORT FOREIGN SCHEMA s1;");
        roundtrip("ALTER SYSTEM major freeze;");
        roundtrip("SHUTDOWN;");
    }

    #[test]
    fn roundtrip_queries_with_structure() {
        roundtrip("SELECT DISTINCT a, b AS bb FROM t WHERE a IN (1, 2, 3) GROUP BY a HAVING COUNT(*) > 1;");
        roundtrip("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id;");
        roundtrip("SELECT * FROM a CROSS JOIN b;");
        roundtrip("SELECT (SELECT MAX(x) FROM u) FROM t;");
        roundtrip("SELECT * FROM (SELECT a FROM t) AS sub;");
        roundtrip("SELECT 1 UNION ALL SELECT 2;");
        roundtrip("SELECT 1 EXCEPT SELECT 2 INTERSECT SELECT 3;");
        roundtrip("SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END FROM t;");
        roundtrip("SELECT CAST(a AS TEXT) FROM t;");
        roundtrip("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u);");
        roundtrip("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u);");
        roundtrip("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT LIKE 'x%';");
        roundtrip("SELECT a FROM t WHERE a IS NOT NULL OR b IS NULL;");
        roundtrip("SELECT COUNT(DISTINCT a), SUM(b) FROM t;");
        roundtrip("SELECT ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC) FROM t;");
        roundtrip("SELECT t.* FROM t;");
        roundtrip("INSERT INTO t (a) SELECT a FROM u;");
        roundtrip("INSERT INTO t DEFAULT VALUES;");
        roundtrip("REPLACE INTO t VALUES (1);");
    }

    #[test]
    fn roundtrip_selectv_and_select_into() {
        roundtrip("SELECTV * FROM t;");
        roundtrip("SELECT a INTO t2 FROM t1 WHERE a > 0;");
        // FROM-less SELECT INTO: the printer must splice INTO before any
        // trailing clause, not append it after LIMIT.
        roundtrip("SELECT 3614 INTO v86 LIMIT 32;");
        roundtrip("SELECT 1781 INTO v23 OFFSET 3649;");
        roundtrip("SELECT 1 INTO v1;");
        // Clause keywords inside a parenthesized subquery must not attract
        // the INTO splice — it belongs after the outer projection list.
        roundtrip("SELECT (SELECT a FROM t1) INTO v9;");
        roundtrip("SELECT (SELECT a FROM t1) INTO v9 FROM t2;");
    }

    #[test]
    fn kind_is_correct_for_exotic_statements() {
        use lego_sqlast::{DdlVerb, ObjectKind, StmtKind};
        let s = parse_statement("CREATE SEQUENCE s1;").unwrap();
        assert_eq!(s.kind(), StmtKind::Ddl(DdlVerb::Create, ObjectKind::Sequence));
        let s = parse_statement("SHOW TABLES;").unwrap();
        assert_eq!(s.kind().name(), "SHOW TABLES");
        let s = parse_statement("XA BEGIN 'x';").unwrap();
        assert_eq!(s.kind().name(), "XA BEGIN");
    }

    #[test]
    fn garbage_fails_cleanly() {
        assert!(parse_script("FROBNICATE THE DATABASE;").is_err());
        assert!(parse_script("SELECT FROM WHERE;").is_err());
        assert!(parse_script("CREATE TABLE (;").is_err());
        assert!(parse_script("INSERT INTO;").is_err());
        assert!(parse_script("'just a string';").is_err());
    }

    #[test]
    fn every_ddl_kind_parses_back_to_its_kind() {
        use lego_sqlast::{Dialect, StmtKind};
        for d in Dialect::ALL {
            for k in d.supported_kinds() {
                use lego_sqlast::{DdlVerb, ObjectKind};
                let sql = match k {
                    // Kinds with dedicated grammar need well-formed examples.
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table) => {
                        "CREATE TABLE x1 (a INT);".to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::View) => {
                        "CREATE VIEW x1 AS SELECT 1;".to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::MaterializedView) => {
                        "CREATE MATERIALIZED VIEW x1 AS SELECT 1;".to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index) => {
                        "CREATE INDEX x1 ON t (a);".to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Trigger) => {
                        "CREATE TRIGGER x1 AFTER INSERT ON t FOR EACH ROW DELETE FROM t;"
                            .to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Create, ObjectKind::Rule) => {
                        "CREATE RULE x1 AS ON INSERT TO t DO NOTHING;".to_string()
                    }
                    StmtKind::Ddl(DdlVerb::Alter, ObjectKind::Table) => {
                        "ALTER TABLE x1 ADD COLUMN a INT;".to_string()
                    }
                    StmtKind::Ddl(verb, obj) => {
                        format!("{} {} x1;", verb.keyword(), obj.keyword())
                    }
                    StmtKind::Other(_) => continue, // exercised by dedicated tests
                };
                let parsed =
                    parse_script(&sql).unwrap_or_else(|e| panic!("cannot parse {sql:?}: {e}"));
                assert_eq!(parsed.statements[0].kind(), k, "for {sql:?}");
            }
        }
    }

    #[test]
    fn roundtrip_multibyte_string_literals() {
        // Regression: the lexer used to consume string-literal bytes one at
        // a time, mangling multi-byte UTF-8 into Latin-1 on re-render.
        roundtrip("SELECT 'café';");
        roundtrip("INSERT INTO t1 VALUES ('naïve — ☕', 1);");
    }

    #[test]
    fn parse_errors_carry_token_index_and_snippet() {
        // Parser error: pos is a token index, message carries the byte
        // offset plus a source excerpt.
        let err = parse_script("SELECT a FROM t1 WHERE;").unwrap_err();
        assert!(err.message.contains("at byte"), "{}", err.message);
        assert!(err.message.contains("near `"), "{}", err.message);
        // Lexer error: same coordinate system — pos is the index the bad
        // token would have had, not a byte offset masquerading as one.
        let err = parse_script("SELECT 1 $ 2;").unwrap_err();
        assert_eq!(err.pos, 2);
        assert!(err.message.contains("byte 9"), "{}", err.message);
        assert!(err.message.contains("near `$ 2;`"), "{}", err.message);
        // Errors at end-of-input clamp the snippet instead of panicking.
        let err = parse_script("SELECT").unwrap_err();
        assert!(err.message.contains("at byte 6"), "{}", err.message);
    }

    #[test]
    fn error_snippets_respect_char_boundaries() {
        // A multi-byte char straddling the 24-byte snippet window must not
        // cause a slice panic.
        let sql = format!("SELECT a FROM t1 WHERE '{}' ☕☕☕☕☕☕☕☕", "é".repeat(16));
        let err = parse_script(&sql).unwrap_err();
        assert!(err.message.contains("near `"), "{}", err.message);
    }

    #[test]
    fn traced_parse_records_rule_edges() {
        use lego_coverage::{CovRecorder, GlobalCoverage};
        let rec = CovRecorder::new();
        let (res, map) = parse_script_traced("SELECT v1 FROM t1 WHERE v1 = 1;", rec);
        assert!(res.is_ok());
        let mut virgin = GlobalCoverage::new();
        assert!(virgin.merge(&map), "traced parse produced no rule edges");
        assert!(virgin.edges_covered() > 3);
    }

    #[test]
    fn traced_parse_is_deterministic_and_matches_untraced() {
        use lego_coverage::CovRecorder;
        let sql = "CREATE TABLE t1 (a INT); INSERT INTO t1 VALUES (1); SELECT * FROM t1;";
        let (a, map_a) = parse_script_traced(sql, CovRecorder::new());
        let (b, map_b) = parse_script_traced(sql, CovRecorder::new());
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(map_a.digest(), map_b.digest());
        // Tracing must not change the parse result.
        assert_eq!(a.unwrap(), parse_script(sql).unwrap());
    }

    #[test]
    fn traced_parse_returns_partial_map_on_error() {
        use lego_coverage::{CovRecorder, GlobalCoverage};
        let (res, map) = parse_script_traced("SELECT a FROM t1 WHERE;", CovRecorder::new());
        assert!(res.is_err());
        let mut virgin = GlobalCoverage::new();
        assert!(virgin.merge(&map), "partial traversal should still record rules");
    }

    #[test]
    fn statement_boundaries_reset_the_rule_chain() {
        use lego_coverage::CovRecorder;
        // Two identical statements traverse the same rule→rule edge *set*
        // (hit counts double, but indices match) because the chain resets at
        // each `;`. A leaked chain would record an extra cross-statement
        // edge: first-rule-of-stmt2 XORed with stmt1's final prev instead of
        // with 0.
        let (_, once) = parse_script_traced("SELECT 1;", CovRecorder::new());
        let (_, twice) = parse_script_traced("SELECT 1; SELECT 1;", CovRecorder::new());
        let idx = |m: &lego_coverage::CovMap| -> Vec<usize> {
            m.iter_nonzero().map(|(i, _)| i).collect()
        };
        assert_eq!(idx(&once), idx(&twice), "chain leaked across statement boundary");
    }
}
