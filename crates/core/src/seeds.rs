//! Initial seed corpora.
//!
//! Small, conventional scripts in the style of the paper's Figure 1 — the
//! type sequences they contain are deliberately mundane (CREATE TABLE →
//! INSERT → … → SELECT), so everything beyond them must be *discovered*.

use lego_sqlast::{Dialect, TestCase};
use std::sync::OnceLock;

/// The default seed corpus for a dialect, already parsed. The cases share
/// their statements with every other copy handed out in the process.
pub fn initial_corpus(dialect: Dialect) -> Vec<TestCase> {
    corpus(dialect).to_vec()
}

/// The parsed seed corpus of a dialect, parsed once per process.
pub(crate) fn corpus(dialect: Dialect) -> &'static [TestCase] {
    static CORPUS: [OnceLock<Vec<TestCase>>; 4] = [const { OnceLock::new() }; 4];
    parsed_once(&CORPUS, dialect, seed_scripts, "built-in seed")
}

/// The scripts `scripts` gives for `dialect`, parsed on the first call for
/// the dialect and kept in its slot of `table`.
pub(crate) fn parsed_once(
    table: &'static [OnceLock<Vec<TestCase>>; 4],
    dialect: Dialect,
    scripts: fn(Dialect) -> Vec<&'static str>,
    what: &str,
) -> &'static [TestCase] {
    let slot = Dialect::ALL.iter().position(|&d| d == dialect).expect("every dialect is in ALL");
    table[slot].get_or_init(|| {
        scripts(dialect)
            .iter()
            .map(|s| {
                lego_sqlparser::parse_script(s)
                    .unwrap_or_else(|e| panic!("bad {what} for {dialect:?}: {e}\n{s}"))
            })
            .collect()
    })
}

/// The raw seed scripts (public so tests and docs can show them).
pub fn seed_scripts(dialect: Dialect) -> Vec<&'static str> {
    // Note the statement orderings: the planted *shallow* bugs (the ones
    // SQUIRREL-style mutation can reach) trigger on pairs like
    // INSERT→SELECT-with-ORDER-BY; the seeds stay one structure-mutation
    // away from them, never on top of them.
    let mut seeds = vec![
        // The paper's Figure 1 seed, reshuffled to keep the ORDER BY off the
        // INSERT/UPDATE pair boundaries.
        "CREATE TABLE t1 (v1 INT, v2 INT);\n\
         INSERT INTO t1 VALUES (1, 1);\n\
         INSERT INTO t1 VALUES (2, 1);\n\
         SELECT v2 FROM t1;\n\
         SELECT * FROM t1 ORDER BY v1;",
        // Insert / select with a WHERE and aggregate.
        "CREATE TABLE t2 (a INT, b VARCHAR(100));\n\
         INSERT INTO t2 VALUES (1, 'name1');\n\
         INSERT INTO t2 VALUES (3, 'name1');\n\
         SELECT * FROM t2 WHERE a > 1;\n\
         SELECT b, COUNT(*) FROM t2 GROUP BY b;",
        // Index + delete.
        "CREATE TABLE t3 (k INT PRIMARY KEY, v TEXT);\n\
         CREATE INDEX i3 ON t3 (v);\n\
         INSERT INTO t3 VALUES (1, 'x');\n\
         INSERT INTO t3 VALUES (2, 'y');\n\
         SELECT * FROM t3;\n\
         DELETE FROM t3 WHERE k = 1;",
        // Transaction block with an unconditional UPDATE.
        "CREATE TABLE t4 (n INT);\n\
         BEGIN;\n\
         INSERT INTO t4 VALUES (10);\n\
         UPDATE t4 SET n = 11;\n\
         COMMIT;\n\
         SELECT n FROM t4;",
    ];
    match dialect {
        Dialect::Postgres => {
            seeds.push(
                "CREATE TABLE t5 (x INT, y INT);\n\
                 INSERT INTO t5 VALUES (1, 2);\n\
                 ANALYZE t5;\n\
                 EXPLAIN SELECT * FROM t5;\n\
                 VACUUM t5;",
            );
        }
        Dialect::MySql | Dialect::MariaDb => {
            seeds.push(
                "CREATE TABLE t5 (x INT, y INT);\n\
                 INSERT IGNORE INTO t5 VALUES (1, 2);\n\
                 ANALYZE t5;\n\
                 SHOW TABLES;\n\
                 SELECT x FROM t5;",
            );
        }
        Dialect::Comdb2 => {
            seeds.push(
                "CREATE TABLE t5 (x INT, y INT);\n\
                 INSERT INTO t5 VALUES (1, 2);\n\
                 ANALYZE t5;\n\
                 SELECTV * FROM t5;",
            );
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_dbms::{Dbms, Outcome};

    #[test]
    fn seeds_parse_for_every_dialect() {
        for d in Dialect::ALL {
            let corpus = initial_corpus(d);
            assert!(corpus.len() >= 5);
        }
    }

    #[test]
    fn seeds_execute_without_errors_or_crashes() {
        for d in Dialect::ALL {
            for case in initial_corpus(d) {
                let mut db = Dbms::new(d);
                let r = db.execute_case(&case);
                assert!(matches!(r.outcome, Outcome::Ok), "{d:?}: {:?}", r.errors);
                assert!(r.errors.is_empty(), "{d:?}: {:?}\n{}", r.errors, case.to_sql());
            }
        }
    }

    #[test]
    fn seed_type_sequences_are_mundane() {
        // No seed may contain a trigger/rule/window statement — those must
        // be discovered by the fuzzer, not handed to it.
        for d in Dialect::ALL {
            for case in initial_corpus(d) {
                let sql = case.to_sql();
                assert!(!sql.contains("TRIGGER") && !sql.contains("RULE") && !sql.contains("OVER"));
            }
        }
    }
}
