//! "Special features" seed templates for grammar-rule coverage mode.
//!
//! FuzzySQL's observation (PAPERS.md): the hidden bugs live in the dialect
//! corners — views, triggers, rules, privileges, session state, bulk I/O,
//! window frames — exactly the grammar productions mundane seeds never
//! touch. These templates are deliberately *excluded* from
//! [`crate::seeds::initial_corpus`] (that corpus must stay mundane so
//! sequence synthesis has something to discover) and are only queued when
//! `Config::rule_cov` is on, where the rule-coverage map can credit them
//! for the productions they unlock and `rule_feedback` can boost the ones
//! that pay off.

use lego_sqlast::{Dialect, TestCase};
use std::sync::OnceLock;

/// The raw template scripts for a dialect (public so tests and docs can
/// show them). Order is fixed — the campaign queue is deterministic.
pub fn special_scripts(dialect: Dialect) -> Vec<&'static str> {
    let mut scripts = vec![
        // Views over a base table, then a query through the view.
        "CREATE TABLE s1 (a INT, b INT);\n\
         INSERT INTO s1 VALUES (1, 2);\n\
         CREATE VIEW sv1 AS SELECT a, b FROM s1 WHERE a > 0;\n\
         SELECT * FROM sv1;\n\
         DROP VIEW sv1;",
        // Trigger-ish DDL: AFTER INSERT trigger plus the firing insert.
        "CREATE TABLE s2 (n INT);\n\
         CREATE TRIGGER st2 AFTER INSERT ON s2 FOR EACH ROW UPDATE s2 SET n = 0;\n\
         INSERT INTO s2 VALUES (7);\n\
         DROP TRIGGER st2;",
        // Privileges: GRANT then REVOKE on the same object.
        "CREATE TABLE s3 (x INT);\n\
         GRANT SELECT, INSERT ON s3 TO u1;\n\
         INSERT INTO s3 VALUES (3);\n\
         REVOKE INSERT ON s3 FROM u1;",
        // Session state: SET variants around a query.
        "CREATE TABLE s4 (v INT);\n\
         SET search_mode = 'strict';\n\
         INSERT INTO s4 VALUES (4);\n\
         SET @@SESSION.explicit_for_timestamp = OFF;\n\
         SELECT v FROM s4;",
        // Bulk I/O: COPY both directions.
        "CREATE TABLE s5 (c INT);\n\
         COPY s5 FROM STDIN;\n\
         COPY s5 TO STDOUT;\n\
         SELECT COUNT(*) FROM s5;",
        // Window frames: ROWS BETWEEN with ORDER BY inside OVER.
        "CREATE TABLE s6 (g INT, v INT);\n\
         INSERT INTO s6 VALUES (1, 10);\n\
         INSERT INTO s6 VALUES (1, 20);\n\
         SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM s6;",
    ];
    if dialect == Dialect::Postgres {
        // CREATE RULE is the Postgres-only corner from the paper's case
        // study (§ V-C).
        scripts.push(
            "CREATE TABLE s7 (r INT);\n\
             CREATE RULE sr7 AS ON INSERT TO s7 DO NOTHING;\n\
             INSERT INTO s7 VALUES (1);\n\
             DROP RULE sr7;",
        );
    }
    scripts
}

/// The parsed template pack for a dialect, parsed once per process; the
/// cases share their statements with every other copy handed out.
pub fn special_templates(dialect: Dialect) -> Vec<TestCase> {
    static PACK: [OnceLock<Vec<TestCase>>; 4] = [const { OnceLock::new() }; 4];
    crate::seeds::parsed_once(&PACK, dialect, special_scripts, "special template").to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_templates_parse_and_roundtrip_for_every_dialect() {
        for d in Dialect::ALL {
            let pack = special_templates(d);
            assert!(pack.len() >= 6, "{d:?}");
            for case in pack {
                let sql = case.to_sql();
                let again = lego_sqlparser::parse_script(&sql)
                    .unwrap_or_else(|e| panic!("{d:?} template does not roundtrip: {e}\n{sql}"));
                assert_eq!(case, again);
            }
        }
    }

    #[test]
    fn special_templates_cover_the_exotic_grammar() {
        let all = special_scripts(Dialect::Postgres).join("\n");
        for needle in ["VIEW", "TRIGGER", "GRANT", "REVOKE", "SET", "COPY", "OVER (", "RULE"] {
            assert!(all.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn special_templates_traverse_rules_the_seed_corpus_does_not() {
        use lego_coverage::{CovRecorder, GlobalCoverage};
        let mut virgin = GlobalCoverage::new();
        for case in crate::seeds::initial_corpus(Dialect::Postgres) {
            let (_, map) = lego_sqlparser::parse_script_traced(&case.to_sql(), CovRecorder::new());
            virgin.merge(&map);
        }
        // Every template must unlock at least one parser rule edge the
        // mundane corpus never traversed.
        for case in special_templates(Dialect::Postgres) {
            let sql = case.to_sql();
            let (_, map) = lego_sqlparser::parse_script_traced(&sql, CovRecorder::new());
            let mut probe = GlobalCoverage::from_sparse(&virgin.to_sparse());
            assert!(probe.merge(&map), "template adds no new rules:\n{sql}");
        }
    }
}
