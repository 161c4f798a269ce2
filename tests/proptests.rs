//! Property-based tests over the core data structures and invariants.

use lego_fuzz::coverage::{CovMap, CovRecorder, GlobalCoverage, SiteId};
use lego_fuzz::fuzzer::affinity::AffinityMap;
use lego_fuzz::fuzzer::gen::{gen_statement, SchemaModel};
use lego_fuzz::fuzzer::instantiate::{fix_case, instantiate, AstLibrary};
use lego_fuzz::fuzzer::mutation::conventional_mutate;
use lego_fuzz::fuzzer::synthesis::SequenceStore;
use lego_fuzz::prelude::*;
use lego_fuzz::sqlparser::parse_script;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn schema() -> SchemaModel {
    let mut m = SchemaModel::new();
    m.observe(
        &lego_fuzz::sqlparser::parse_statement("CREATE TABLE t1 (v1 INT, v2 TEXT);").unwrap(),
    );
    m.observe(&lego_fuzz::sqlparser::parse_statement("CREATE TABLE t2 (a INT, b INT);").unwrap());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated statement of every dialect renders to SQL that parses
    /// back to the identical AST (full display/parse round-trip).
    #[test]
    fn generated_statements_roundtrip(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let kinds = dialect.supported_kinds();
        let kind = kinds[(seed as usize) % kinds.len()];
        let stmt = gen_statement(kind, &schema(), dialect, &mut rng);
        prop_assert_eq!(stmt.kind(), kind);
        let sql = format!("{stmt};");
        let parsed = parse_script(&sql)
            .map_err(|e| TestCaseError::fail(format!("parse {sql:?}: {e}")))?;
        prop_assert_eq!(&*parsed.statements[0], &stmt, "round-trip mismatch for {}", sql);
    }

    /// Executing any generated script never panics and always yields a
    /// coverage map (robustness of the whole engine stack).
    #[test]
    fn engine_never_panics_on_generated_scripts(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let kinds = dialect.supported_kinds();
        let mut stmts = Vec::new();
        let mut model = SchemaModel::new();
        for i in 0..6 {
            let kind = kinds[(seed as usize + i * 37) % kinds.len()];
            let s = gen_statement(kind, &model, dialect, &mut rng);
            model.observe(&s);
            stmts.push(s);
        }
        let mut case = TestCase::new(stmts);
        fix_case(&mut case, &mut rng);
        let report = Dbms::new(dialect).execute_case(&case);
        prop_assert!(report.statements_executed <= case.len());
    }

    /// Conventional mutation preserves the SQL Type Sequence — the defining
    /// property of SQUIRREL-style mutation.
    #[test]
    fn conventional_mutation_is_sequence_preserving(seed in any::<u64>()) {
        let case = parse_script(
            "CREATE TABLE t (a INT, b INT);\n\
             INSERT INTO t VALUES (1, 2);\n\
             UPDATE t SET a = 3;\n\
             SELECT * FROM t;",
        ).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mutant = conventional_mutate(&case, &mut rng);
        prop_assert_eq!(mutant.type_sequence(), case.type_sequence());
    }

    /// Instantiation honours the requested type sequence (modulo the
    /// documented CREATE TABLE + INSERT dependency prologue).
    #[test]
    fn instantiation_preserves_requested_sequence(seed in any::<u64>()) {
        let dialect = Dialect::Postgres;
        let kinds = dialect.supported_kinds();
        let seq: Vec<StmtKind> = (0..4).map(|i| kinds[(seed as usize + i * 13) % kinds.len()]).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let case = instantiate(&seq, &AstLibrary::new(), dialect, &mut rng);
        let got = case.type_sequence();
        prop_assert!(got.len() >= seq.len());
        prop_assert_eq!(&got[got.len() - seq.len()..], &seq[..]);
    }

    /// The affinity map never records same-type pairs and its size equals
    /// the number of distinct ordered pairs inserted.
    #[test]
    fn affinity_map_counts_distinct_pairs(pairs in prop::collection::vec((0u16..50, 0u16..50), 0..200)) {
        let kinds = Dialect::Postgres.supported_kinds();
        let mut map = AffinityMap::new();
        let mut reference = std::collections::HashSet::new();
        for (a, b) in pairs {
            let (t1, t2) = (kinds[a as usize], kinds[b as usize]);
            if t1 != t2 {
                let added = map.insert(t1, t2);
                prop_assert_eq!(added, reference.insert((t1, t2)));
            }
        }
        prop_assert_eq!(map.len(), reference.len());
    }

    /// Synthesized sequences respect the LEN bound and always contain the
    /// triggering affinity.
    #[test]
    fn synthesis_respects_len(len in 2usize..6, pair_count in 1usize..8, seed in any::<u64>()) {
        let kinds = Dialect::Comdb2.supported_kinds();
        let starters: Vec<StmtKind> = kinds.iter().copied().filter(|k| k.is_sequence_starter()).collect();
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(len, &starters);
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        for _ in 0..pair_count {
            let t1 = kinds[rng.gen_range(0..kinds.len())];
            let t2 = kinds[rng.gen_range(0..kinds.len())];
            if t1 == t2 { continue; }
            if map.insert(t1, t2) {
                let fresh = store.on_new_affinity(t1, t2, &map, 500);
                for &key in &fresh {
                    let seq = lego_fuzz::fuzzer::ngram::unpack_seq(key);
                    prop_assert!(seq.len() <= len);
                    prop_assert!(seq.windows(2).any(|w| w[0] == t1 && w[1] == t2));
                }
            }
        }
    }

    /// Coverage-map merging is monotone and idempotent.
    #[test]
    fn coverage_merge_monotone(sites in prop::collection::vec(any::<u64>(), 1..100)) {
        let mut rec = CovRecorder::new();
        for &s in &sites {
            rec.hit(SiteId::from_raw(s));
        }
        let map: CovMap = rec.into_map();
        let mut global = GlobalCoverage::new();
        let before = global.edges_covered();
        let new = global.merge(&map);
        prop_assert!(new);
        prop_assert!(global.edges_covered() > before);
        // Idempotent: merging again adds nothing.
        let edges = global.edges_covered();
        prop_assert!(!global.merge(&map));
        prop_assert_eq!(global.edges_covered(), edges);
    }

    /// SQL value coercion into YEAR always lands in the valid domain.
    #[test]
    fn year_coercion_domain(v in any::<i64>()) {
        use lego_fuzz::dbms::Value;
        let coerced = Value::Int(v).coerce_to(lego_fuzz::sqlast::expr::DataType::Year);
        match coerced {
            Value::Int(y) => prop_assert!(y == 0 || (1901..=2155).contains(&y)),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics, whatever bytes it is fed.
    #[test]
    fn parser_never_panics_on_garbage(input in "[ -~\\n]{0,200}") {
        let _ = parse_script(&input);
    }

    /// The lexer never panics either, including on non-ASCII input.
    #[test]
    fn lexer_never_panics(input in ".{0,200}") {
        let _ = lego_fuzz::sqlparser::lex(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transactional atomicity: any generated statement batch wrapped in
    /// BEGIN … ROLLBACK leaves the catalog exactly as it was (PostgreSQL
    /// profile: fully transactional DDL).
    #[test]
    fn rollback_restores_the_catalog(seed in any::<u64>()) {
        let dialect = Dialect::Postgres;
        let mut rng = SmallRng::seed_from_u64(seed);
        let kinds = dialect.supported_kinds();
        let mut db = Dbms::new(dialect);
        db.execute_script(
            "CREATE TABLE base (a INT, b TEXT); INSERT INTO base VALUES (1, 'x'), (2, 'y');",
        );
        let before = format!("{:?}", db.session().cat);
        // Random statement batch inside a transaction.
        let mut model = SchemaModel::new();
        model.observe(&lego_fuzz::sqlparser::parse_statement("CREATE TABLE base (a INT, b TEXT);").unwrap());
        let mut stmts = vec![lego_fuzz::sqlparser::parse_statement("BEGIN;").unwrap()];
        for i in 0..5 {
            let kind = kinds[(seed as usize + i * 41) % kinds.len()];
            // TCL statements would end the transaction midway; skip them so
            // ROLLBACK below is the only transaction boundary.
            if kind.category() == lego_fuzz::sqlast::kind::StmtCategory::Tcl {
                continue;
            }
            let s = gen_statement(kind, &model, dialect, &mut rng);
            model.observe(&s);
            stmts.push(s);
        }
        stmts.push(lego_fuzz::sqlparser::parse_statement("ROLLBACK;").unwrap());
        let mut case = TestCase::new(stmts);
        fix_case(&mut case, &mut rng);
        // fix_case must not touch the leading BEGIN / trailing ROLLBACK.
        let report = db.execute_case(&case);
        if report.crash().is_none() {
            let after = format!("{:?}", db.session().cat);
            prop_assert_eq!(before, after);
        }
    }

    /// Executing the same case twice on fresh instances yields identical
    /// coverage digests and outcomes (full-engine determinism).
    #[test]
    fn engine_execution_is_deterministic(seed in any::<u64>(), dialect_idx in 0usize..4) {
        let dialect = Dialect::ALL[dialect_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let kinds = dialect.supported_kinds();
        let mut stmts = Vec::new();
        let mut model = SchemaModel::new();
        for i in 0..5 {
            let kind = kinds[(seed as usize + i * 29) % kinds.len()];
            let s = gen_statement(kind, &model, dialect, &mut rng);
            model.observe(&s);
            stmts.push(s);
        }
        let mut case = TestCase::new(stmts);
        fix_case(&mut case, &mut rng);
        let r1 = Dbms::new(dialect).execute_case(&case);
        let r2 = Dbms::new(dialect).execute_case(&case);
        prop_assert_eq!(r1.coverage.digest(), r2.coverage.digest());
        prop_assert_eq!(r1.statements_executed, r2.statements_executed);
        prop_assert_eq!(r1.errors, r2.errors);
    }
}
