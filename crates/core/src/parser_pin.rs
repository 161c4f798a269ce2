//! The parser's output, pinned.
//!
//! Inputs, per dialect: the raw seed and special-feature scripts, and for
//! every case of [`generated_cases`] its printed script and each of its
//! statements printed as `"{stmt};\n"` (the text `RuleTracer` parses). Each
//! statement text also contributes its ASCII-lowercase form, its cuts at one
//! and two thirds, and the text with `$` spliced into its middle, so that
//! errors and partial traversals are pinned too. A fixed list
//! ([`FIXED`]) aims at keyword dispatch: overlong identifiers, doubled
//! quotes, multi-byte literals and mixed-case keywords.
//!
//! Each input contributes `lex_spanned`'s tokens (`Display`) and spans or
//! its error, `parse_script`'s `Debug` (statements, or position and
//! message), and `parse_script_traced`'s rule map in touched order with its
//! counts. The FNV-64 digests of blocks of [`BLOCK`] cases are committed in
//! `tests/fixtures/parser_pin.txt`; on a mismatch the test prints the
//! actual lines.

use crate::testutil::{check_pinned, generated_cases, Fnv};
use lego_coverage::CovRecorder;
use lego_sqlast::Dialect;
use lego_sqlparser::{lex_spanned, parse_script, parse_script_traced};
use std::fmt::Write;

/// Cases per digest line.
const BLOCK: usize = 250;

/// Inputs aimed at keyword dispatch and at the lexer's literals.
const FIXED: &[&str] = &[
    // 40-character identifiers, longer than any keyword: statement head,
    // column, function, type, and ones that start with a keyword.
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN;",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN t1;",
    "SELECTxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx * FROM t1;",
    "checkpointcheckpointcheckpointcheckpoint;",
    "SELECT abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN FROM t1;",
    "SELECT t1.abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN FROM t1;",
    "SELECT abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN(1) FROM t1;",
    "SELECT nullnullnullnullnullnullnullnullnull, truetruetruetruetruetruetruetruetrue;",
    "SELECT casecasecasecasecasecasecasecasecase FROM t1;",
    "CREATE TABLE t1 (abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN INT);",
    "CREATE TABLE t1 (a abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN);",
    "CREATE TABLE t1 (a INTEGERINTEGERINTEGERINTEGERINTEGERINTEGER);",
    "SELECT CAST(a AS VARCHARVARCHARVARCHARVARCHARVARCHAR) FROM t1;",
    "SET SESSIONSESSIONSESSIONSESSIONSESSIONSESSION x = 1;",
    "SHOW abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN;",
    "CREATE abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN x1;",
    "DROP abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN x1;",
    // Keyword-length identifiers next to the keywords they resemble.
    "SELECT nul, nulls, tru, truex, fals, falsey, cas, casts, exist FROM t1;",
    "SELECT Null, tRuE, FaLsE, CaSe WhEn a THEN 1 END, cAsT(a aS tExT), ExIsTs (SeLeCt 1);",
    // String literals: doubled quotes, empty, multi-byte, unterminated.
    "SELECT 'it''s', '''', '', 'a''b''c';",
    "SELECT 'café — ☕', 'é''☕', '☕''';",
    "INSERT INTO t1 VALUES ('naïve', 'x''y', '');",
    "NOTIFY ch, 'it''s';",
    "COMMENT ON TABLE t1 IS 'it''s ☕';",
    "COPY t1 TO 'o''k';",
    "PRAGMA p = 'it''s';",
    "XA BEGIN 'x''1';",
    "SELECT 'unterminated;",
    "SELECT 'ends in a doubled quote'';",
    // Mixed-case keywords and phrases, dedicated and generic.
    "sElEcT * fRoM t1 wHeRe a = 1 OrDeR bY a DeSc LiMiT 2;",
    "InSeRt InTo t1 VaLuEs (1, 'x');",
    "cReAtE tAbLe t1 (a iNt PrImArY kEy, b VaRcHaR(9) nOt NuLl);",
    "uPdAtE t1 sEt a = 1; DeLeTe FrOm t1;",
    "bEgIn; CoMmIt; RoLlBaCk To SaVePoInT s1;",
    "set transaction isolation level read committed;",
    "Set Password = 'x'; set role r1; SET SESSION AUTHORIZATION u1;",
    "show tables; Show Create Table t1; SHOW create view v1; show index_statistics;",
    "execute immediate 'x'; Execute plan1;",
    "load index into cache t1; Load Data infile; LOAD x;",
    "xa begin 'x'; Xa CoMmIt 'x';",
    "lock tables t1 read; Lock Table t1 In Exclusive Mode; unlock tables;",
    "reset master; Reset search_path;",
    "start slave; Start Transaction;",
    "drop owned by u1; Drop Table t1;",
    "alter system major freeze; Alter Default Privileges; ALTER sequence s1;",
    "create text search configuration cfg1; Drop Materialized View v1;",
    "comment on materialized view v1 is 'x';",
    "create foreign data wrapper w1; Alter Text Search Dictionary d1;",
    "SHOW CREATE;",
    "SET TRANSACTION;",
];

/// Digest one input into `h`.
fn digest(h: &mut Fnv, input: &str) {
    let _ = write!(h, "<");
    match lex_spanned(input) {
        Ok((toks, spans)) => {
            for (t, s) in toks.iter().zip(&spans) {
                let _ = write!(h, "{t}@{s} ");
            }
        }
        Err(e) => {
            let _ = write!(h, "{e:?}");
        }
    }
    let parsed = parse_script(input);
    let _ = write!(h, "|{parsed:?}|");
    let (traced, map) = parse_script_traced(input, CovRecorder::new());
    assert_eq!(traced, parsed, "tracing changed the parse of {input:?}");
    for (i, n) in map.iter_nonzero() {
        let _ = write!(h, "{i}:{n} ");
    }
    let _ = writeln!(h, ">");
}

/// `text[..at]` moved back to a char boundary.
fn floor(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Digest a statement text and its variants.
fn digest_statement(h: &mut Fnv, text: &str) {
    digest(h, text);
    digest(h, &text.to_ascii_lowercase());
    digest(h, &text[..floor(text, text.len() / 3)]);
    digest(h, &text[..floor(text, text.len() * 2 / 3)]);
    let mid = floor(text, text.len() / 2);
    digest(h, &format!("{}${}", &text[..mid], &text[mid..]));
}

/// The fixture lines of one dialect: `<dialect> scripts <digest>` and
/// `<dialect> cases <first>-<last> <digest>`.
fn actual_lines(dialect: Dialect) -> Vec<String> {
    let name = dialect.name().to_ascii_lowercase();
    let mut h = Fnv::new();
    for script in crate::seeds::seed_scripts(dialect) {
        digest(&mut h, script);
    }
    for script in crate::special::special_scripts(dialect) {
        digest(&mut h, script);
    }
    let mut lines = vec![format!("{name} scripts {:016x}", h.0)];
    let cases = generated_cases(dialect);
    let mut h = Fnv::new();
    for (n, case) in cases.iter().enumerate() {
        digest(&mut h, &case.to_sql());
        for stmt in &case.statements {
            digest_statement(&mut h, &format!("{stmt};\n"));
        }
        if (n + 1) % BLOCK == 0 || n + 1 == cases.len() {
            let first = n / BLOCK * BLOCK;
            lines.push(format!("{name} cases {first:04}-{n:04} {:016x}", h.0));
            h = Fnv::new();
        }
    }
    lines
}

fn check(dialect: Dialect) {
    check_pinned("parser_pin.txt", &format!("{dialect:?}: parser output"), &actual_lines(dialect));
}

#[test]
fn the_fixed_inputs_parse_as_pinned() {
    let mut h = Fnv::new();
    for input in FIXED {
        digest_statement(&mut h, input);
    }
    check_pinned("parser_pin.txt", "parser output", &[format!("fixed {:016x}", h.0)]);
}

#[test]
fn postgres_parser_output_is_pinned() {
    check(Dialect::Postgres);
}

#[test]
fn mysql_parser_output_is_pinned() {
    check(Dialect::MySql);
}

#[test]
fn mariadb_parser_output_is_pinned() {
    check(Dialect::MariaDb);
}

#[test]
fn comdb2_parser_output_is_pinned() {
    check(Dialect::Comdb2);
}
