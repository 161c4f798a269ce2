//! Property-based lexer/printer roundtrip tests.
//!
//! The mutation engine and the bug reducer both rely on `Tok`'s `Display`
//! being a faithful inverse of `lex`: every token stream the lexer can
//! produce must survive print → re-lex with kind and value intact. The
//! generators below bias toward the historical trouble spots — ints at the
//! i64 boundaries, floats at exponent extremes (including the overflow
//! sentinel), strings with embedded quotes and multi-byte UTF-8, and the
//! two-char symbol table.

use lego_sqlparser::{lex, Tok};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SYMBOLS2: &[&str] = &["||", "<>", "!=", "<=", ">=", "@@", "::"];
const SYMBOLS1: &[&str] = &["(", ")", ",", ".", ";", "=", "<", ">", "+", "-", "*", "/", "%"];

/// A random token the lexer itself could have produced. Negative numbers are
/// excluded (the lexer emits `-` as a separate symbol), as are non-finite
/// floats (clamped to the `f64::MAX` sentinel at lex time). An identifier
/// borrows its text, which is leaked: a few bytes per generated token.
fn rand_tok(rng: &mut SmallRng) -> Tok<'static> {
    match rng.gen_range(0..5) {
        0 => {
            let v = match rng.gen_range(0..4) {
                0 => rng.gen_range(0..10),
                1 => i64::MAX,
                2 => i64::MAX - rng.gen_range(0..3),
                _ => rng.gen::<i64>().unsigned_abs().min(i64::MAX as u64) as i64,
            };
            Tok::Int(v)
        }
        1 => {
            let v = match rng.gen_range(0..6) {
                0 => 0.0,
                1 => f64::MAX, // the non-finite sentinel itself
                2 => f64::MIN_POSITIVE,
                3 => 1e308,
                4 => rng.gen_range(0..1_000_000) as f64 / 1024.0,
                _ => rng.gen_range(0..1_000) as f64 * 1e18,
            };
            Tok::Float(v)
        }
        2 => {
            let n = rng.gen_range(1..8);
            let mut s = String::new();
            for i in 0..n {
                let c = match rng.gen_range(0..6) {
                    0 if i == 0 => '_',
                    0..=3 => rng.gen_range(b'a'..=b'z') as char,
                    4 => rng.gen_range(b'A'..=b'Z') as char,
                    _ if i > 0 => rng.gen_range(b'0'..=b'9') as char,
                    _ => 'x',
                };
                s.push(c);
            }
            Tok::Ident(Box::leak(s.into_boxed_str()))
        }
        3 => {
            let n = rng.gen_range(0..10);
            let s: String = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => '\'', // embedded quote → doubled on print
                    1 => 'é',
                    2 => '☕',
                    3 => ' ',
                    _ => rng.gen_range(b'a'..=b'z') as char,
                })
                .collect();
            Tok::Str(s.into())
        }
        _ => {
            if rng.gen_bool(0.5) {
                Tok::Sym(SYMBOLS2[rng.gen_range(0..SYMBOLS2.len())])
            } else {
                Tok::Sym(SYMBOLS1[rng.gen_range(0..SYMBOLS1.len())])
            }
        }
    }
}

/// Render a token stream with single spaces between tokens. Spacing keeps
/// adjacent tokens from fusing (`- -` must not become a `--` comment, two
/// idents must not merge) without changing any token's own text.
fn render(toks: &[Tok]) -> String {
    toks.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_token_streams_relex_exactly(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..24);
        let toks: Vec<Tok> = (0..n).map(|_| rand_tok(&mut rng)).collect();
        let src = render(&toks);
        let relexed = lex(&src).map_err(|e| {
            TestCaseError::fail(format!("printed stream failed to lex: {e}\n  src: {src:?}"))
        })?;
        prop_assert_eq!(&toks, &relexed, "print → lex mismatch for {:?}", src);
    }

    #[test]
    fn single_tokens_roundtrip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tok = rand_tok(&mut rng);
        let printed = tok.to_string();
        let relexed = lex(&printed).unwrap();
        prop_assert_eq!(vec![tok], relexed, "single-token roundtrip via {:?}", printed);
    }

    #[test]
    fn lex_print_lex_is_a_fixpoint(seed in any::<u64>()) {
        // Idempotence from the other side: whatever a print→lex cycle
        // yields, printing and lexing again must be stable.
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..16);
        let toks: Vec<Tok> = (0..n).map(|_| rand_tok(&mut rng)).collect();
        let printed = render(&toks);
        let once = lex(&printed).unwrap();
        let printed_again = render(&once);
        let twice = lex(&printed_again).unwrap();
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn boundary_literals_roundtrip() {
    // The deterministic worst cases, pinned outside the proptest loop.
    let cases = [
        Tok::Int(0),
        Tok::Int(i64::MAX),
        Tok::Float(0.0),
        Tok::Float(f64::MAX),
        Tok::Float(f64::MIN_POSITIVE),
        Tok::Float(1e308),
        Tok::Str("".into()),
        Tok::Str("''''".into()),
        Tok::Str("it's ☕".into()),
    ];
    for tok in cases {
        let printed = tok.to_string();
        assert_eq!(lex(&printed).unwrap(), vec![tok], "via {printed:?}");
    }
}

#[test]
fn nonfinite_floats_print_as_the_sentinel() {
    for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let printed = Tok::Float(v).to_string();
        assert_eq!(lex(&printed).unwrap(), vec![Tok::Float(f64::MAX)], "{v} -> {printed}");
    }
}
