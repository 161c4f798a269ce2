//! SQL lexer.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// A token. Identifiers and string literals borrow their text from the
/// source.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword (case preserved; keyword matching is
    /// case-insensitive).
    Ident(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal's value: borrowed, or owned where the literal holds
    /// a doubled quote.
    Str(Cow<'a, str>),
    /// Punctuation / operator.
    Sym(&'static str),
}

impl Tok<'_> {
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    pub fn is_sym(&self, s: &str) -> bool {
        matches!(self, Tok::Sym(x) if *x == s)
    }
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => f.write_str(s),
            Tok::Int(v) => write!(f, "{}", v),
            Tok::Float(v) => {
                // Non-finite values cannot be written as a numeric literal
                // ("inf"/"NaN" re-lex as identifiers); degrade to the same
                // finite sentinel the lexer's overflow path uses. Integral
                // floats keep a `.0` suffix so they re-lex as floats, not
                // ints.
                let v = if v.is_finite() { *v } else { f64::MAX };
                if v.fract() == 0.0 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{}", v)
                }
            }
            Tok::Str(s) => {
                f.write_char('\'')?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(part)?;
                }
                f.write_char('\'')
            }
            Tok::Sym(s) => f.write_str(s),
        }
    }
}

/// A lexer error. `offset` is a byte offset into the source; `token_index`
/// is the number of tokens successfully lexed before the failure, i.e. the
/// index the bad token would have had — the same coordinate system as
/// `ParseError::pos`.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub offset: usize,
    pub token_index: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at byte {} (token {}): {}",
            self.offset, self.token_index, self.message
        )
    }
}

impl std::error::Error for LexError {}

const SYMBOLS2: &[&str] = &["||", "<>", "!=", "<=", ">=", "@@", "::"];
const SYMBOLS1: &[&str] = &["(", ")", ",", ".", ";", "=", "<", ">", "+", "-", "*", "/", "%"];

/// Clamp a parsed float literal to a finite value. Literals like `1e999`
/// overflow `f64` to infinity, and a non-finite `Tok::Float` cannot survive
/// a print→re-lex roundtrip, so both numeric paths degrade to `f64::MAX`.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// Tokenize a SQL script. Comments (`-- …` to end of line) are skipped.
pub fn lex(input: &str) -> Result<Vec<Tok<'_>>, LexError> {
    Ok(lex_spanned(input)?.0)
}

/// Tokenize, also returning each token's starting byte offset (same length
/// as the token vector). The spans let parse errors report a source snippet
/// alongside their token index.
pub fn lex_spanned(input: &str) -> Result<(Vec<Tok<'_>>, Vec<usize>), LexError> {
    let bytes = input.as_bytes();
    // Generated SQL averages more than two bytes per token, so neither
    // vector grows on it.
    let mut out = Vec::with_capacity(input.len() / 2 + 1);
    let mut spans = Vec::with_capacity(input.len() / 2 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            // `--` directly followed by a digit/space is a comment in SQL;
            // but the paper's example `- - - 48` uses spaced minuses, which
            // lex as separate symbols, so plain `--` always starts a comment.
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '\'' {
            // A quote byte never occurs inside a multi-byte UTF-8 character,
            // so the literal's value is the source text between the quotes,
            // with each doubled quote taken once.
            let start = i;
            let mut piece = i + 1;
            let mut owned: Option<String> = None;
            let end = loop {
                let Some(q) = bytes[i + 1..].iter().position(|&b| b == b'\'').map(|q| i + 1 + q)
                else {
                    return Err(LexError {
                        offset: start,
                        token_index: out.len(),
                        message: "unterminated string".into(),
                    });
                };
                if bytes.get(q + 1) != Some(&b'\'') {
                    break q;
                }
                owned.get_or_insert_with(String::new).push_str(&input[piece..=q]);
                piece = q + 2;
                i = q + 1;
            };
            let value = match owned {
                None => Cow::Borrowed(&input[piece..end]),
                Some(mut s) => {
                    s.push_str(&input[piece..end]);
                    Cow::Owned(s)
                }
            };
            spans.push(start);
            out.push(Tok::Str(value));
            i = end + 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let mut is_float = false;
            if i < bytes.len()
                && bytes[i] == b'.'
                && bytes.get(i + 1).is_some_and(|b| (*b as char).is_ascii_digit())
            {
                is_float = true;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    is_float = true;
                    i = j;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let text = &input[start..i];
            spans.push(start);
            if is_float {
                let v: f64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    token_index: out.len(),
                    message: format!("bad float literal {text}"),
                })?;
                // `1e999` parses Ok as +inf — clamp, don't pass through.
                out.push(Tok::Float(finite(v)));
            } else {
                match text.parse::<i64>() {
                    Ok(v) => out.push(Tok::Int(v)),
                    // Overflowing integers degrade to floats, like real DBMSs.
                    Err(_) => out.push(Tok::Float(finite(text.parse::<f64>().unwrap_or(f64::MAX)))),
                }
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    i += 1;
                } else {
                    break;
                }
            }
            spans.push(start);
            out.push(Tok::Ident(&input[start..i]));
            continue;
        }
        if let Some(&sym) = SYMBOLS2.iter().find(|s| input[i..].starts_with(**s)) {
            spans.push(i);
            out.push(Tok::Sym(sym));
            i += sym.len();
            continue;
        }
        if let Some(&sym) = SYMBOLS1.iter().find(|s| input[i..].starts_with(**s)) {
            spans.push(i);
            out.push(Tok::Sym(sym));
            i += sym.len();
            continue;
        }
        return Err(LexError {
            offset: i,
            token_index: out.len(),
            message: format!("unexpected character {c:?}"),
        });
    }
    Ok((out, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_basic_statement() {
        let toks = lex("SELECT * FROM t1 WHERE v1 = 1;").unwrap();
        assert_eq!(toks.len(), 9);
        assert!(toks[0].is_kw("select"));
        assert!(toks[1].is_sym("*"));
        assert_eq!(toks[7], Tok::Int(1));
        assert!(toks[8].is_sym(";"));
    }

    #[test]
    fn lex_strings_with_escapes() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(lex("42").unwrap(), vec![Tok::Int(42)]);
        assert_eq!(lex("4.5").unwrap(), vec![Tok::Float(4.5)]);
        assert_eq!(lex("1e3").unwrap(), vec![Tok::Float(1000.0)]);
        // Trailing dot is a symbol, not part of the number (so `t1.` works).
        assert_eq!(lex("1.").unwrap(), vec![Tok::Int(1), Tok::Sym(".")]);
    }

    #[test]
    fn lex_comments_are_skipped() {
        let toks = lex("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn lex_two_char_symbols() {
        let toks = lex("a <> b || c @@x <= 1").unwrap();
        assert!(toks[1].is_sym("<>"));
        assert!(toks[3].is_sym("||"));
        assert!(toks[5].is_sym("@@"));
        assert!(toks[7].is_sym("<="));
    }

    #[test]
    fn lex_unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn lex_giant_int_degrades_to_float() {
        let toks = lex("99999999999999999999999").unwrap();
        assert!(matches!(toks[0], Tok::Float(_)));
    }

    #[test]
    fn lex_spanned_reports_token_start_offsets() {
        let (toks, spans) = lex_spanned("SELECT  'ab', 12 -- c\n+ x").unwrap();
        assert_eq!(toks.len(), spans.len());
        assert_eq!(spans, vec![0, 8, 12, 14, 22, 24]);
    }

    #[test]
    fn lex_errors_carry_both_coordinates() {
        let err = lex("SELECT 1 ? 2").unwrap_err();
        assert_eq!(err.offset, 9);
        assert_eq!(err.token_index, 2);
        let msg = err.to_string();
        assert!(msg.contains("byte 9") && msg.contains("token 2"), "{msg}");
    }

    #[test]
    fn overflowing_float_literals_clamp_to_finite() {
        // `1e999` overflows f64 to +inf via the *float* path; the giant
        // integer overflows via the *int* path. Both must stay finite.
        for src in ["1e999", "123456789e3000", "9e999999"] {
            let toks = lex(src).unwrap();
            match &toks[0] {
                Tok::Float(v) => assert!(v.is_finite(), "{src} lexed to non-finite {v}"),
                t => panic!("{src} lexed to {t:?}"),
            }
        }
    }

    #[test]
    fn float_display_roundtrips_through_the_lexer() {
        // lex → print → lex must preserve token kind and value, including
        // the non-finite sentinel and integral floats (`1.0` must not print
        // as `1`, which would re-lex as an Int).
        for src in ["1e999", "1.0", "2.5", "1e3", "0.125", "99999999999999999999999"] {
            let toks = lex(src).unwrap();
            let printed = toks[0].to_string();
            let again = lex(&printed).unwrap();
            assert_eq!(again.len(), 1, "{src} printed as {printed}");
            assert_eq!(toks[0], again[0], "{src} printed as {printed}");
        }
        // Direct non-finite values (constructed, not lexed) degrade to the
        // sentinel rather than printing `inf`/`NaN` identifier text.
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let printed = Tok::Float(v).to_string();
            assert_eq!(lex(&printed).unwrap(), vec![Tok::Float(f64::MAX)], "{v} -> {printed}");
        }
    }

    #[test]
    fn multibyte_string_literals_roundtrip() {
        let toks = lex("'café — ☕'").unwrap();
        assert_eq!(toks, vec![Tok::Str("café — ☕".into())]);
        let printed = toks[0].to_string();
        assert_eq!(lex(&printed).unwrap(), toks);
    }
}
