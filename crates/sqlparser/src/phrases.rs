//! Keyword-phrase tables driving generic parsing of the statement long tail.

use crate::lexer::Tok;
use lego_sqlast::kind::{ObjectKind, StandaloneKind};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Standalone kinds that have dedicated parsers and therefore must *not* be
/// matched by the generic phrase table.
fn is_dedicated(k: StandaloneKind) -> bool {
    use StandaloneKind::*;
    matches!(
        k,
        Select
            | SelectV
            | SelectInto
            | Values
            | Insert
            | Replace
            | Update
            | Delete
            | With
            | Truncate
            | Copy
            | Grant
            | Revoke
            | Begin
            | StartTransaction
            | Commit
            | End
            | Rollback
            | Abort
            | Savepoint
            | ReleaseSavepoint
            | RollbackToSavepoint
            | Set
            | Reset
            | Show
            | Pragma
            | Analyze
            | Vacuum
            | Explain
            | Reindex
            | Checkpoint
            | Cluster
            | Discard
            | Listen
            | Notify
            | Unlisten
            | LockTable
            | Comment
            | Call
            | RefreshMaterializedView
            | CreateTableAs
    )
}

/// A write-once phrase table, indexed by first word: sorted by the upper
/// case of each phrase's first word and, within one first word, longest
/// phrase first (`SET TRANSACTION` before `SET`), ties in the order given.
type Table<K> = Vec<(Vec<&'static str>, K)>;

fn index<K>(names: impl Iterator<Item = (&'static str, K)>) -> Table<K> {
    let mut v: Table<K> = names.map(|(name, k)| (name.split(' ').collect(), k)).collect();
    v.sort_by(|a, b| cmp_upper(a.0[0], b.0[0]).then(b.0.len().cmp(&a.0.len())));
    v
}

/// Compare two words by their ASCII upper case.
fn cmp_upper(a: &str, b: &str) -> Ordering {
    a.bytes().map(|c| c.to_ascii_uppercase()).cmp(b.bytes().map(|c| c.to_ascii_uppercase()))
}

fn misc_table() -> &'static Table<StandaloneKind> {
    static TABLE: OnceLock<Table<StandaloneKind>> = OnceLock::new();
    TABLE.get_or_init(|| {
        index(StandaloneKind::ALL.iter().filter(|&&k| !is_dedicated(k)).map(|&k| (k.name(), k)))
    })
}

fn object_table() -> &'static Table<ObjectKind> {
    static TABLE: OnceLock<Table<ObjectKind>> = OnceLock::new();
    TABLE.get_or_init(|| index(ObjectKind::ALL.iter().map(|&k| (k.keyword(), k))))
}

fn starts_with_phrase(toks: &[Tok], phrase: &[&str]) -> bool {
    phrase.len() <= toks.len() && phrase.iter().zip(toks).all(|(w, t)| t.is_kw(w))
}

/// Longest-prefix match at the head of `toks`: the first matching phrase
/// among those whose first word is the head's.
fn longest_match<K: Copy>(table: &Table<K>, toks: &[Tok]) -> Option<(K, usize)> {
    let Some(&Tok::Ident(head)) = toks.first() else { return None };
    let start = table.partition_point(|(phrase, _)| cmp_upper(phrase[0], head).is_lt());
    table[start..]
        .iter()
        .take_while(|(phrase, _)| phrase[0].eq_ignore_ascii_case(head))
        .find(|(phrase, _)| starts_with_phrase(toks, phrase))
        .map(|(phrase, k)| (*k, phrase.len()))
}

/// Longest-prefix match of a generic (non-dedicated) statement kind at the
/// head of `toks`. Returns the kind and the number of tokens consumed.
pub fn match_misc(toks: &[Tok]) -> Option<(StandaloneKind, usize)> {
    longest_match(misc_table(), toks)
}

/// Longest-prefix match of an object-kind keyword at the head of `toks`.
pub fn match_object(toks: &[Tok]) -> Option<(ObjectKind, usize)> {
    longest_match(object_table(), toks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn longest_misc_phrase_wins() {
        let toks = lex("SET TRANSACTION ISOLATION").unwrap();
        assert_eq!(match_misc(&toks), Some((StandaloneKind::SetTransaction, 2)));
        let toks = lex("EXECUTE IMMEDIATE 'x'").unwrap();
        assert_eq!(match_misc(&toks), Some((StandaloneKind::ExecuteImmediate, 2)));
        let toks = lex("EXECUTE plan1").unwrap();
        assert_eq!(match_misc(&toks), Some((StandaloneKind::ExecuteStmt, 1)));
    }

    #[test]
    fn dedicated_kinds_do_not_match() {
        let toks = lex("SELECT * FROM t").unwrap();
        assert_eq!(match_misc(&toks), None);
        let toks = lex("SET x = 1").unwrap();
        assert_eq!(match_misc(&toks), None);
    }

    /// The index finds what a scan of the whole longest-first table finds,
    /// for every phrase, in any case, alone and followed by more words.
    #[test]
    fn the_index_matches_a_full_scan() {
        fn scan<K: Copy>(table: &Table<K>, toks: &[Tok]) -> Option<(K, usize)> {
            let mut all: Vec<_> = table.iter().collect();
            all.sort_by_key(|(phrase, _)| std::cmp::Reverse(phrase.len()));
            all.iter()
                .find(|(phrase, _)| starts_with_phrase(toks, phrase))
                .map(|(phrase, k)| (*k, phrase.len()))
        }
        let names: Vec<String> = StandaloneKind::ALL
            .iter()
            .map(|k| k.name())
            .chain(ObjectKind::ALL.iter().map(|k| k.keyword()))
            .flat_map(|n| [n.to_string(), n.to_ascii_lowercase(), format!("{n} x1 TABLE")])
            .collect();
        for name in &names {
            let toks = lex(name).unwrap();
            for n in 0..=toks.len() {
                let toks = &toks[..n];
                assert_eq!(match_misc(toks), scan(misc_table(), toks), "{name}");
                assert_eq!(match_object(toks), scan(object_table(), toks), "{name}");
            }
        }
    }

    #[test]
    fn multiword_objects_match() {
        let toks = lex("TEXT SEARCH CONFIGURATION cfg").unwrap();
        assert_eq!(match_object(&toks), Some((ObjectKind::TextSearchConfiguration, 3)));
        let toks = lex("MATERIALIZED VIEW v").unwrap();
        assert_eq!(match_object(&toks), Some((ObjectKind::MaterializedView, 2)));
        let toks = lex("TABLE t").unwrap();
        assert_eq!(match_object(&toks), Some((ObjectKind::Table, 1)));
    }
}
