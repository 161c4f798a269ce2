//! Grammar-rule coverage of whole test cases without re-parsing them.

use crate::parse_script_traced;
use lego_coverage::{CovMap, CovRecorder, MAP_SIZE};
use lego_sqlast::Statement;
use std::fmt::Write;

/// log2 of the number of cache slots.
const SLOT_BITS: u32 = 12;

// Slots store edge indices as `u16`.
const _: () = assert!(MAP_SIZE <= 1 << 16);

/// One cached statement.
#[derive(Default)]
struct Slot {
    /// The statement's printed text, `"{stmt};\n"`. Empty while the slot is
    /// unused; no printed statement is empty.
    text: String,
    /// Whether `text` parses on its own.
    parses: bool,
    /// Its rule edges and their hit counts, in first-hit order.
    edges: Vec<(u16, u8)>,
}

/// Traces the grammar-rule coverage of test cases through a per-statement
/// cache.
///
/// The rule chain resets at every statement, and no lookahead of the parser
/// reaches past a statement's `;`, so a statement's rule edges never depend
/// on its neighbours. A case's map is therefore the saturating sum of its
/// statements' maps, and a statement that campaigns execute over and over
/// is parsed once. The cache is a direct-mapped table keyed by the full
/// printed text, compared byte for byte; a colliding statement evicts the
/// previous one.
#[derive(Default)]
pub struct RuleTracer {
    /// `1 << SLOT_BITS` slots, allocated on the first traced case.
    slots: Vec<Slot>,
    /// The current statement's printed text.
    key: String,
    /// The case map handed out by [`RuleTracer::trace`], cleared per case.
    map: Option<CovMap>,
    /// The recorder map of the last miss, recycled into the next one.
    spare: Option<CovMap>,
    misses: u64,
}

impl RuleTracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// The rule map that `parse_script_traced(&TestCase::to_sql(), ..)`
    /// returns for a case of these statements, or `None` where that parse
    /// fails.
    pub fn trace(&mut self, statements: &[Statement]) -> Option<&CovMap> {
        if self.slots.is_empty() {
            self.slots.resize_with(1 << SLOT_BITS, Slot::default);
        }
        let map = self.map.get_or_insert_with(CovMap::new);
        map.clear();
        for stmt in statements {
            self.key.clear();
            writeln!(self.key, "{stmt};").expect("writing to a String cannot fail");
            let slot = &mut self.slots[slot_index(&self.key)];
            if slot.text != self.key {
                self.misses += 1;
                let rec = CovRecorder::from_recycled(self.spare.take().unwrap_or_default());
                let (parsed, stmt_map) = parse_script_traced(&self.key, rec);
                slot.text.clone_from(&self.key);
                slot.parses = parsed.is_ok();
                slot.edges.clear();
                slot.edges.extend(stmt_map.iter_nonzero().map(|(i, &n)| (i as u16, n)));
                self.spare = Some(stmt_map);
            }
            if !slot.parses {
                return None;
            }
            for &(i, n) in &slot.edges {
                map.add(i as usize, n);
            }
        }
        Some(map)
    }

    /// Statements parsed so far: the cache misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The slot of a printed statement: a multiplicative hash over 8-byte
/// words, top bits taken.
fn slot_index(text: &str) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut words = text.as_bytes().chunks_exact(8);
    let mut h = text.len() as u64;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    (mix(h, u64::from_le_bytes(tail)) >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_script;
    use lego_sqlast::ast::SetExpr;
    use lego_sqlast::TestCase;

    fn statements(sql: &str) -> Vec<Statement> {
        parse_script(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}")).statements
    }

    /// The whole-case reference: print the case, parse it traced.
    fn reference(statements: &[Statement]) -> Option<CovMap> {
        let sql = TestCase::new(statements.to_vec()).to_sql();
        let (parsed, map) = parse_script_traced(&sql, CovRecorder::new());
        parsed.ok().map(|_| map)
    }

    fn assert_matches_reference(tracer: &mut RuleTracer, statements: &[Statement]) {
        let want = reference(statements);
        let got = tracer.trace(statements);
        assert_eq!(got.is_some(), want.is_some(), "verdicts differ");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(got.counts(), want.counts());
            assert_eq!(got.edge_count(), want.edge_count());
        }
    }

    #[test]
    fn a_statement_that_does_not_parse_fails_the_case_on_miss_and_on_hit() {
        // A SELECT without a projection prints as `SELECT  FROM t1;`, which
        // does not parse back.
        let mut bad = statements("SELECT v1 FROM t1;").remove(0);
        let Statement::Select(s) = &mut bad else { panic!("not a SELECT") };
        let SetExpr::Select(select) = &mut s.query.body else { panic!("not a plain SELECT") };
        select.projection.clear();
        let good = statements("SELECT v1 FROM t1;").remove(0);
        let mut tracer = RuleTracer::new();
        assert!(reference(std::slice::from_ref(&bad)).is_none(), "{bad}; must not parse");
        assert!(tracer.trace(std::slice::from_ref(&bad)).is_none(), "first appearance (miss)");
        assert!(tracer.trace(std::slice::from_ref(&bad)).is_none(), "second appearance (hit)");
        assert!(tracer.trace(std::slice::from_ref(&good)).is_some());
        assert_eq!(tracer.misses(), 2);
        let case = [good.clone(), bad];
        assert!(tracer.trace(&case).is_none(), "after a cached good statement");
        assert_matches_reference(&mut tracer, &[good]);
    }

    #[test]
    fn repeated_statements_saturate_like_the_whole_case() {
        let stmt = statements("SELECT v1 FROM t1 WHERE v1 = 1;").remove(0);
        let case = vec![stmt; 300];
        let mut tracer = RuleTracer::new();
        let whole = reference(&case).expect("parses");
        assert!(whole.iter_nonzero().any(|(_, &n)| n == 255), "some edge passes 255");
        assert_matches_reference(&mut tracer, &case);
        assert_eq!(tracer.misses(), 1, "one parse for 300 copies");
        assert_matches_reference(&mut tracer, &case[..3]);
    }

    #[test]
    fn an_empty_case_traces_to_an_empty_map() {
        let mut tracer = RuleTracer::new();
        assert_eq!(tracer.trace(&[]).map(CovMap::edge_count), Some(0));
    }

    #[test]
    fn slot_index_stays_in_the_table_and_spreads() {
        let slots: std::collections::HashSet<usize> =
            (0..1000).map(|i| slot_index(&format!("SELECT {i};\n"))).collect();
        assert!(slots.iter().all(|&s| s < 1 << SLOT_BITS));
        assert!(slots.len() > 800, "{} distinct slots for 1000 keys", slots.len());
    }
}
