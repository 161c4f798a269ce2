//! Progressive sequence synthesis — Algorithm 3 of the paper.
//!
//! The *Prefix Sequence* index `PS` maps `(ending type τ, length λ)` to the
//! indexes of already-generated sequences in `S`, so that when a new affinity
//! `t1 → t2` is discovered, only the sequences containing that new affinity
//! are synthesized (Figure 6), never the whole space again.
//!
//! The store works entirely on packed `u128` sequence keys (see
//! [`crate::ngram::pack_seq`]): campaign profiles showed Algorithm 3's
//! enumeration dominating the feedback stage, and at ~200k recorded
//! sequences per campaign the per-node `Vec` allocation and SipHash of the
//! obvious `Vec<StmtKind>` representation were the entire cost. Appending a
//! statement type is one shift-or, duplicate probes hit an open-addressing
//! set, and a recorded sequence is a single `u128` push.

use std::ops::ControlFlow;

use crate::affinity::AffinityMap;
use crate::ngram::{pack_seq, unpack_seq, SeqKeySet, MAX_PACKED_SEQ};
use lego_sqlast::StmtKind;

/// The synthesized-sequence store: `S`, `PS`, and the length limit `LEN`.
#[derive(Clone, Debug)]
pub struct SequenceStore {
    /// `S`: every recorded sequence as a packed key, in record order (the
    /// order is the checkpoint format — `PS` reconstructs from it).
    seqs: Vec<u128>,
    /// The `PS` index, flattened: row `code(τ)·(LEN+1) + λ` lists the
    /// indexes (into `seqs`) of recorded sequences ending in τ with length
    /// λ. A flat table instead of a `HashMap` keyed by `(τ, λ)`: `record`
    /// appends on every explored node, and the SipHash per append was
    /// measurable in campaign profiles.
    ps: Vec<Vec<u32>>,
    /// Every sequence ever recorded; duplicate suppression, so
    /// re-discovering an affinity (or reaching the same sequence through two
    /// synthesis paths) never re-instantiates it. Probed once per explored
    /// node — the hottest loop of the feedback stage.
    seen: SeqKeySet,
    max_len: usize,
    /// Global cap on stored sequences (state-explosion guard, § II C1).
    /// [`Self::on_new_affinity`] clamps every walk to the free room, so a
    /// full store stops synthesizing without walking the affinity graph.
    cap: usize,
    /// How many [`Self::on_new_affinity`] calls stopped before their walk
    /// finished, because they hit the per-call limit or filled the store;
    /// each such call counts once. Only the engine snapshot reads it.
    pub truncated: usize,
}

impl SequenceStore {
    /// `max_len` is the paper's `LEN` (default 5 in [`crate::Config`]);
    /// `starters` seed the store with length-1 prefixes ("beginning from
    /// specific starting statement types, e.g. CREATE TABLE").
    pub fn new(max_len: usize, starters: &[StmtKind]) -> Self {
        let mut store = Self::empty(max_len);
        for &s in starters {
            store.record(pack_seq(&[s]), 1, s);
        }
        store
    }

    /// Rebuild a store from a checkpointed sequence list (in original record
    /// order, which reconstructs the `PS` index exactly) plus the truncation
    /// counter. The starters are already part of `seqs`, so the caller passes
    /// the full list and no separate starter set. A list no store could have
    /// produced (an empty or longer-than-`LEN` sequence, a duplicate, more
    /// sequences than the cap) is an error.
    pub fn from_parts(
        max_len: usize,
        seqs: Vec<Vec<StmtKind>>,
        truncated: usize,
    ) -> Result<Self, String> {
        let mut store = Self::empty(max_len);
        if seqs.len() > store.cap {
            return Err(format!(
                "checkpoint holds {} sequences, more than the store's cap of {}",
                seqs.len(),
                store.cap
            ));
        }
        for seq in seqs {
            let Some(&last) = seq.last() else {
                return Err("checkpointed sequence is empty".to_string());
            };
            if seq.len() > max_len {
                return Err(format!(
                    "checkpointed sequence has {} statements, more than LEN = {max_len}",
                    seq.len()
                ));
            }
            if !store.record(pack_seq(&seq), seq.len(), last) {
                return Err("checkpointed sequence is a duplicate".to_string());
            }
        }
        store.truncated = truncated;
        Ok(store)
    }

    /// A store with a small cap, so tests can fill it.
    #[cfg(test)]
    fn with_cap(max_len: usize, starters: &[StmtKind], cap: usize) -> Self {
        let mut store = Self::new(max_len, starters);
        assert!(store.len() <= cap, "the starters must fit under the cap");
        store.cap = cap;
        store
    }

    fn empty(max_len: usize) -> Self {
        assert!(max_len >= 2, "LEN must allow at least one affinity");
        assert!(max_len <= MAX_PACKED_SEQ, "packed sequence keys support LEN <= {MAX_PACKED_SEQ}");
        Self {
            seqs: Vec::new(),
            ps: vec![Vec::new(); StmtKind::COUNT * (max_len + 1)],
            seen: SeqKeySet::new(),
            max_len,
            cap: 200_000,
            truncated: 0,
        }
    }

    pub fn max_len(&self) -> usize {
        self.max_len
    }

    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Materialize the stored sequences in record order (checkpoint
    /// serialization and tests; campaigns never call this per case).
    pub fn sequences(&self) -> Vec<Vec<StmtKind>> {
        self.seqs.iter().map(|&k| unpack_seq(k)).collect()
    }

    /// Record a sequence given its packed key, length, and final type;
    /// returns `true` if it was genuinely new. Callers on the synthesis walk
    /// pre-prune via `seen`, so a duplicate here is only possible from
    /// `new`/`from_parts` replays. Every caller keeps the store under the
    /// cap: the walk through its clamped limit, `from_parts` by checking the
    /// list length first.
    fn record(&mut self, key: u128, len: usize, last: StmtKind) -> bool {
        debug_assert!(self.seqs.len() < self.cap, "record past the store's cap");
        if !self.seen.insert(key) {
            return false;
        }
        let idx = self.seqs.len() as u32;
        let row = self.ps_row(last, len);
        self.ps[row].push(idx);
        self.seqs.push(key);
        true
    }

    #[inline]
    fn ps_row(&self, last: StmtKind, len: usize) -> usize {
        last.code() as usize * (self.max_len + 1) + len
    }

    /// Algorithm 3: when affinity `t1 → t2` is newly discovered, synthesize
    /// every new sequence (≤ `LEN`) containing it, up to `limit` sequences
    /// per call (an engineering guard) and up to the store's cap. A call cut
    /// short by either bound adds 1 to `truncated`. Returns the new
    /// sequences as packed keys, in discovery order.
    pub fn on_new_affinity(
        &mut self,
        t1: StmtKind,
        t2: StmtKind,
        map: &AffinityMap,
        limit: usize,
    ) -> Vec<u128> {
        // Every successful `record` pushes exactly one key to `out`, so a
        // limit clamped to the free room stops the walk the moment the store
        // fills. Past that point `record` would refuse every node, and the
        // rest of the walk could only visit nodes without recording any.
        let limit = limit.min(self.cap - self.seqs.len());
        let mut out: Vec<u128> = Vec::new();
        if self.walk(t1, t2, map, limit, &mut out).is_break() {
            self.truncated += 1;
        }
        out
    }

    /// The level loop of Algorithm 3: extend every recorded prefix ending in
    /// `t1` by `t2`, then `listSeq` the result. Breaks as soon as `out` holds
    /// `limit` keys and a node is still left to visit.
    fn walk(
        &mut self,
        t1: StmtKind,
        t2: StmtKind,
        map: &AffinityMap,
        limit: usize,
        out: &mut Vec<u128>,
    ) -> ControlFlow<()> {
        let t2_lane = t2.code() as u128 + 1;
        for level in 1..self.max_len {
            // Index walk instead of a row snapshot: sequences recorded while
            // this level is processed are strictly longer than `level`, so
            // the row can only grow at later levels — the walk sees exactly
            // what a per-level snapshot would.
            let row = self.ps_row(t1, level);
            let mut i = 0;
            while i < self.ps[row].len() {
                let prefix = self.seqs[self.ps[row][i] as usize];
                i += 1;
                if out.len() >= limit {
                    return ControlFlow::Break(());
                }
                let key = prefix | (t2_lane << (level * 16));
                // Closure pruning: every recorded sequence had its whole
                // extension subtree explored (under the map current at its
                // record time, and later edges re-explore via their own
                // `on_new_affinity` call), so a seen node's subtree is seen
                // too — descending it can only rediscover duplicates.
                if self.seen.contains(key) {
                    continue;
                }
                if self.record(key, level + 1, t2) {
                    out.push(key);
                }
                self.list_seq(level + 1, t2, key, map, limit, out)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The recursive `listSeq` of Algorithm 3: extend the length-`level`
    /// sequence `key` with every affinity-compatible next type until `LEN`.
    fn list_seq(
        &mut self,
        level: usize,
        node_type: StmtKind,
        key: u128,
        map: &AffinityMap,
        limit: usize,
        out: &mut Vec<u128>,
    ) -> ControlFlow<()> {
        if level >= self.max_len {
            return ControlFlow::Continue(());
        }
        for next in map.successors(node_type) {
            if out.len() >= limit {
                return ControlFlow::Break(());
            }
            let child = key | ((next.code() as u128 + 1) << (level * 16));
            // Same closure pruning as `walk`: a seen node's subtree holds
            // only duplicates, skip the descent.
            if self.seen.contains(child) {
                continue;
            }
            self.list_seq(level + 1, next, child, map, limit, out)?;
            if out.len() >= limit {
                return ControlFlow::Break(());
            }
            if self.record(child, level + 1, next) {
                out.push(child);
            }
        }
        ControlFlow::Continue(())
    }
}

/// Kind-level plausibility probe for `--sema` campaigns: decode the packed
/// sequence and ask the static analyzer whether every statement type is
/// supported by the dialect and none is unconditionally rejected by the
/// engine. Synthesized drafts that fail this are dead on arrival — no
/// instantiation can make them execute — so the campaign drops them before
/// paying for AST generation.
pub fn plausible_key(key: u128, dialect: lego_sqlast::Dialect) -> bool {
    lego_sqlsema::plausible_sequence(&unpack_seq(key), dialect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};

    const CT: StmtKind = StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table);
    const INS: StmtKind = StmtKind::Other(StandaloneKind::Insert);
    const SEL: StmtKind = StmtKind::Other(StandaloneKind::Select);
    const UPD: StmtKind = StmtKind::Other(StandaloneKind::Update);

    /// Decode a discovery batch for readable assertions.
    fn unpacked(keys: &[u128]) -> Vec<Vec<StmtKind>> {
        keys.iter().map(|&k| unpack_seq(k)).collect()
    }

    #[test]
    fn paper_example_length_two() {
        // "suppose the length of target sequence is 2, current sequence is
        // CREATE TABLE, type-affinity is CREATE TABLE -> [INSERT, SELECT]:
        // we get CREATE TABLE, INSERT and CREATE TABLE, SELECT."
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(2, &[CT]);
        map.insert(CT, INS);
        let got = store.on_new_affinity(CT, INS, &map, 1000);
        assert_eq!(unpacked(&got), vec![vec![CT, INS]]);
        map.insert(CT, SEL);
        let got = store.on_new_affinity(CT, SEL, &map, 1000);
        assert_eq!(unpacked(&got), vec![vec![CT, SEL]]);
    }

    #[test]
    fn new_affinity_extends_existing_prefixes() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        store.on_new_affinity(CT, INS, &map, 1000);
        map.insert(INS, SEL);
        let got = store.on_new_affinity(INS, SEL, &map, 1000);
        // Extends [CT, INS] -> [CT, INS, SEL]; no prefix ends with INS at
        // level 1 (INS is not a starter).
        assert!(unpacked(&got).contains(&vec![CT, INS, SEL]));
    }

    #[test]
    fn forward_closure_via_list_seq() {
        // Affinities arriving out of order still produce the full chain:
        // (INS, SEL) first (useless), then (CT, INS) triggers listSeq which
        // walks INS -> SEL.
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(INS, SEL);
        let got = store.on_new_affinity(INS, SEL, &map, 1000);
        assert!(got.is_empty());
        map.insert(CT, INS);
        let got = unpacked(&store.on_new_affinity(CT, INS, &map, 1000));
        assert!(got.contains(&vec![CT, INS]));
        assert!(got.contains(&vec![CT, INS, SEL]));
    }

    #[test]
    fn sequences_never_exceed_len() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(4, &[CT]);
        for (a, b) in [(CT, INS), (INS, SEL), (SEL, UPD), (UPD, INS)] {
            map.insert(a, b);
            store.on_new_affinity(a, b, &map, 10_000);
        }
        assert!(store.sequences().iter().all(|s| s.len() <= 4));
        assert!(store.sequences().iter().any(|s| s.len() == 4));
    }

    #[test]
    fn per_call_limit_counts_truncation() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(5, &[CT]);
        // A dense affinity graph explodes; the limit must hold.
        let kinds = [CT, INS, SEL, UPD];
        for &a in &kinds {
            for &b in &kinds {
                if a != b {
                    map.insert(a, b);
                }
            }
        }
        let got = store.on_new_affinity(CT, INS, &map, 16);
        assert_eq!(got.len(), 16);
        // One call cut short counts once, however much of the walk it skips.
        assert_eq!(store.truncated, 1);
    }

    #[test]
    fn repeated_affinity_discovery_is_idempotent() {
        // `on_new_affinity` called twice for the same pair must not record
        // (and hence never re-instantiate) the same sequences again.
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        let first = store.on_new_affinity(CT, INS, &map, 1000);
        assert!(!first.is_empty());
        let before = store.len();
        let again = store.on_new_affinity(CT, INS, &map, 1000);
        assert!(again.is_empty(), "duplicate discovery synthesized {again:?}");
        assert_eq!(store.len(), before);
    }

    #[test]
    fn from_parts_reconstructs_the_prefix_index() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        store.on_new_affinity(CT, INS, &map, 1000);
        let rebuilt = SequenceStore::from_parts(3, store.sequences(), store.truncated).unwrap();
        assert_eq!(rebuilt.sequences(), store.sequences());
        // The rebuilt PS index must extend prefixes exactly like the
        // original would.
        map.insert(INS, SEL);
        let (mut a, mut b) = (store, rebuilt);
        assert_eq!(
            a.on_new_affinity(INS, SEL, &map, 1000),
            b.on_new_affinity(INS, SEL, &map, 1000)
        );
    }

    #[test]
    fn duplicate_cycles_are_bounded_by_len() {
        // A <-> B ping-pong must terminate at LEN.
        let a = CT;
        let b = INS;
        let mut map = AffinityMap::new();
        map.insert(a, b);
        map.insert(b, a);
        let mut store = SequenceStore::new(5, &[a]);
        store.on_new_affinity(a, b, &map, 100_000);
        store.on_new_affinity(b, a, &map, 100_000);
        assert!(store.sequences().iter().all(|s| s.len() <= 5));
    }

    #[test]
    fn from_parts_rejects_lists_no_store_produces() {
        let err = |seqs: Vec<Vec<StmtKind>>| SequenceStore::from_parts(3, seqs, 0).unwrap_err();
        assert!(err(vec![vec![CT], vec![]]).contains("empty"));
        assert!(err(vec![vec![CT, INS, SEL, UPD]]).contains("LEN"));
        assert!(err(vec![vec![CT, INS], vec![CT, INS]]).contains("duplicate"));
        assert!(err(vec![vec![CT]; 200_001]).contains("cap"));
    }

    /// The walk as it was before `on_new_affinity` clamped its limit to the
    /// store's free room: once the store fills, it keeps visiting nodes and
    /// `record` refuses each one, adding 1 to `truncated` per node. Kept as
    /// the reference the clamped walk must reproduce.
    mod unclamped {
        use super::*;

        pub fn on_new_affinity(
            s: &mut SequenceStore,
            t1: StmtKind,
            t2: StmtKind,
            map: &AffinityMap,
            limit: usize,
        ) -> Vec<u128> {
            let t2_lane = t2.code() as u128 + 1;
            let mut out: Vec<u128> = Vec::new();
            for level in 1..s.max_len {
                let row = s.ps_row(t1, level);
                let mut i = 0;
                while i < s.ps[row].len() {
                    let prefix = s.seqs[s.ps[row][i] as usize];
                    i += 1;
                    if out.len() >= limit {
                        s.truncated += 1;
                        return out;
                    }
                    let key = prefix | (t2_lane << (level * 16));
                    if s.seen.contains(key) {
                        continue;
                    }
                    if record(s, key, level + 1, t2) {
                        out.push(key);
                    }
                    list_seq(s, level + 1, t2, key, map, limit, &mut out);
                }
            }
            out
        }

        fn list_seq(
            s: &mut SequenceStore,
            level: usize,
            node_type: StmtKind,
            key: u128,
            map: &AffinityMap,
            limit: usize,
            out: &mut Vec<u128>,
        ) {
            if level >= s.max_len {
                return;
            }
            for next in map.successors(node_type) {
                if out.len() >= limit {
                    s.truncated += 1;
                    return;
                }
                let child = key | ((next.code() as u128 + 1) << (level * 16));
                if s.seen.contains(child) {
                    continue;
                }
                list_seq(s, level + 1, next, child, map, limit, out);
                if out.len() >= limit {
                    s.truncated += 1;
                    return;
                }
                if record(s, child, level + 1, next) {
                    out.push(child);
                }
            }
        }

        fn record(s: &mut SequenceStore, key: u128, len: usize, last: StmtKind) -> bool {
            if s.seen.contains(key) {
                return false;
            }
            if s.seqs.len() >= s.cap {
                s.truncated += 1;
                return false;
            }
            s.seen.insert(key);
            let row = s.ps_row(last, len);
            s.ps[row].push(s.seqs.len() as u32);
            s.seqs.push(key);
            true
        }
    }

    #[test]
    fn clamped_walk_matches_the_unclamped_reference_across_the_cap() {
        // Six types, LEN 4 and two starters span 518 sequences over a
        // complete graph; a cap of 150 fills part-way through the stream.
        let kinds: Vec<StmtKind> = StmtKind::all().into_iter().take(6).collect();
        let cap = 150;
        let mut store = SequenceStore::with_cap(4, &kinds[..2], cap);
        let mut reference = store.clone();
        let mut map = AffinityMap::new();
        let (mut calls_on_full, mut reference_cost_on_full) = (0, 0);
        let mut x = 0x5eed_u64;
        for step in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t1 = kinds[(x >> 33) as usize % kinds.len()];
            let t2 = kinds[(x >> 43) as usize % kinds.len()];
            // Re-discoveries stay in the stream; every fourth call also
            // exercises the per-call limit.
            map.insert(t1, t2);
            let limit = if x & 3 == 0 { 7 } else { 1000 };
            let full = store.len() == cap;
            let (truncated, reference_truncated) = (store.truncated, reference.truncated);
            let got = store.on_new_affinity(t1, t2, &map, limit);
            let want = unclamped::on_new_affinity(&mut reference, t1, t2, &map, limit);
            assert_eq!(got, want, "batch {step} ({t1:?} -> {t2:?}, limit {limit})");
            assert!(store.truncated - truncated <= 1, "one call counts at most once");
            if full {
                calls_on_full += 1;
                reference_cost_on_full += reference.truncated - reference_truncated;
            }
        }
        assert_eq!(store.sequences(), reference.sequences());
        assert_eq!(store.len(), cap, "the stream must cross the cap");
        assert!(calls_on_full > 0);
        // The reference pays per visited node on a full store; the clamped
        // walk returns at its first node.
        assert!(reference_cost_on_full > calls_on_full, "{reference_cost_on_full}");
    }
}
