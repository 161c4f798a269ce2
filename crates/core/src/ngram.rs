//! Packed n-gram memory for sequence-novelty checks.
//!
//! The fuzzer remembers every executed 2-/3-gram of statement types so
//! progressive synthesis (Algorithm 3) can steer toward unexecuted
//! sequences. Profiling showed the old `HashSet<Vec<StmtKind>>` dominating
//! the feedback stage: every window probe allocated a `Vec` and ran SipHash
//! over it, and a long case contributes hundreds of windows.
//!
//! [`StmtKind::code`] values fit in 16 bits, so a whole n-gram packs into
//! one `u64` key ([`pack2`]/[`pack3`]) and the set becomes open addressing
//! over a flat `u64` table with a SplitMix64 probe hash — no allocation, no
//! byte-wise hashing, cache-line-friendly probes.
//!
//! Packing layout (codes are biased by +1 so a key is never 0, letting 0
//! act as the empty-slot sentinel):
//!
//! ```text
//! bits 32..48 = c0+1,  bits 16..32 = c1+1,  bits 0..16 = c2+1 (0 if bigram)
//! ```
//!
//! A useful side effect: ascending key order sorts bigrams before their
//! trigram extensions and orders grams lexicographically by code, so the
//! checkpoint serialization of the set is canonical without re-deriving the
//! old `Vec<Vec<u16>>` sort.

use lego_sqlast::StmtKind;

/// Pack a bigram of type codes. Keys never collide with trigram keys
/// because the low 16 bits stay 0.
#[inline]
pub fn pack2(a: StmtKind, b: StmtKind) -> u64 {
    ((a.code() as u64 + 1) << 32) | ((b.code() as u64 + 1) << 16)
}

/// Pack a trigram of type codes.
#[inline]
pub fn pack3(a: StmtKind, b: StmtKind, c: StmtKind) -> u64 {
    pack2(a, b) | (c.code() as u64 + 1)
}

/// Pack a window of 2 or 3 kinds (panics on other lengths — the fuzzer only
/// tracks those orders, mirroring the paper's n ∈ {2, 3}).
#[inline]
pub fn pack_window(w: &[StmtKind]) -> u64 {
    match *w {
        [a, b] => pack2(a, b),
        [a, b, c] => pack3(a, b, c),
        _ => panic!("n-gram windows are 2 or 3 statements, got {}", w.len()),
    }
}

/// Unpack a key back into type codes (checkpoint serialization sanity and
/// v1-migration tests).
pub fn unpack(key: u64) -> Vec<u16> {
    let mut codes = Vec::with_capacity(3);
    for shift in [32u32, 16, 0] {
        let c = (key >> shift) & 0xffff;
        if c != 0 {
            codes.push((c - 1) as u16);
        }
    }
    codes
}

/// SplitMix64 finalizer — bijective, so distinct keys never alias before
/// the table mask is applied.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Open-addressing set of packed n-gram keys. Linear probing, power-of-two
/// capacity, grown at 7/8 load; slot value 0 means empty (valid keys are
/// never 0 thanks to the +1 bias in [`pack2`]).
#[derive(Clone, Debug)]
pub struct NgramSet {
    slots: Box<[u64]>,
    mask: usize,
    len: usize,
}

impl Default for NgramSet {
    fn default() -> Self {
        Self::new()
    }
}

impl NgramSet {
    pub fn new() -> Self {
        // 1024 slots covers the first few thousand executions without a
        // rehash; the set typically plateaus in the low tens of thousands.
        Self::with_capacity_pow2(1024)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Self { slots: vec![0u64; cap].into_boxed_slice(), mask: cap - 1, len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a packed key; returns `true` if it was new.
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, 0, "packed n-gram keys are never 0");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = mix(key) as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return false;
            }
            if slot == 0 {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let mut i = mix(key) as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return true;
            }
            if slot == 0 {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = Self::with_capacity_pow2(self.slots.len() * 2);
        for &k in self.slots.iter().filter(|&&k| k != 0) {
            bigger.insert(k);
        }
        *self = bigger;
    }

    /// Keys in ascending order — the canonical checkpoint form.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.slots.iter().copied().filter(|&k| k != 0).collect();
        v.sort_unstable();
        v
    }
}

/// Longest sequence a [`pack_seq`] key can hold: eight 16-bit lanes.
pub const MAX_PACKED_SEQ: usize = 8;

/// Pack a whole statement-type sequence (length 1..=[`MAX_PACKED_SEQ`]) into
/// a `u128`, lane `i` holding `code+1` of statement `i`. The +1 bias keeps
/// every key nonzero and distinguishes `[A]` from `[A, pad]`, so packing is
/// injective over all lengths. [`crate::synthesis::SequenceStore`] uses these
/// keys for duplicate suppression — Algorithm 3 probes its `seen` set once
/// per explored node, and hashing a `u128` beats SipHash over a `Vec`.
#[inline]
pub fn pack_seq(seq: &[StmtKind]) -> u128 {
    debug_assert!(!seq.is_empty() && seq.len() <= MAX_PACKED_SEQ);
    let mut key = 0u128;
    for (i, s) in seq.iter().enumerate() {
        key |= (s.code() as u128 + 1) << (i * 16);
    }
    key
}

/// Number of statements in a [`pack_seq`] key (count of nonzero lanes).
#[inline]
pub fn seq_len(key: u128) -> usize {
    (128 - key.leading_zeros() as usize).div_ceil(16)
}

/// Decode a [`pack_seq`] key back into kinds (checkpoint serialization and
/// deferred-job materialization; the hot paths stay packed).
pub fn unpack_seq(mut key: u128) -> Vec<StmtKind> {
    let mut v = Vec::with_capacity(seq_len(key));
    while key != 0 {
        let lane = (key & 0xffff) as u16;
        v.push(StmtKind::from_code(lane - 1).expect("packed lane within alphabet"));
        key >>= 16;
    }
    v
}

/// The [`pack2`] key of the bigram starting at statement `i` of a packed
/// sequence, read straight from the lanes (they already store `code+1`).
#[inline]
pub fn gram2_at(seq: u128, i: usize) -> u64 {
    ((((seq >> (i * 16)) & 0xffff) as u64) << 32)
        | ((((seq >> ((i + 1) * 16)) & 0xffff) as u64) << 16)
}

/// The [`pack3`] key of the trigram starting at statement `i`.
#[inline]
pub fn gram3_at(seq: u128, i: usize) -> u64 {
    gram2_at(seq, i) | (((seq >> ((i + 2) * 16)) & 0xffff) as u64)
}

/// Open-addressing set of [`pack_seq`] keys — the `u128` twin of
/// [`NgramSet`], same probing scheme, the two 64-bit halves folded through
/// SplitMix64.
#[derive(Clone, Debug)]
pub struct SeqKeySet {
    slots: Vec<u128>,
    mask: usize,
    len: usize,
}

impl Default for SeqKeySet {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqKeySet {
    pub fn new() -> Self {
        Self { slots: vec![0u128; 1024], mask: 1023, len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index(&self, key: u128) -> usize {
        mix(key as u64 ^ mix((key >> 64) as u64)) as usize & self.mask
    }

    /// Insert a packed sequence key; returns `true` if it was new.
    pub fn insert(&mut self, key: u128) -> bool {
        debug_assert_ne!(key, 0, "packed sequence keys are never 0");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.index(key);
        loop {
            let slot = self.slots[i];
            if slot == key {
                return false;
            }
            if slot == 0 {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn contains(&self, key: u128) -> bool {
        let mut i = self.index(key);
        loop {
            let slot = self.slots[i];
            if slot == key {
                return true;
            }
            if slot == 0 {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0u128; doubled]);
        self.mask = doubled - 1;
        self.len = 0;
        for k in old.into_iter().filter(|&k| k != 0) {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn kinds() -> Vec<StmtKind> {
        StmtKind::all()
    }

    #[test]
    fn pack_is_injective_over_the_alphabet() {
        let all = kinds();
        let mut seen = HashSet::new();
        for &a in all.iter().step_by(17) {
            for &b in all.iter().step_by(13) {
                assert!(seen.insert(pack2(a, b)));
                for &c in all.iter().step_by(29) {
                    assert!(seen.insert(pack3(a, b, c)));
                }
            }
        }
    }

    #[test]
    fn bigram_and_trigram_keys_never_collide() {
        let all = kinds();
        let (a, b) = (all[0], all[1]);
        // A trigram whose first two codes match a bigram still differs: its
        // low 16 bits are nonzero.
        for &c in &all {
            assert_ne!(pack2(a, b), pack3(a, b, c));
        }
    }

    #[test]
    fn unpack_inverts_pack() {
        let all = kinds();
        let (a, b, c) = (all[3], all[60], all[150]);
        assert_eq!(unpack(pack2(a, b)), vec![a.code(), b.code()]);
        assert_eq!(unpack(pack3(a, b, c)), vec![a.code(), b.code(), c.code()]);
    }

    #[test]
    fn set_matches_hashset_reference() {
        // Drive both sets with the same deterministic key stream and check
        // they agree on membership and size at every step.
        let mut set = NgramSet::new();
        let mut reference = HashSet::new();
        let all = kinds();
        let mut x = 0x9e37_79b9u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = all[(x >> 33) as usize % all.len()];
            let b = all[(x >> 13) as usize % all.len()];
            let key = if x & 1 == 0 {
                pack2(a, b)
            } else {
                pack3(a, b, all[(x >> 3) as usize % all.len()])
            };
            assert_eq!(set.insert(key), reference.insert(key));
            assert_eq!(set.len(), reference.len());
        }
        for &k in &reference {
            assert!(set.contains(k));
        }
    }

    #[test]
    fn growth_preserves_membership() {
        let mut set = NgramSet::with_capacity_pow2(8);
        let all = kinds();
        let mut keys = Vec::new();
        for i in 0..all.len() - 1 {
            let k = pack2(all[i], all[i + 1]);
            set.insert(k);
            keys.push(k);
        }
        assert!(set.slots.len() > 8);
        for k in keys {
            assert!(set.contains(k));
        }
    }

    #[test]
    fn sorted_keys_are_canonical() {
        let mut a = NgramSet::new();
        let mut b = NgramSet::new();
        let all = kinds();
        let grams = [pack2(all[5], all[2]), pack3(all[5], all[2], all[9]), pack2(all[0], all[1])];
        for &k in &grams {
            a.insert(k);
        }
        for &k in grams.iter().rev() {
            b.insert(k);
        }
        assert_eq!(a.sorted_keys(), b.sorted_keys());
        let sorted = a.sorted_keys();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pack_seq_is_injective_across_lengths() {
        // Prefix vs extension and every length up to the cap must key apart.
        let all = kinds();
        let mut seen = HashSet::new();
        for len in 1..=MAX_PACKED_SEQ {
            for start in (0..40).step_by(7) {
                let seq: Vec<StmtKind> =
                    (0..len).map(|i| all[(start + i * 3) % all.len()]).collect();
                assert!(seen.insert(pack_seq(&seq)), "collision at len {len}");
            }
        }
        let a = vec![all[2]];
        let ab = vec![all[2], all[0]];
        assert_ne!(pack_seq(&a), pack_seq(&ab));
    }

    #[test]
    fn packed_seq_grams_match_pack2_pack3() {
        let all = kinds();
        let seq: Vec<StmtKind> =
            (0..MAX_PACKED_SEQ).map(|i| all[(i * 37 + 5) % all.len()]).collect();
        let key = pack_seq(&seq);
        assert_eq!(seq_len(key), seq.len());
        assert_eq!(unpack_seq(key), seq);
        for (i, w) in seq.windows(2).enumerate() {
            assert_eq!(gram2_at(key, i), pack2(w[0], w[1]));
        }
        for (i, w) in seq.windows(3).enumerate() {
            assert_eq!(gram3_at(key, i), pack3(w[0], w[1], w[2]));
        }
        let short = vec![all[0], all[3]];
        assert_eq!(seq_len(pack_seq(&short)), 2);
        assert_eq!(unpack_seq(pack_seq(&short)), short);
    }

    #[test]
    fn seq_key_set_matches_hashset_reference() {
        let all = kinds();
        let mut set = SeqKeySet::new();
        let mut reference = HashSet::new();
        let mut x = 0xdead_beefu64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = 1 + (x >> 60) as usize % MAX_PACKED_SEQ;
            let seq: Vec<StmtKind> =
                (0..len).map(|i| all[((x >> (i * 7)) as usize) % all.len()]).collect();
            let key = pack_seq(&seq);
            assert_eq!(set.insert(key), reference.insert(key));
            assert_eq!(set.len(), reference.len());
        }
        for &k in &reference {
            assert!(set.contains(k));
        }
    }

    #[test]
    fn seq_key_set_default_is_usable() {
        let all = kinds();
        let mut set = SeqKeySet::default();
        assert!(!set.contains(pack_seq(&[all[0]])));
        // More keys than the initial table holds at 7/8 load, so it grows.
        let keys: Vec<u128> =
            all.iter().flat_map(|&a| all[..5].iter().map(move |&b| pack_seq(&[a, b]))).collect();
        assert!(keys.len() * 8 > 1024 * 7);
        for &k in &keys {
            assert!(set.insert(k));
        }
        assert_eq!(set.len(), keys.len());
        assert!(keys.iter().all(|&k| set.contains(k)));
    }
}
