//! The LEGO fuzzer — Figure 4 of the paper.
//!
//! Each iteration: (1) *proactive affinity analysis* — pick a seed, apply
//! sequence-oriented mutations (Algorithm 1: substitution, insertion,
//! deletion), analyze the affinities of mutants that covered new branches
//! (Algorithm 2); (2) *progressive sequence synthesis* — for every newly
//! discovered affinity, synthesize all new sequences containing it
//! (Algorithm 3) and instantiate them into executable test cases.
//! Conventional syntax-preserving mutations run alongside, as in the
//! implementation section (§ IV).

use crate::affinity::AffinityMap;
use crate::campaign::FuzzEngine;
use crate::checkpoint::{from_json, CHECKPOINT_VERSION};
use crate::gen::{gen_statement, SchemaModel};
use crate::instantiate::{fix_case, instantiate, AstLibrary};
use crate::mutation::{conventional_mutate_stacked, sema_repair};
use crate::ngram::{
    gram2_at, gram3_at, pack2, pack3, pack_seq, seq_len, with_unpacked_seq, NgramSet,
};
use crate::pool::SeedPool;
use crate::seeds::initial_corpus;
use crate::synthesis::{plausible_key, SequenceStore};
use lego_dbms::ExecReport;
use lego_observe::{Event, MutOp, Stage, Telemetry};
use lego_sqlast::ast::Statement;
use lego_sqlast::{Dialect, StmtKind, TestCase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Bound on each of the two pending queues (mutation-derived cases and
/// synthesis jobs); overflow is dropped and counted in
/// [`LegoStats::queue_dropped`].
const QUEUE_CAP: usize = 20_000;

/// Copies instantiated from a synthesized sequence with a never-executed
/// type pair (the paper's §III-C "one SQL Type Sequence will be instantiated
/// multiple times"); a sequence that is new only by a triple gets one.
///
/// No second copy is ever made: the first copy executes, and its n-grams are
/// recorded, before the job reaches the front of the queue again, so
/// [`LegoFuzzer::pop_synth`] drops it. The counter still matters. With 1, a
/// spent job leaves the synthesis queue one pop earlier; the queue fills to
/// [`QUEUE_CAP`], so that changes which later jobs the cap admits, and
/// `lego_cli fuzz maria --units 1000000 --oracles --rule-cov --sema` covered
/// fewer branches in 9 of 11 seeds (median 15,810 → 15,653, −1.0%).
const INSTANTIATIONS_PER_SEQ: usize = 2;

/// Tuning knobs. Defaults follow the paper where it gives numbers
/// (`LEN = 5`; the length-ablation experiment uses 3/5/8).
#[derive(Clone, Debug, serde::Serialize)]
pub struct Config {
    /// Maximum synthesized sequence length (the paper's `LEN`).
    pub max_seq_len: usize,
    /// Cap on sequences synthesized per new affinity (engineering guard).
    pub synth_limit_per_affinity: usize,
    /// Conventional mutants generated per scheduled seed.
    pub conventional_per_seed: usize,
    /// Max stacked within-statement mutations per conventional mutant.
    pub mutation_stack: usize,
    /// Algorithm 1 (sequence-oriented mutation: substitution / insertion /
    /// deletion). LEGO and LEGO- have it; SQUIRREL-style engines do not.
    pub seq_mutation: bool,
    /// Algorithms 2+3 (affinity analysis + progressive synthesis); `false`
    /// gives the paper's LEGO- ablation.
    pub sequence_oriented: bool,
    /// Hard cap on test-case length for insertion mutants — the paper's
    /// length limit (§ VI: unbounded seeds "may degrade the performance of
    /// fuzzer or even cause fuzzer to be stuck", cf. the 945-statement seed
    /// that hung SQUIRREL for 23 minutes). A retained seed longer than this
    /// is also kept as two overlapping halves (§ VI future work: "split long
    /// sequences into several equivalent short sequences").
    pub max_case_len: usize,
    /// § VI future work: "importing the model of non-adjacent combinations
    /// between types" — also record gap-1 (one-apart) type pairs as
    /// affinities during analysis.
    pub nonadjacent_affinities: bool,
    /// RNG seed for the whole campaign.
    pub rng_seed: u64,
    /// Grammar-rule coverage feedback: react to parser-rule novelty reported
    /// by the campaign loop (seed boosting + gap-pair affinity harvesting)
    /// and start from the dialect "special features" template pack.
    pub rule_cov: bool,
    /// Static sequence analysis (`--sema`): dependency-aware mutation and
    /// splicing via the `lego-sqlsema` binder, plus kind-level plausibility
    /// filtering of synthesized drafts. The campaign layer additionally
    /// skips engine execution of statically-invalid cases and runs the
    /// analyzer-vs-engine conformance oracle.
    pub sema: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_seq_len: 5,
            synth_limit_per_affinity: 48,
            conventional_per_seed: 6,
            mutation_stack: 1,
            seq_mutation: true,
            sequence_oriented: true,
            max_case_len: 10,
            nonadjacent_affinities: false,
            rng_seed: 0x1e60,
            rule_cov: false,
            sema: false,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Origin {
    Seed,
    /// Algorithm 1 mutants, by operator (telemetry attributes coverage
    /// gains to the specific operator that produced the case).
    Substitution,
    Insertion,
    Deletion,
    Synthesized,
    Conventional,
}

impl Origin {
    fn op(self) -> MutOp {
        match self {
            Origin::Seed => MutOp::Seed,
            Origin::Substitution => MutOp::Substitution,
            Origin::Insertion => MutOp::Insertion,
            Origin::Deletion => MutOp::Deletion,
            Origin::Synthesized => MutOp::Synthesis,
            Origin::Conventional => MutOp::Conventional,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Origin::Seed => "seed",
            Origin::Substitution => "substitution",
            Origin::Insertion => "insertion",
            Origin::Deletion => "deletion",
            Origin::Synthesized => "synthesized",
            Origin::Conventional => "conventional",
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "seed" => Origin::Seed,
            "substitution" => Origin::Substitution,
            "insertion" => Origin::Insertion,
            "deletion" => Origin::Deletion,
            "synthesized" => Origin::Synthesized,
            "conventional" => Origin::Conventional,
            other => return Err(format!("unknown case origin '{other}'")),
        })
    }
}

struct Pending {
    case: Arc<TestCase>,
    origin: Origin,
}

/// One synthesis-queue slot: a synthesized sequence, as its packed key, and
/// the copies still to instantiate from it. Instantiation is deferred to
/// schedule time, so a dropped or superseded sequence costs nothing and the
/// novelty filter gets a second look with the n-grams executed since enqueue.
struct SynthJob {
    key: u128,
    left: usize,
}

/// The n-gram that makes a synthesized sequence worth executing.
#[derive(Clone, Copy, PartialEq)]
enum NewGram {
    /// A type pair no executed case holds.
    Pair,
    /// Only a type triple no executed case holds, over known pairs.
    Triple,
}

/// Whether the packed sequence `key` would execute a type 2-gram or 3-gram
/// that no executed case has, and which; `None` if it would only re-cover
/// known interactions (§ II C3). The probes read n-gram keys straight out
/// of the packed sequence, with no decode.
fn offers_new_ngram(executed: &NgramSet, key: u128) -> Option<NewGram> {
    let len = seq_len(key);
    if (0..len - 1).any(|i| !executed.contains(gram2_at(key, i))) {
        Some(NewGram::Pair)
    } else if len >= 3 && (0..len - 2).any(|i| !executed.contains(gram3_at(key, i))) {
        Some(NewGram::Triple)
    } else {
        None
    }
}

/// The LEGO fuzzing engine (and, with `sequence_oriented = false`, LEGO-).
pub struct LegoFuzzer {
    dialect: Dialect,
    cfg: Config,
    rng: SmallRng,
    pool: SeedPool,
    affinities: AffinityMap,
    store: SequenceStore,
    library: AstLibrary,
    /// Seed + mutation-derived cases.
    queue: VecDeque<Pending>,
    /// Synthesized (Algorithm 3) work, drained at a fixed share of the
    /// schedule so synthesis bursts cannot starve mutation. Holds deferred
    /// instantiation jobs (see [`SynthJob`]), not materialized cases.
    synth_queue: VecDeque<SynthJob>,
    /// Scheduling counter between the two queues.
    schedule_tick: usize,
    /// Kinds available for substitution/insertion.
    kinds: Vec<StmtKind>,
    /// Ordered type 2-grams and 3-grams already observed in executed cases
    /// (packed `u64` keys); synthesized sequences offering no new n-gram are
    /// not re-instantiated.
    executed_ngrams: NgramSet,
    pending_origin: Origin,
    /// Telemetry handle, attached by the campaign harness. Disabled by
    /// default; never consulted for any fuzzing decision.
    tel: Telemetry,
    pub stats: LegoStats,
}

/// Internal counters surfaced for the ablation tables.
#[derive(Clone, Debug, Default)]
pub struct LegoStats {
    pub affinities_found: usize,
    pub sequences_synthesized: usize,
    pub cases_instantiated: usize,
    /// Synthesized sequences skipped because every adjacent pair had already
    /// been executed (scheduling optimization, reported not silent).
    pub sequences_skipped_covered: usize,
    pub queue_dropped: usize,
    pub seq_mutants: usize,
    pub conventional_mutants: usize,
    /// Corpus entries whose admission was driven (at least in part) by
    /// grammar-rule novelty — each one also got a scheduling boost.
    pub rule_boosted: usize,
}

impl LegoFuzzer {
    pub fn new(dialect: Dialect, cfg: Config) -> Self {
        Self::with_corpus(dialect, cfg, initial_corpus(dialect))
    }

    /// Start from a caller-supplied seed corpus instead of the built-in one
    /// (e.g. a corpus reloaded via [`crate::corpus_io::load_corpus`]).
    pub fn with_corpus(dialect: Dialect, cfg: Config, corpus: Vec<TestCase>) -> Self {
        let kinds = dialect.supported_kinds();
        let starters: Vec<StmtKind> =
            kinds.iter().copied().filter(|k| k.is_sequence_starter()).collect();
        let mut fz = Self {
            dialect,
            rng: SmallRng::seed_from_u64(cfg.rng_seed),
            pool: SeedPool::new(),
            affinities: AffinityMap::new(),
            store: SequenceStore::new(cfg.max_seq_len, &starters),
            library: AstLibrary::new(),
            queue: VecDeque::new(),
            synth_queue: VecDeque::new(),
            schedule_tick: 0,
            kinds,
            executed_ngrams: NgramSet::new(),
            pending_origin: Origin::Seed,
            tel: Telemetry::disabled(),
            stats: LegoStats::default(),
            cfg,
        };
        // The dialect "special features" templates (rule-coverage mode
        // only) ride behind the seed corpus so the baseline seeds still
        // execute first.
        let pack =
            if fz.cfg.rule_cov { crate::special::special_templates(dialect) } else { vec![] };
        fz.queue.extend(
            corpus
                .into_iter()
                .chain(pack)
                .map(|case| Pending { case: Arc::new(case), origin: Origin::Seed }),
        );
        fz
    }

    /// Convenience constructor for the LEGO- ablation (§ V-D).
    pub fn lego_minus(dialect: Dialect, mut cfg: Config) -> Self {
        cfg.sequence_oriented = false;
        Self::new(dialect, cfg)
    }

    pub fn affinity_count(&self) -> usize {
        self.affinities.len()
    }

    fn push(&mut self, case: TestCase, origin: Origin) {
        debug_assert_ne!(origin, Origin::Synthesized, "synthesis enqueues jobs, not cases");
        if self.queue.len() >= QUEUE_CAP {
            self.stats.queue_dropped += 1;
            return;
        }
        self.queue.push_back(Pending { case: Arc::new(case), origin });
    }

    fn random_kind(&mut self, not: Option<StmtKind>) -> StmtKind {
        loop {
            // Proactive exploration: when the affinity machinery is on, half
            // of the draws steer toward statement types whose affinities are
            // still unexplored (fewest known successors), so the type space
            // is swept systematically rather than by uniform luck.
            let k = if self.cfg.sequence_oriented && self.rng.gen_bool(0.5) {
                let mut best = self.kinds[self.rng.gen_range(0..self.kinds.len())];
                let mut best_deg = self.affinities.successors(best).count();
                for _ in 0..3 {
                    let cand = self.kinds[self.rng.gen_range(0..self.kinds.len())];
                    let deg = self.affinities.successors(cand).count();
                    if deg < best_deg {
                        best = cand;
                        best_deg = deg;
                    }
                }
                best
            } else {
                self.kinds[self.rng.gen_range(0..self.kinds.len())]
            };
            if Some(k) != not {
                return k;
            }
        }
    }

    /// Algorithm 1 over one seed: for each statement, build the
    /// substitution / insertion / deletion mutants. (They are *executed*
    /// later by the campaign loop; affinity analysis happens in `feedback`
    /// for the ones that hit new branches.) Each mutant is spliced from the
    /// borrowed seed and shares every statement it keeps with it, until the
    /// validator rewrites one; the prefix schema grows by one statement per
    /// position.
    fn sequence_mutants(&mut self, seed: &TestCase) -> Vec<(TestCase, Origin)> {
        let stmts = &seed.statements;
        let mut out = Vec::new();
        let n = stmts.len().min(12);
        // Under `--sema`, deletion consults the seed's def-use graph so a
        // removal that severs a live dependency edge gets its dangling
        // references repaired instead of shipping a provably-dead case.
        // Built once per seed; `None` off-path so the sema-less RNG stream
        // and mutant set stay byte-identical.
        let dep_graph =
            if self.cfg.sema { Some(lego_sqlsema::DepGraph::build(stmts)) } else { None };
        let mut schema = SchemaModel::new();
        for i in 0..n {
            if i > 0 {
                schema.observe(&stmts[i - 1]);
            }
            // Substitution.
            {
                let kind = self.random_kind(Some(stmts[i].kind()));
                let stmt = gen_statement(kind, &schema, self.dialect, &mut self.rng);
                let mut q1 = splice(stmts, i, 1, Some(stmt));
                fix_case(&mut q1, &mut self.rng);
                if self.cfg.sema {
                    sema_repair(&mut q1, self.dialect);
                }
                out.push((q1, Origin::Substitution));
            }
            // Insertion after (unless the seed is already at the length
            // cap). Insertion *extends* sequences — composition — so it
            // belongs to the sequence-synthesis half of LEGO and is disabled
            // in the LEGO- ablation along with Algorithms 2-3; LEGO- keeps
            // substitution and deletion (type exploration over existing
            // sequence shapes).
            if self.cfg.sequence_oriented && stmts.len() < self.cfg.max_case_len {
                let kind = self.random_kind(None);
                let stmt = gen_statement(kind, &schema, self.dialect, &mut self.rng);
                let mut q2 = splice(stmts, i + 1, 0, Some(stmt));
                fix_case(&mut q2, &mut self.rng);
                if self.cfg.sema {
                    sema_repair(&mut q2, self.dialect);
                }
                out.push((q2, Origin::Insertion));
            }
            // Deletion.
            if stmts.len() > 1 {
                let mut q3 = splice(stmts, i, 1, None);
                fix_case(&mut q3, &mut self.rng);
                if let Some(graph) = &dep_graph {
                    let order: Vec<usize> = (0..stmts.len()).filter(|&j| j != i).collect();
                    if !graph.order_satisfied(&order) {
                        sema_repair(&mut q3, self.dialect);
                    }
                }
                out.push((q3, Origin::Deletion));
            }
        }
        self.stats.seq_mutants += out.len();
        out
    }

    /// Schedule one fuzzing iteration's worth of pending cases.
    fn schedule_iteration(&mut self) {
        let seed_case = match self.pool.pick(&mut self.rng) {
            // An `Arc` bump: scheduling a retained seed no longer deep-clones
            // its AST.
            Some(s) => Arc::clone(&s.case),
            None => {
                // Pool still empty (feedback not yet processed): re-inject a
                // built-in seed.
                Arc::new(crate::seeds::corpus(self.dialect)[0].clone())
            }
        };
        if self.cfg.seq_mutation {
            for (mutant, origin) in self.sequence_mutants(&seed_case) {
                self.tel.emit(|| Event::MutationApplied { op: origin.op() });
                self.push(mutant, origin);
            }
        }
        for _ in 0..self.cfg.conventional_per_seed {
            let mutant =
                conventional_mutate_stacked(&seed_case, &mut self.rng, self.cfg.mutation_stack);
            self.stats.conventional_mutants += 1;
            self.tel.emit(|| Event::MutationApplied { op: MutOp::Conventional });
            self.push(mutant, Origin::Conventional);
        }
    }

    /// Progressive synthesis for freshly discovered affinities. Enqueues
    /// deferred instantiation jobs; the AST work happens in [`Self::pop_synth`]
    /// only for sequences the schedule actually reaches.
    fn synthesize_for(&mut self, new_affinities: &[(StmtKind, StmtKind)]) {
        for &(t1, t2) in new_affinities {
            let seqs = self.store.on_new_affinity(
                t1,
                t2,
                &self.affinities,
                self.cfg.synth_limit_per_affinity,
            );
            self.stats.sequences_synthesized += seqs.len();
            let n_seqs = seqs.len() as u64;
            let mut scheduled = 0u64;
            for key in seqs {
                // Kind-level plausibility gate (`--sema`): drafts containing
                // an unsupported or unconditionally-rejected statement type
                // can never execute, whatever the instantiation — skip them
                // before the n-gram probe so they neither queue nor count as
                // scheduled work.
                if self.cfg.sema && !plausible_key(key, self.dialect) {
                    continue;
                }
                // Queue only sequences that would execute at least one type
                // 2-gram or 3-gram never executed before; the rest are
                // skipped to keep seeds cheap.
                let Some(gram) = offers_new_ngram(&self.executed_ngrams, key) else {
                    self.stats.sequences_skipped_covered += 1;
                    continue;
                };
                if self.synth_queue.len() >= QUEUE_CAP {
                    self.stats.queue_dropped += 1;
                    continue;
                }
                // New pairs justify multiple structural variations; new
                // triples over known pairs get one shot.
                let left = if gram == NewGram::Pair { INSTANTIATIONS_PER_SEQ } else { 1 };
                scheduled += left as u64;
                self.synth_queue.push_back(SynthJob { key, left });
            }
            self.tel.emit(|| Event::SynthesisStep {
                t1: t1.name(),
                t2: t2.name(),
                sequences: n_seqs,
                instantiated: scheduled,
            });
        }
    }

    /// Pop the next synthesized case, instantiating the front job on demand.
    /// Sequences whose every n-gram got covered while they waited in the
    /// queue are discarded here without ever paying for AST generation.
    fn pop_synth(&mut self) -> Option<Pending> {
        loop {
            let SynthJob { key, left } = self.synth_queue.front_mut()?;
            if offers_new_ngram(&self.executed_ngrams, *key).is_none() {
                self.stats.sequences_skipped_covered += 1;
                self.synth_queue.pop_front();
                continue;
            }
            let case = with_unpacked_seq(*key, |seq| {
                instantiate(seq, &self.library, self.dialect, &mut self.rng)
            });
            self.stats.cases_instantiated += 1;
            *left -= 1;
            if *left == 0 {
                self.synth_queue.pop_front();
            }
            return Some(Pending { case: Arc::new(case), origin: Origin::Synthesized });
        }
    }
}

/// A case holding `stmts` with `stmts[at..at + remove]` replaced by `insert`,
/// sharing each statement it keeps, in a vector of the final length.
fn splice(
    stmts: &[Arc<Statement>],
    at: usize,
    remove: usize,
    insert: Option<Statement>,
) -> TestCase {
    let mut out = Vec::with_capacity(stmts.len() - remove + usize::from(insert.is_some()));
    out.extend_from_slice(&stmts[..at]);
    out.extend(insert.map(Arc::new));
    out.extend_from_slice(&stmts[at + remove..]);
    TestCase::shared(out)
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: the engine half of `crate::checkpoint`
// ---------------------------------------------------------------------------

/// One retained seed, as persisted.
#[derive(serde::Serialize)]
struct SeedCk {
    sql: String,
    cost: usize,
    scheduled: usize,
}

/// One queued pending case, as persisted.
#[derive(serde::Serialize)]
struct PendingCk {
    sql: String,
    origin: String,
}

/// One AST-library bucket, as persisted (kind code + statement scripts).
#[derive(serde::Serialize)]
struct BucketCk {
    kind: u16,
    stmts: Vec<String>,
}

/// One deferred synthesis job, as persisted (kind codes + variants left).
#[derive(serde::Serialize)]
struct JobCk {
    seq: Vec<u16>,
    left: usize,
}

/// The complete serialized state of a [`LegoFuzzer`]. Test cases and
/// statements round-trip through SQL text (`to_sql` → `parse_script`), RNG
/// state through the reseed barrier, and `StmtKind`s through their stable
/// codes. Every collection is emitted in a deterministic order, so two
/// engines with equal state produce byte-identical snapshots.
#[derive(serde::Serialize)]
struct FuzzerSnapshot {
    /// [`CHECKPOINT_VERSION`].
    version: u64,
    name: String,
    /// The engine `Config` as JSON; restore compares it verbatim against the
    /// receiving engine's config, catching any seed/knob mismatch.
    cfg: String,
    rng_reseed: u64,
    schedule_tick: usize,
    pending_origin: String,
    pool: Vec<SeedCk>,
    affinities: Vec<(u16, u16)>,
    seqs: Vec<Vec<u16>>,
    store_truncated: usize,
    library: Vec<BucketCk>,
    library_keys: Vec<u64>,
    queue: Vec<PendingCk>,
    /// The synthesis queue, front first.
    synth_jobs: Vec<JobCk>,
    /// Packed n-gram keys in ascending order (see [`crate::ngram`]).
    executed_ngrams: Vec<u64>,
    /// `LegoStats` counters in declaration order.
    stats: Vec<usize>,
}

from_json!(SeedCk { sql, cost, scheduled });
from_json!(PendingCk { sql, origin });
from_json!(BucketCk { kind, stmts });
from_json!(JobCk { seq, left });
from_json!(FuzzerSnapshot {
    version,
    name,
    cfg,
    rng_reseed,
    schedule_tick,
    pending_origin,
    pool,
    affinities,
    seqs,
    store_truncated,
    library,
    library_keys,
    queue,
    synth_jobs,
    executed_ngrams,
    stats,
});

/// A statement as [`TestCase::to_sql`] renders it.
fn stmt_to_sql(stmt: &Arc<Statement>) -> String {
    format!("{stmt};\n")
}

fn parse_case(sql: &str) -> Result<TestCase, String> {
    lego_sqlparser::parse_script(sql).map_err(|e| format!("checkpointed case re-parse: {e:?}"))
}

fn parse_stmt(sql: &str) -> Result<Statement, String> {
    let mut case = parse_case(sql)?;
    if case.statements.len() != 1 {
        return Err(format!("expected one statement, got {}", case.statements.len()));
    }
    Ok(Arc::unwrap_or_clone(case.statements.remove(0)))
}

fn kind_from_code(code: u16) -> Result<StmtKind, String> {
    StmtKind::from_code(code).ok_or_else(|| format!("unknown statement-kind code {code}"))
}

fn kinds_from_codes(codes: &[u16]) -> Result<Vec<StmtKind>, String> {
    codes.iter().map(|&c| kind_from_code(c)).collect()
}

impl LegoFuzzer {
    /// Build the serialized snapshot, performing the RNG reseed barrier.
    fn snapshot(&mut self) -> FuzzerSnapshot {
        let reseed: u64 = self.rng.gen();
        self.rng = SmallRng::seed_from_u64(reseed);
        FuzzerSnapshot {
            version: CHECKPOINT_VERSION,
            name: self.name().to_string(),
            cfg: serde_json::to_string(&self.cfg).expect("config serialize"),
            rng_reseed: reseed,
            schedule_tick: self.schedule_tick,
            pending_origin: self.pending_origin.name().to_string(),
            pool: self
                .pool
                .seeds()
                .map(|s| SeedCk { sql: s.case.to_sql(), cost: s.cost, scheduled: s.scheduled })
                .collect(),
            affinities: self.affinities.iter().map(|(a, b)| (a.code(), b.code())).collect(),
            seqs: self
                .store
                .sequences()
                .iter()
                .map(|s| s.iter().map(|k| k.code()).collect())
                .collect(),
            store_truncated: self.store.truncated,
            library: self
                .library
                .buckets_sorted()
                .into_iter()
                .map(|(k, stmts)| BucketCk {
                    kind: k.code(),
                    stmts: stmts.iter().map(stmt_to_sql).collect(),
                })
                .collect(),
            library_keys: self.library.keys_sorted(),
            queue: self
                .queue
                .iter()
                .map(|p| PendingCk { sql: p.case.to_sql(), origin: p.origin.name().to_string() })
                .collect(),
            synth_jobs: self
                .synth_queue
                .iter()
                .map(|j| JobCk {
                    seq: with_unpacked_seq(j.key, |seq| seq.iter().map(|k| k.code()).collect()),
                    left: j.left,
                })
                .collect(),
            executed_ngrams: self.executed_ngrams.sorted_keys(),
            stats: vec![
                self.stats.affinities_found,
                self.stats.sequences_synthesized,
                self.stats.cases_instantiated,
                self.stats.sequences_skipped_covered,
                self.stats.queue_dropped,
                self.stats.seq_mutants,
                self.stats.conventional_mutants,
                self.stats.rule_boosted,
            ],
        }
    }

    /// Apply a read snapshot. `self` must have been constructed with the
    /// same dialect and config as the engine that produced it.
    fn apply_snapshot(&mut self, snap: FuzzerSnapshot) -> Result<(), String> {
        if snap.name != self.name() {
            return Err(format!(
                "snapshot is for engine '{}', this engine is '{}'",
                snap.name,
                self.name()
            ));
        }
        let own_cfg = serde_json::to_string(&self.cfg).expect("config serialize");
        if snap.cfg != own_cfg {
            return Err(format!(
                "snapshot config does not match this engine's config:\n  snapshot: {}\n  engine:   {own_cfg}",
                snap.cfg
            ));
        }
        self.rng = SmallRng::seed_from_u64(snap.rng_reseed);
        self.schedule_tick = snap.schedule_tick;
        self.pending_origin = Origin::from_name(&snap.pending_origin)?;
        let seeds = snap
            .pool
            .into_iter()
            .map(|s| Ok((parse_case(&s.sql)?, s.cost, s.scheduled)))
            .collect::<Result<Vec<_>, String>>()?;
        self.pool = SeedPool::from_parts(seeds);
        self.affinities = AffinityMap::new();
        for (a, b) in snap.affinities {
            self.affinities.insert(kind_from_code(a)?, kind_from_code(b)?);
        }
        let seqs = snap.seqs.iter().map(|s| kinds_from_codes(s)).collect::<Result<_, String>>()?;
        self.store = SequenceStore::from_parts(self.cfg.max_seq_len, seqs, snap.store_truncated)?;
        let buckets = snap
            .library
            .into_iter()
            .map(|b| {
                let stmts = b.stmts.iter().map(|s| parse_stmt(s)).collect::<Result<_, String>>()?;
                Ok((kind_from_code(b.kind)?, stmts))
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.library = AstLibrary::from_parts(buckets, snap.library_keys);
        self.queue = snap
            .queue
            .into_iter()
            .map(|p| {
                Ok(Pending {
                    case: Arc::new(parse_case(&p.sql)?),
                    origin: Origin::from_name(&p.origin)?,
                })
            })
            .collect::<Result<_, String>>()?;
        self.synth_queue = VecDeque::new();
        for job in snap.synth_jobs {
            let seq = kinds_from_codes(&job.seq)?;
            if seq.len() < 2 || job.left == 0 {
                return Err("malformed synthesis job in snapshot".to_string());
            }
            // LEN is at most MAX_PACKED_SEQ, so this also keeps the key's
            // lanes within its 128 bits.
            if seq.len() > self.cfg.max_seq_len {
                return Err(format!(
                    "checkpointed synthesis job has {} statements, more than LEN = {}",
                    seq.len(),
                    self.cfg.max_seq_len
                ));
            }
            self.synth_queue.push_back(SynthJob { key: pack_seq(&seq), left: job.left });
        }
        self.executed_ngrams = NgramSet::new();
        for key in snap.executed_ngrams {
            // Validate against the alphabet: every embedded code must
            // decode, and re-packing must reproduce the key (rejects e.g. a
            // hole in the middle lane).
            let kinds = kinds_from_codes(&crate::ngram::unpack(key))?;
            let repacked = match kinds[..] {
                [a, b] => pack2(a, b),
                [a, b, c] => pack3(a, b, c),
                _ => return Err(format!("malformed packed n-gram key {key:#x}")),
            };
            if repacked != key {
                return Err(format!("malformed packed n-gram key {key:#x}"));
            }
            self.executed_ngrams.insert(key);
        }
        let [a, b, c, d, e, f, g, h] = snap.stats[..] else {
            return Err(format!("expected 8 stats counters, got {}", snap.stats.len()));
        };
        self.stats = LegoStats {
            affinities_found: a,
            sequences_synthesized: b,
            cases_instantiated: c,
            sequences_skipped_covered: d,
            queue_dropped: e,
            seq_mutants: f,
            conventional_mutants: g,
            rule_boosted: h,
        };
        Ok(())
    }
}

impl FuzzEngine for LegoFuzzer {
    fn name(&self) -> &'static str {
        if self.cfg.sequence_oriented {
            "LEGO"
        } else {
            "LEGO-"
        }
    }

    fn checkpoint(&mut self) -> Option<String> {
        Some(serde_json::to_string(&self.snapshot()).expect("snapshot serialize"))
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        let snap =
            crate::checkpoint::read(snapshot).map_err(|e| format!("engine snapshot: {e}"))?;
        self.apply_snapshot(snap)
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        loop {
            self.schedule_tick = self.schedule_tick.wrapping_add(1);
            // One synthesized case per two mutation-derived cases.
            if self.schedule_tick.is_multiple_of(3) {
                if let Some(p) = self.pop_synth() {
                    self.pending_origin = p.origin;
                    return p.case;
                }
            }
            // Mutation arm: generate work on demand so synthesis bursts can
            // never take more than half the execution budget.
            if self.queue.is_empty() {
                let tel = self.tel.clone();
                tel.time(Stage::Mutation, || self.schedule_iteration());
            }
            if let Some(p) = self.queue.pop_front() {
                self.pending_origin = p.origin;
                return p.case;
            }
        }
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        if self.cfg.sequence_oriented {
            // Packed-key inserts: no per-window allocation, no byte hashing.
            let seq = case.type_sequence();
            for w in seq.windows(2) {
                self.executed_ngrams.insert(pack2(w[0], w[1]));
            }
            for w in seq.windows(3) {
                self.executed_ngrams.insert(pack3(w[0], w[1], w[2]));
            }
        }
        if !new_coverage {
            return;
        }
        // Attribute the coverage gain (edge delta stashed by the campaign
        // loop) to the operator that produced this case.
        self.tel.record_gain(self.pending_origin.op());
        // Retain the seed (an `Arc` bump, not an AST clone) and harvest its
        // AST structures.
        self.pool.add(Arc::clone(case), report.statements_executed.max(1));
        self.library.add_case(case);
        // § VI: over-long seeds are additionally kept as two overlapping
        // halves, so their subsequences stay cheap to mutate.
        if case.len() > self.cfg.max_case_len {
            let mid = case.len() / 2;
            let overlap = 2.min(mid);
            let first = TestCase::shared(case.statements[..(mid + overlap)].to_vec());
            let mut second = TestCase::shared(case.statements[(mid - overlap)..].to_vec());
            fix_case(&mut second, &mut self.rng);
            self.pool.add(Arc::new(first), mid + overlap);
            self.pool.add(Arc::new(second), case.len() - mid + overlap);
        }
        if self.cfg.sequence_oriented {
            // Algorithm 2 on the interesting case, then Algorithm 3 for the
            // new affinities it produced.
            let mut new_affs = self.affinities.analyze(case);
            if self.cfg.nonadjacent_affinities {
                // Future-work §VI model: types one statement apart are also
                // chronologically related.
                let seq = case.type_sequence();
                for w in seq.windows(3) {
                    if w[0] != w[2] && self.affinities.insert(w[0], w[2]) {
                        new_affs.push((w[0], w[2]));
                    }
                }
            }
            self.stats.affinities_found = self.affinities.len();
            if self.tel.enabled() {
                for &(t1, t2) in &new_affs {
                    self.tel.emit(|| Event::AffinityDiscovered { t1: t1.name(), t2: t2.name() });
                }
            }
            if !new_affs.is_empty() {
                self.synthesize_for(&new_affs);
            }
        }
        // Backlog gauge for live monitoring: pending cases + queued
        // synthesis jobs. Interesting cases are rare, so this stays off the
        // per-exec hot path.
        self.tel.set_queue_depth((self.queue.len() + self.synth_queue.len()) as u64);
    }

    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        if !self.cfg.rule_cov || new_rule_edges == 0 {
            return;
        }
        // The campaign calls `feedback` (with `new_coverage = true`) before
        // this, so the case is the pool's newest seed: make it win more
        // best-of-two scheduling draws.
        self.stats.rule_boosted += 1;
        self.pool.boost_newest();
        if self.cfg.sequence_oriented {
            // Affinity bonus: a case that unlocked new grammar productions
            // earns the gap-1 pair treatment normally reserved for the
            // `nonadjacent_affinities` mode, feeding extra sequences to
            // Algorithm 3.
            let seq = case.type_sequence();
            let mut new_affs = Vec::new();
            for w in seq.windows(3) {
                if w[0] != w[2] && self.affinities.insert(w[0], w[2]) {
                    new_affs.push((w[0], w[2]));
                }
            }
            if !new_affs.is_empty() {
                self.stats.affinities_found = self.affinities.len();
                if self.tel.enabled() {
                    for &(t1, t2) in &new_affs {
                        self.tel
                            .emit(|| Event::AffinityDiscovered { t1: t1.name(), t2: t2.name() });
                    }
                }
                self.synthesize_for(&new_affs);
            }
        }
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        // `Arc` bumps over the retained seeds — the old implementation
        // deep-cloned every AST in the pool on each call.
        self.pool.cases().cloned().collect()
    }

    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// `with_corpus` used to build the engine with the built-in corpus,
    /// clear the queue and queue the given corpus and the special pack; its
    /// queue and RNG are still what that path gave.
    #[test]
    fn with_corpus_queues_what_replacing_the_built_in_corpus_gave() {
        let corpus = || {
            ["CREATE TABLE t (a INT);\nSELECT a FROM t;", "BEGIN;\nCOMMIT;"]
                .map(|s| lego_sqlparser::parse_script(s).unwrap())
                .to_vec()
        };
        let queued = |fz: &LegoFuzzer| -> Vec<(TestCase, Origin)> {
            fz.queue.iter().map(|p| ((*p.case).clone(), p.origin)).collect()
        };
        for dialect in Dialect::ALL {
            for rule_cov in [false, true] {
                let cfg = Config { rule_cov, ..Config::default() };
                let mut old = LegoFuzzer::new(dialect, cfg.clone());
                old.queue.clear();
                let pack =
                    if rule_cov { crate::special::special_templates(dialect) } else { vec![] };
                for case in corpus().into_iter().chain(pack) {
                    old.queue.push_back(Pending { case: Arc::new(case), origin: Origin::Seed });
                }
                let mut new = LegoFuzzer::with_corpus(dialect, cfg, corpus());
                assert_eq!(queued(&new), queued(&old), "{dialect:?}, rule_cov {rule_cov}");
                assert_eq!(new.kinds, old.kinds);
                assert_eq!(new.rng.gen::<u64>(), old.rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn lego_produces_cases_immediately() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let case = fz.next_case();
        assert!(!case.is_empty());
    }

    #[test]
    fn feedback_with_new_coverage_grows_pool_and_affinities() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let case = fz.next_case();
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let report = db.execute_case(&case);
        fz.feedback(&case, &report, true);
        assert_eq!(fz.corpus().len(), 1);
        assert!(fz.affinity_count() > 0);
    }

    #[test]
    fn lego_minus_never_analyzes_affinities() {
        let mut fz = LegoFuzzer::lego_minus(Dialect::Postgres, Config::default());
        assert_eq!(fz.name(), "LEGO-");
        let case = fz.next_case();
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let report = db.execute_case(&case);
        fz.feedback(&case, &report, true);
        assert_eq!(fz.affinity_count(), 0);
        assert_eq!(fz.stats.sequences_synthesized, 0);
    }

    #[test]
    fn sequence_mutants_change_the_type_sequence() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let seed = initial_corpus(Dialect::Postgres)[0].clone();
        let mutants = fz.sequence_mutants(&seed);
        assert!(!mutants.is_empty());
        let changed =
            mutants.iter().filter(|(m, _)| m.type_sequence() != seed.type_sequence()).count();
        assert!(changed * 10 >= mutants.len() * 9, "{changed}/{}", mutants.len());
    }

    /// `sequence_mutants` as it was before mutants were spliced from the
    /// borrowed seed: a copy of the whole seed per mutant, edited in place,
    /// and the prefix schema rebuilt at every position.
    fn reference_sequence_mutants(fz: &mut LegoFuzzer, seed: &TestCase) -> Vec<(TestCase, Origin)> {
        let mut out = Vec::new();
        let n = seed.statements.len().min(12);
        let dep_graph =
            if fz.cfg.sema { Some(lego_sqlsema::DepGraph::build(&seed.statements)) } else { None };
        for i in 0..n {
            let schema = SchemaModel::of_statements(&seed.statements[..i]);
            {
                let current = seed.statements[i].kind();
                let kind = fz.random_kind(Some(current));
                let stmt = gen_statement(kind, &schema, fz.dialect, &mut fz.rng);
                let mut q1 = seed.clone();
                q1.statements[i] = Arc::new(stmt);
                fix_case(&mut q1, &mut fz.rng);
                if fz.cfg.sema {
                    sema_repair(&mut q1, fz.dialect);
                }
                out.push((q1, Origin::Substitution));
            }
            if fz.cfg.sequence_oriented && seed.statements.len() < fz.cfg.max_case_len {
                let kind = fz.random_kind(None);
                let stmt = gen_statement(kind, &schema, fz.dialect, &mut fz.rng);
                let mut q2 = seed.clone();
                q2.statements.insert(i + 1, Arc::new(stmt));
                fix_case(&mut q2, &mut fz.rng);
                if fz.cfg.sema {
                    sema_repair(&mut q2, fz.dialect);
                }
                out.push((q2, Origin::Insertion));
            }
            if seed.statements.len() > 1 {
                let mut q3 = seed.clone();
                q3.statements.remove(i);
                fix_case(&mut q3, &mut fz.rng);
                if let Some(graph) = &dep_graph {
                    let order: Vec<usize> =
                        (0..seed.statements.len()).filter(|&j| j != i).collect();
                    if !graph.order_satisfied(&order) {
                        sema_repair(&mut q3, fz.dialect);
                    }
                }
                out.push((q3, Origin::Deletion));
            }
        }
        out
    }

    #[test]
    fn sequence_mutants_match_the_clone_based_reference_on_generated_cases() {
        // LEGO, LEGO- (no insertion) and `--sema` (dependency repair), with
        // the affinities of the generated cases steering `random_kind`.
        let configs = [
            Config::default(),
            Config { sequence_oriented: false, ..Config::default() },
            Config { sema: true, ..Config::default() },
        ];
        for dialect in Dialect::ALL {
            let cases = crate::testutil::generated_cases(dialect);
            for cfg in &configs {
                let mut fz = LegoFuzzer::new(dialect, cfg.clone());
                for case in cases.iter().take(200) {
                    fz.affinities.analyze(case);
                }
                for (n, case) in cases.iter().enumerate() {
                    fz.rng = SmallRng::seed_from_u64(n as u64);
                    let new = fz.sequence_mutants(case);
                    let new_next: u64 = fz.rng.gen();
                    fz.rng = SmallRng::seed_from_u64(n as u64);
                    let old = reference_sequence_mutants(&mut fz, case);
                    let old_next: u64 = fz.rng.gen();
                    let what = format!("{dialect:?} {cfg:?} case {n}: {}", case.to_sql());
                    assert_eq!(new, old, "{what}");
                    assert_eq!(new_next, old_next, "{what}");
                }
            }
        }
    }

    #[test]
    fn mutants_share_the_statements_they_keep_with_the_seed() {
        // No literals, so the data refill never rewrites a kept statement,
        // and every name resolves, so the validator rewrites one only where
        // the new or deleted statement changed what it refers to. A kept
        // statement is then the seed's own `Arc`, or a rewritten copy.
        let seed = lego_sqlparser::parse_script(
            "CREATE TABLE t (a INT, b INT); CREATE TABLE u (c INT); SELECT a, b FROM t; \
             SELECT c FROM u WHERE c IS NULL; UPDATE t SET a = b; DELETE FROM u;",
        )
        .unwrap();
        let (mut kept, mut shared) = (0usize, 0usize);
        for cfg in [Config::default(), Config { sequence_oriented: false, ..Config::default() }] {
            let mut fz = LegoFuzzer::new(Dialect::Postgres, cfg);
            for n in 0..200 {
                fz.rng = SmallRng::seed_from_u64(n);
                let mut mutants = fz.sequence_mutants(&seed).into_iter();
                for i in 0..seed.len() {
                    let mut expect = |origin: Origin, at: usize, shift: isize| {
                        let (mutant, got) = mutants.next().expect("a mutant");
                        assert_eq!(got, origin);
                        for (j, stmt) in seed.statements.iter().enumerate() {
                            let k = match j.cmp(&at) {
                                Ordering::Less => j,
                                Ordering::Equal if shift <= 0 => continue,
                                _ => j.wrapping_add_signed(shift),
                            };
                            let copy = &mutant.statements[k];
                            kept += 1;
                            if Arc::ptr_eq(copy, stmt) {
                                shared += 1;
                            } else {
                                assert!(j > at || j == at && shift > 0, "{origin:?} at {at}");
                                assert_ne!(copy, stmt, "{origin:?} at {at}: an unchanged copy");
                            }
                        }
                    };
                    expect(Origin::Substitution, i, 0);
                    if fz.cfg.sequence_oriented {
                        expect(Origin::Insertion, i + 1, 1);
                    }
                    expect(Origin::Deletion, i, -1);
                }
                assert!(mutants.next().is_none());
            }
        }
        // 27,960 of 31,200 when written.
        assert!(shared * 5 > kept * 4, "{shared} of {kept} kept statements shared");
    }

    #[test]
    fn long_seeds_are_split_into_overlapping_halves() {
        let cfg = Config { max_case_len: 4, ..Config::default() };
        let mut fz = LegoFuzzer::new(Dialect::Postgres, cfg);
        let case = Arc::new(
            lego_sqlparser::parse_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;              UPDATE t SET a = 2; DELETE FROM t; SELECT 1;",
            )
            .unwrap(),
        );
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let report = db.execute_case(&case);
        fz.feedback(&case, &report, true);
        // Original + two halves.
        assert_eq!(fz.corpus().len(), 3);
        assert!(fz.corpus().iter().skip(1).all(|c| c.len() < case.len()));
    }

    #[test]
    fn nonadjacent_affinities_extension_records_gap_pairs() {
        let cfg = Config { nonadjacent_affinities: true, ..Config::default() };
        let mut fz = LegoFuzzer::new(Dialect::Postgres, cfg);
        let case = Arc::new(
            lego_sqlparser::parse_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
            )
            .unwrap(),
        );
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let report = db.execute_case(&case);
        fz.feedback(&case, &report, true);
        // Adjacent pairs (CT,INS), (INS,SEL) plus the gap pair (CT,SEL).
        assert_eq!(fz.affinity_count(), 3);
    }

    #[test]
    fn synthesis_is_triggered_by_new_affinities() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        // Feed it an interesting case with a novel pair.
        let case = Arc::new(
            lego_sqlparser::parse_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;",
            )
            .unwrap(),
        );
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let report = db.execute_case(&case);
        fz.feedback(&case, &report, true);
        assert!(fz.stats.sequences_synthesized > 0);
        // The discovering case itself covered its own n-grams, so direct
        // re-instantiations are filtered; a second case with different pairs
        // unlocks *combination* sequences, which must be instantiated.
        let case2 = Arc::new(
            lego_sqlparser::parse_script(
                "CREATE TABLE u (b INT); SELECT * FROM u; INSERT INTO u VALUES (2); DELETE FROM u;",
            )
            .unwrap(),
        );
        let mut db2 = lego_dbms::Dbms::new(Dialect::Postgres);
        let report2 = db2.execute_case(&case2);
        fz.feedback(&case2, &report2, true);
        // Feedback only *queues* jobs — AST instantiation is deferred to
        // schedule time, so sequences the budget never reaches cost nothing.
        assert!(!fz.synth_queue.is_empty());
        assert_eq!(fz.stats.cases_instantiated, 0);
        for _ in 0..9 {
            let _ = fz.next_case();
        }
        assert!(fz.stats.cases_instantiated > 0);
    }

    /// Drive `fz` for `n` cases against a live engine with real coverage
    /// feedback, returning the SQL of every case scheduled.
    fn drive(
        fz: &mut LegoFuzzer,
        db: &mut lego_dbms::Dbms,
        global: &mut lego_coverage::GlobalCoverage,
        n: usize,
    ) -> Vec<String> {
        let mut sqls = Vec::with_capacity(n);
        for _ in 0..n {
            let case = fz.next_case();
            db.reset();
            let report = db.execute_case(&case);
            let new_coverage = global.merge(&report.coverage);
            fz.feedback(&case, &report, new_coverage);
            sqls.push(case.to_sql());
        }
        sqls
    }

    #[test]
    fn checkpoint_restore_resumes_identical_case_stream() {
        let cfg = Config::default();
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let mut global = lego_coverage::GlobalCoverage::new();

        // Run a warm-up burst so the pool, affinity map, sequence store, AST
        // library, and both queues all carry non-trivial state.
        let mut fz = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
        drive(&mut fz, &mut db, &mut global, 60);
        let snapshot = fz.checkpoint().expect("LEGO supports checkpointing");

        // Continue the original engine...
        let mut db_a = lego_dbms::Dbms::new(Dialect::Postgres);
        let mut global_a = lego_coverage::GlobalCoverage::from_sparse(&global.to_sparse());
        let ahead = drive(&mut fz, &mut db_a, &mut global_a, 30);

        // ...and a fresh engine restored from the snapshot, with a clone of
        // the coverage map as it stood at the checkpoint.
        let mut fresh = LegoFuzzer::new(Dialect::Postgres, cfg);
        fresh.restore(&snapshot).expect("restore");
        let mut db_b = lego_dbms::Dbms::new(Dialect::Postgres);
        let mut global_b = lego_coverage::GlobalCoverage::from_sparse(&global.to_sparse());
        let resumed = drive(&mut fresh, &mut db_b, &mut global_b, 30);

        assert_eq!(ahead, resumed, "resumed engine must replay the exact case stream");
    }

    #[test]
    fn checkpoint_is_idempotent_after_restore() {
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let mut global = lego_coverage::GlobalCoverage::new();
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        drive(&mut fz, &mut db, &mut global, 40);
        let snap_a = fz.checkpoint().unwrap();

        let mut twin = LegoFuzzer::new(Dialect::Postgres, Config::default());
        twin.restore(&snap_a).expect("restore");
        // Both engines now hold identical state *and* identically-reseeded
        // RNGs, so their next snapshots must agree byte-for-byte.
        let snap_b = twin.checkpoint().unwrap();
        let snap_c = fz.checkpoint().unwrap();
        assert_eq!(snap_b, snap_c);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let snap = fz.checkpoint().unwrap();
        let other_cfg = Config { rng_seed: Config::default().rng_seed ^ 1, ..Config::default() };
        let mut other = LegoFuzzer::new(Dialect::Postgres, other_cfg);
        let err = other.restore(&snap).unwrap_err();
        assert!(err.contains("config"), "unexpected error: {err}");
    }
}
