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
use crate::checkpoint::CHECKPOINT_VERSION;
use crate::gen::{gen_statement, SchemaModel};
use crate::instantiate::{fix_case, instantiate, AstLibrary};
use crate::mutation::{conventional_mutate_stacked, sema_repair};
use crate::ngram::{gram2_at, gram3_at, pack2, pack3, seq_len, unpack_seq, NgramSet};
use crate::pool::SeedPool;
use crate::seeds::initial_corpus;
use crate::synthesis::{plausible_key, SequenceStore};
use lego_dbms::ExecReport;
use lego_observe::{Event, MutOp, Stage, Telemetry};
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

/// One synthesis-queue slot: a synthesized sequence and the copies still to
/// instantiate from it. Instantiation is deferred to schedule time, so a
/// dropped or superseded sequence costs nothing and the novelty filter gets
/// a second look with the n-grams executed since enqueue.
struct SynthJob {
    seq: Vec<StmtKind>,
    left: usize,
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
        let starters: Vec<StmtKind> =
            dialect.supported_kinds().into_iter().filter(|k| k.is_sequence_starter()).collect();
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
            kinds: dialect.supported_kinds(),
            executed_ngrams: NgramSet::new(),
            pending_origin: Origin::Seed,
            tel: Telemetry::disabled(),
            stats: LegoStats::default(),
            cfg,
        };
        for case in initial_corpus(dialect) {
            fz.queue.push_back(Pending { case: Arc::new(case), origin: Origin::Seed });
        }
        fz.push_special_pack();
        fz
    }

    /// Queue the dialect "special features" templates (rule-coverage mode
    /// only). They ride behind the mundane corpus so the baseline seeds
    /// still execute first.
    fn push_special_pack(&mut self) {
        if !self.cfg.rule_cov {
            return;
        }
        for case in crate::special::special_templates(self.dialect) {
            self.queue.push_back(Pending { case: Arc::new(case), origin: Origin::Seed });
        }
    }

    /// Convenience constructor for the LEGO- ablation (§ V-D).
    pub fn lego_minus(dialect: Dialect, mut cfg: Config) -> Self {
        cfg.sequence_oriented = false;
        Self::new(dialect, cfg)
    }

    /// Start from a caller-supplied seed corpus instead of the built-in one
    /// (e.g. a corpus reloaded via [`crate::corpus_io::load_corpus`]).
    pub fn with_corpus(dialect: Dialect, cfg: Config, corpus: Vec<TestCase>) -> Self {
        let mut fz = Self::new(dialect, cfg);
        fz.queue.clear();
        for case in corpus {
            fz.queue.push_back(Pending { case: Arc::new(case), origin: Origin::Seed });
        }
        fz.push_special_pack();
        fz
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
    /// for the ones that hit new branches.)
    fn sequence_mutants(&mut self, seed: &TestCase) -> Vec<(TestCase, Origin)> {
        let mut out = Vec::new();
        let n = seed.statements.len().min(12);
        // Under `--sema`, deletion consults the seed's def-use graph so a
        // removal that severs a live dependency edge gets its dangling
        // references repaired instead of shipping a provably-dead case.
        // Built once per seed; `None` off-path so the sema-less RNG stream
        // and mutant set stay byte-identical.
        let dep_graph = if self.cfg.sema {
            Some(lego_sqlsema::DepGraph::build(&seed.statements))
        } else {
            None
        };
        for i in 0..n {
            let schema = SchemaModel::of_statements(&seed.statements[..i]);
            // Substitution.
            {
                let current = seed.statements[i].kind();
                let kind = self.random_kind(Some(current));
                let stmt = gen_statement(kind, &schema, self.dialect, &mut self.rng);
                let mut q1 = seed.clone();
                q1.statements[i] = stmt;
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
            if self.cfg.sequence_oriented && seed.statements.len() < self.cfg.max_case_len {
                let kind = self.random_kind(None);
                let stmt = gen_statement(kind, &schema, self.dialect, &mut self.rng);
                let mut q2 = seed.clone();
                q2.statements.insert(i + 1, stmt);
                fix_case(&mut q2, &mut self.rng);
                if self.cfg.sema {
                    sema_repair(&mut q2, self.dialect);
                }
                out.push((q2, Origin::Insertion));
            }
            // Deletion.
            if seed.statements.len() > 1 {
                let mut q3 = seed.clone();
                q3.statements.remove(i);
                fix_case(&mut q3, &mut self.rng);
                if let Some(graph) = &dep_graph {
                    let order: Vec<usize> =
                        (0..seed.statements.len()).filter(|&j| j != i).collect();
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
                Arc::new(initial_corpus(self.dialect)[0].clone())
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
                // 2-gram or 3-gram never executed before; the rest re-cover
                // known interactions and are skipped to keep seeds cheap
                // (§ II C3). The probes read n-gram keys straight out of the
                // packed sequence — no decode on the skip path.
                let len = seq_len(key);
                let has_new_pair =
                    (0..len - 1).any(|i| !self.executed_ngrams.contains(gram2_at(key, i)));
                let has_new_ngram = has_new_pair
                    || (len >= 3
                        && (0..len - 2).any(|i| !self.executed_ngrams.contains(gram3_at(key, i))));
                if !has_new_ngram {
                    self.stats.sequences_skipped_covered += 1;
                    continue;
                }
                if self.synth_queue.len() >= QUEUE_CAP {
                    self.stats.queue_dropped += 1;
                    continue;
                }
                // New pairs justify multiple structural variations; new
                // triples over known pairs get one shot.
                let left = if has_new_pair { INSTANTIATIONS_PER_SEQ } else { 1 };
                scheduled += left as u64;
                self.synth_queue.push_back(SynthJob { seq: unpack_seq(key), left });
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
            let SynthJob { seq, left } = self.synth_queue.front_mut()?;
            let still_new = seq
                .windows(2)
                .any(|w| !self.executed_ngrams.contains(pack2(w[0], w[1])))
                || seq.windows(3).any(|w| !self.executed_ngrams.contains(pack3(w[0], w[1], w[2])));
            if !still_new {
                self.stats.sequences_skipped_covered += 1;
                self.synth_queue.pop_front();
                continue;
            }
            let case = instantiate(seq, &self.library, self.dialect, &mut self.rng);
            self.stats.cases_instantiated += 1;
            *left -= 1;
            if *left == 0 {
                self.synth_queue.pop_front();
            }
            return Some(Pending { case: Arc::new(case), origin: Origin::Synthesized });
        }
    }
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

fn stmt_to_sql(stmt: &lego_sqlast::ast::Statement) -> String {
    TestCase::new(vec![stmt.clone()]).to_sql()
}

fn parse_case(sql: &str) -> Result<TestCase, String> {
    lego_sqlparser::parse_script(sql).map_err(|e| format!("checkpointed case re-parse: {e:?}"))
}

fn parse_stmt(sql: &str) -> Result<lego_sqlast::ast::Statement, String> {
    let mut case = parse_case(sql)?;
    if case.statements.len() != 1 {
        return Err(format!("expected one statement, got {}", case.statements.len()));
    }
    Ok(case.statements.remove(0))
}

fn kind_from_code(code: u64) -> Result<StmtKind, String> {
    u16::try_from(code)
        .ok()
        .and_then(StmtKind::from_code)
        .ok_or_else(|| format!("unknown statement-kind code {code}"))
}

fn pending_out(q: &VecDeque<Pending>) -> Vec<PendingCk> {
    q.iter()
        .map(|p| PendingCk { sql: p.case.to_sql(), origin: p.origin.name().to_string() })
        .collect()
}

fn pending_in(v: &serde_json::Value, key: &str) -> Result<VecDeque<Pending>, String> {
    crate::checkpoint::get(v, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' must be an array"))?
        .iter()
        .map(|p| {
            Ok(Pending {
                case: Arc::new(parse_case(&crate::checkpoint::get_string(p, "sql")?)?),
                origin: Origin::from_name(&crate::checkpoint::get_string(p, "origin")?)?,
            })
        })
        .collect()
}

/// Parse a JSON array of kind codes.
fn codes_in(seq: &serde_json::Value) -> Result<Vec<StmtKind>, String> {
    seq.as_array()
        .ok_or("sequence must be an array")?
        .iter()
        .map(|c| kind_from_code(c.as_u64().ok_or("kind code must be an integer")?))
        .collect()
}

/// Parse a JSON array of arrays of kind codes.
fn code_seqs_in(v: &serde_json::Value, key: &str) -> Result<Vec<Vec<StmtKind>>, String> {
    crate::checkpoint::get(v, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' must be an array"))?
        .iter()
        .map(codes_in)
        .collect()
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
            queue: pending_out(&self.queue),
            synth_jobs: self
                .synth_queue
                .iter()
                .map(|j| JobCk { seq: j.seq.iter().map(|k| k.code()).collect(), left: j.left })
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

    /// Apply a parsed snapshot. `self` must have been constructed with the
    /// same dialect and config as the engine that produced it.
    fn apply_snapshot(&mut self, v: &serde_json::Value) -> Result<(), String> {
        use crate::checkpoint::{check_version, get, get_string, get_u64, get_usize};
        check_version(v).map_err(|e| format!("engine snapshot: {e}"))?;
        let name = get_string(v, "name")?;
        if name != self.name() {
            return Err(format!(
                "snapshot is for engine '{name}', this engine is '{}'",
                self.name()
            ));
        }
        let cfg = get_string(v, "cfg")?;
        let own_cfg = serde_json::to_string(&self.cfg).expect("config serialize");
        if cfg != own_cfg {
            return Err(format!(
                "snapshot config does not match this engine's config:\n  snapshot: {cfg}\n  engine:   {own_cfg}"
            ));
        }
        self.rng = SmallRng::seed_from_u64(get_u64(v, "rng_reseed")?);
        self.schedule_tick = get_usize(v, "schedule_tick")?;
        self.pending_origin = Origin::from_name(&get_string(v, "pending_origin")?)?;
        let seeds = get(v, "pool")?
            .as_array()
            .ok_or("field 'pool' must be an array")?
            .iter()
            .map(|s| {
                Ok((
                    parse_case(&get_string(s, "sql")?)?,
                    get_usize(s, "cost")?,
                    get_usize(s, "scheduled")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.pool = SeedPool::from_parts(seeds);
        self.affinities = AffinityMap::new();
        for (a, b) in crate::checkpoint::pairs_u64_usize(get(v, "affinities")?)? {
            self.affinities.insert(kind_from_code(a)?, kind_from_code(b as u64)?);
        }
        self.store = SequenceStore::from_parts(
            self.cfg.max_seq_len,
            code_seqs_in(v, "seqs")?,
            get_usize(v, "store_truncated")?,
        )?;
        let buckets = get(v, "library")?
            .as_array()
            .ok_or("field 'library' must be an array")?
            .iter()
            .map(|b| {
                let kind = kind_from_code(get_u64(b, "kind")?)?;
                let stmts = get(b, "stmts")?
                    .as_array()
                    .ok_or("field 'stmts' must be an array")?
                    .iter()
                    .map(|s| parse_stmt(s.as_str().ok_or("statement must be a string")?))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((kind, stmts))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let keys = get(v, "library_keys")?
            .as_array()
            .ok_or("field 'library_keys' must be an array")?
            .iter()
            .map(|k| k.as_u64().ok_or_else(|| "library key must be a u64".to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        self.library = AstLibrary::from_parts(buckets, keys);
        self.queue = pending_in(v, "queue")?;
        self.synth_queue = VecDeque::new();
        for job in get(v, "synth_jobs")?.as_array().ok_or("field 'synth_jobs' must be an array")? {
            let seq = codes_in(get(job, "seq")?)?;
            let left = get_usize(job, "left")?;
            if seq.len() < 2 || left == 0 {
                return Err("malformed synthesis job in snapshot".to_string());
            }
            self.synth_queue.push_back(SynthJob { seq, left });
        }
        self.executed_ngrams = NgramSet::new();
        for key in get(v, "executed_ngrams")?
            .as_array()
            .ok_or("field 'executed_ngrams' must be an array")?
        {
            let key = key.as_u64().ok_or("packed n-gram key must be a u64")?;
            // Validate against the alphabet: every embedded code must
            // decode, and re-packing must reproduce the key (rejects e.g. a
            // hole in the middle lane).
            let kinds = crate::ngram::unpack(key)
                .into_iter()
                .map(|c| kind_from_code(c as u64))
                .collect::<Result<Vec<_>, String>>()?;
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
        let stats = get(v, "stats")?.as_array().ok_or("field 'stats' must be an array")?;
        if stats.len() != 8 {
            return Err(format!("expected 8 stats counters, got {}", stats.len()));
        }
        let counter = |i: usize| -> Result<usize, String> {
            stats[i].as_usize().ok_or_else(|| "stats counter must be an integer".to_string())
        };
        self.stats = LegoStats {
            affinities_found: counter(0)?,
            sequences_synthesized: counter(1)?,
            cases_instantiated: counter(2)?,
            sequences_skipped_covered: counter(3)?,
            queue_dropped: counter(4)?,
            seq_mutants: counter(5)?,
            conventional_mutants: counter(6)?,
            rule_boosted: counter(7)?,
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
        let v = serde_json::from_str(snapshot)
            .map_err(|e| format!("engine snapshot is not valid JSON: {e}"))?;
        self.apply_snapshot(&v)
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
            let first = TestCase::new(case.statements[..(mid + overlap)].to_vec());
            let mut second = TestCase::new(case.statements[(mid - overlap)..].to_vec());
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
