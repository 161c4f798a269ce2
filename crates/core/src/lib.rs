#![forbid(unsafe_code)]

//! `lego` — the sequence-oriented DBMS fuzzer of *Sequence-Oriented DBMS
//! Fuzzing* (ICDE 2023), reproduced in Rust.
//!
//! The pipeline (paper Figure 4):
//!
//! 1. **Proactive affinity analysis** — pick a seed from the pool, apply
//!    [sequence-oriented mutations](fuzzer) (Algorithm 1: substitution,
//!    insertion, deletion), and for every mutant that covers new branches,
//!    extract its [type-affinities](affinity) (Algorithm 2).
//! 2. **Progressive sequence synthesis** — for every *new* affinity,
//!    [synthesize](synthesis) all new SQL Type Sequences containing it up to
//!    length `LEN` (Algorithm 3, via the Prefix Sequence index), and
//!    [instantiate](instantiate/index.html) each sequence into executable test cases
//!    from the AST-structure library with dependency fixing and data refill.
//!
//! The [campaign] module provides the engine-agnostic harness used to
//! compare LEGO with the baseline fuzzers on identical terms. A
//! [`CampaignSpec`] says what to run — dialect, budget, workers, oracles,
//! checkpoints, rule coverage, the static analyzer — and [`run`] runs it
//! on engines built by a factory, one per worker ([`run_engine`] runs one
//! engine the caller keeps). [`run_campaign`] is the serial campaign with
//! every optional layer off.
//!
//! ```
//! use lego::prelude::*;
//!
//! let mut fuzzer = LegoFuzzer::new(Dialect::Postgres, Config::default());
//! let stats = run_campaign(&mut fuzzer, Dialect::Postgres, Budget::execs(200));
//! assert!(stats.branches > 0);
//!
//! // The same budget over two workers, with the correctness oracles on.
//! let spec = CampaignSpec {
//!     parallel: ParallelOpts { workers: 2, ..ParallelOpts::default() },
//!     oracles: lego::OracleConfig::all(),
//!     ..CampaignSpec::new(Dialect::Postgres, Budget::execs(200))
//! };
//! let stats = lego::run(&spec, &lego::observe::Telemetry::disabled(), |w| {
//!     let cfg = Config { rng_seed: 7 ^ w as u64, ..Config::default() };
//!     Box::new(LegoFuzzer::new(Dialect::Postgres, cfg))
//! })
//! .expect("a campaign without checkpoints cannot fail");
//! assert_eq!(stats.workers, 2);
//! ```

pub mod affinity;
pub mod campaign;
pub mod checkpoint;
mod checks;
pub mod corpus_io;
pub mod fuzzer;
pub mod gen;
pub mod instantiate;
pub mod mutation;
pub mod ngram;
pub mod pool;
pub mod reduce;
pub mod seeds;
pub mod special;
pub mod synthesis;

pub use affinity::AffinityMap;
pub use campaign::{
    run, run_campaign, run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine,
    LogicBugFinding, ParallelOpts, SEMA_AUDIT_EVERY,
};
pub use checkpoint::{load_campaign_checkpoint, CheckpointCfg};
pub use fuzzer::{Config, LegoFuzzer};
pub use lego_observe as observe;
pub use lego_oracle as oracle;
pub use lego_oracle::{LogicBug, OracleConfig};
pub use reduce::reduce_case;
pub use synthesis::SequenceStore;

/// Commonly used items.
pub mod prelude {
    pub use crate::affinity::AffinityMap;
    pub use crate::campaign::{
        run_campaign, run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine, ParallelOpts,
    };
    pub use crate::fuzzer::{Config, LegoFuzzer};
    pub use lego_sqlast::{Dialect, StmtKind, TestCase};
}
