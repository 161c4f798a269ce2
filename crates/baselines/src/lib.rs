#![forbid(unsafe_code)]

//! Re-implementations of the baseline fuzzers' *generation policies*
//! (paper § V): SQLancer (rule-based templates, SELECT-centric probes),
//! SQLsmith (grammar-random single SELECT statements against an existing
//! schema), and SQUIRREL (coverage-guided structure/data mutation that never
//! changes the SQL Type Sequence). All run under the same campaign harness
//! as LEGO, so the comparison isolates exactly the input-space policy.

pub mod sqlancer;
pub mod sqlsmith;
pub mod squirrel;

pub use sqlancer::SqlancerFuzzer;
pub use sqlsmith::SqlsmithFuzzer;
pub use squirrel::SquirrelFuzzer;

use lego::campaign::FuzzEngine;
use lego::fuzzer::{Config, LegoFuzzer};
use lego_sqlast::Dialect;

/// The names [`engine_by_name`] accepts.
pub const ENGINE_NAMES: [&str; 5] = ["LEGO", "LEGO-", "SQUIRREL", "SQLancer", "SQLsmith"];

/// Construct any evaluated engine by name (used by the experiment binaries).
///
/// `name` must be one of [`ENGINE_NAMES`]. The box is `Send` so it can serve
/// as a worker shard in `lego::campaign::run`.
pub fn engine_by_name(name: &str, dialect: Dialect, rng_seed: u64) -> Box<dyn FuzzEngine + Send> {
    let cfg = Config { rng_seed, ..Config::default() };
    match name {
        "LEGO" => Box::new(LegoFuzzer::new(dialect, cfg)),
        "LEGO-" => Box::new(LegoFuzzer::lego_minus(dialect, cfg)),
        "SQUIRREL" => Box::new(SquirrelFuzzer::new(dialect, rng_seed)),
        "SQLancer" => Box::new(SqlancerFuzzer::new(dialect, rng_seed)),
        "SQLsmith" => Box::new(SqlsmithFuzzer::new(dialect, rng_seed)),
        other => panic!("unknown fuzzer {other}"),
    }
}
