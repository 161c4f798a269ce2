//! Test-only fault injection.
//!
//! The metamorphic oracles (`lego-oracle`) can only be integration-tested
//! against an engine that is actually wrong, the campaign supervisor's
//! panic-isolation/hang-guard paths against an engine that actually panics
//! or hangs, and the analyzer's conformance oracle against an analyzer that
//! is actually wrong. [`Faults`] names these fault classes:
//!
//! - **wrong result** — the `WHERE` filter drops the last qualifying row:
//!   the classic shape of an optimizer/scan bug that never crashes and never
//!   errors, exactly the class TLP and NoREC exist to catch;
//! - **engine panic** — `CREATE TRIGGER` panics, modelling an engine bug
//!   that tears down the worker thread rather than tripping the bug oracle;
//! - **engine hang** — `CREATE TRIGGER` spins, burning the per-case row
//!   budget until the hang guard aborts the case (the deterministic analogue
//!   of the paper's 23-minute SQUIRREL hang, § II-C3);
//! - **torn write** — every WAL sync acknowledges the last pending record
//!   without writing its bytes: a lost committed write, the durability bug
//!   shape the recovery oracle (`lego-oracle`) exists to catch;
//! - **analyzer over-acceptance** — the `lego-sqlsema` binder accepts
//!   `COMMIT` even when it has proven no transaction is open; the engine
//!   then rejects the statement and the conformance oracle must report it.
//!
//! A `Faults` value is owned by each instance it plants faults in, like
//! [`crate::Limits`]: a [`crate::Dbms`] ([`crate::Dbms::set_faults`], kept
//! across resets and handed to every WAL it attaches) and an analyzer
//! (`lego_sqlsema::Sema::set_faults`). A faulted instance never changes
//! another, so faulted and fault-free instances can run side by side in one
//! process. Everything is off by default.

/// The planted faults one instance carries; [`Faults::default`] is none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// A filtered scan loses its last qualifying row (wrong result).
    pub where_drops_last_row: bool,
    /// `CREATE TRIGGER` panics (engine panic).
    pub panic_on_create_trigger: bool,
    /// `CREATE TRIGGER` burns row budget until the case aborts (hang).
    pub spin_on_create_trigger: bool,
    /// Every WAL sync marks its last pending record durable but never
    /// writes its bytes (lost write).
    pub wal_drops_last_record: bool,
    /// The analyzer accepts `COMMIT` outside a transaction (analyzer bug).
    pub overaccept_commit: bool,
}
