//! Firing a trigger or a rule shares its definition instead of copying it.
//!
//! A counting allocator measures one INSERT into a table whose trigger (or
//! rule) runs `DELETE FROM u WHERE <terms>` on an empty `u`, so the WHERE is
//! never evaluated: the INSERT must cost as many allocations with one term
//! as with twenty. A copy of the definition per firing costs one allocation
//! or more per term.

use lego_dbms::Dbms;
use lego_sqlast::{Dialect, TestCase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts, per thread, the calls that hand out memory.
struct CountingAlloc;

fn count_alloc() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// const-initialised thread-local integer, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// INSERTs each case measures; the first case of the same INSERTs warms
/// the engine's buffers up.
const INSERTS: usize = 10;

/// Allocations per INSERT into `t` after `setup`, whose `{action}` is
/// replaced by `DELETE FROM u WHERE <terms>`.
fn allocs_per_insert(dialect: Dialect, setup: &str, terms: usize) -> f64 {
    let where_: Vec<String> = (0..terms).map(|i| format!("b = {i}")).collect();
    let action = format!("DELETE FROM u WHERE {}", where_.join(" OR "));
    let parse = |sql: &str| lego_sqlparser::parse_script(sql).expect("the script parses");
    let mut db = Dbms::new(dialect);
    let report = db.execute_case(&parse(&setup.replace("{action}", &action)));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let inserts: TestCase = parse(&"INSERT INTO t VALUES (1);\n".repeat(INSERTS));
    let warm_up = db.execute_case(&inserts);
    assert!(warm_up.errors.is_empty(), "{:?}", warm_up.errors);
    db.recycle(warm_up.coverage);
    let before = ALLOCS.with(Cell::get);
    let report = db.execute_case(&inserts);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    db.recycle(report.coverage);
    allocs as f64 / INSERTS as f64
}

#[test]
fn a_trigger_fires_without_copying_its_definition() {
    let setup = "CREATE TABLE t (a INT); CREATE TABLE u (b INT);\n\
                 CREATE TRIGGER tg BEFORE INSERT ON t FOR EACH ROW {action};";
    let one = allocs_per_insert(Dialect::MariaDb, setup, 1);
    let twenty = allocs_per_insert(Dialect::MariaDb, setup, 20);
    assert_eq!(one, twenty, "allocations per INSERT with 1 and 20 terms");
}

#[test]
fn a_rule_fires_without_copying_its_definition() {
    let setup = "CREATE TABLE t (a INT); CREATE TABLE u (b INT);\n\
                 CREATE RULE r AS ON INSERT TO t DO {action};";
    let one = allocs_per_insert(Dialect::Postgres, setup, 1);
    let twenty = allocs_per_insert(Dialect::Postgres, setup, 20);
    assert_eq!(one, twenty, "allocations per INSERT with 1 and 20 terms");
}
