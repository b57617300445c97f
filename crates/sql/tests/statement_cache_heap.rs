//! The statement cache's byte budget, measured: a counting global
//! allocator tracks the live heap while one runtime answers a hostile
//! stream — 10 000 distinct queries whose compiled form is heavy for
//! their text, a fifth of them near the per-entry cap, and 64 valid
//! queries of about a mebibyte each. The heap a run of
//! reads leaves behind is the cache's, and it must never pass
//! `BUDGET_BYTES`; every reply must equal the uncached `run_query`.
//!
//! One test in this binary: the allocator counts every thread's heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use balg_core::eval::Limits;
use balg_sql::cache::{BUDGET_BYTES, CAPACITY};
use balg_sql::prelude::{database_from_rows, run_query, Catalog, Response, SqlRuntime, SqlValue};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Statement `i` of the stream: shapes whose compiled form is heavy for
/// its text (long literals, set-operation chains, conjunctions, `AVG`).
fn statement(i: usize) -> String {
    match i % 5 {
        0 => format!(
            "SELECT * FROM a WHERE s = '{i}{}'",
            "x".repeat(1400 + i * 7919 % 400)
        ),
        1 => {
            let rest = " UNION SELECT SUM(n) FROM a".repeat(1 + i % 8);
            format!("SELECT SUM(n) FROM a WHERE n >= {i}{rest}")
        }
        2 => {
            let conjuncts: Vec<String> = (0..=i % 12).map(|j| format!("n >= {}", i + j)).collect();
            format!("SELECT s FROM a WHERE {}", conjuncts.join(" AND "))
        }
        3 => format!("SELECT AVG(n) FROM a WHERE n <= {i}"),
        _ => format!("SELECT s, n FROM a WHERE n = {i}"),
    }
}

#[test]
fn the_cache_heap_stays_under_its_budget() {
    let catalog = Catalog::new().with_table("a", &[("s", false), ("n", true)]);
    let rows = vec![
        vec![SqlValue::Str("s1".into()), SqlValue::Int(1)],
        vec![SqlValue::Str("s2".into()), SqlValue::Int(2)],
    ];
    let db = database_from_rows(&catalog, &[("a", rows)]).unwrap();
    let mut rt = SqlRuntime::new(catalog.clone(), db.clone());
    let mut answer = |line: &str| {
        let cached = rt.execute(line).map(|r| r.to_string());
        let direct = run_query(line, &catalog, &db, Limits::default())
            .map(|r| Response::Rows(r).to_string());
        assert_eq!(
            cached.map_err(|e| e.to_string()),
            direct.map_err(|e| e.to_string()),
            "{line:.80}"
        );
    };
    let large = |i: usize| {
        if i.is_multiple_of(2) {
            format!("SELECT * FROM a WHERE s = '{i}{}'", "x".repeat(1 << 20))
        } else {
            format!("SELECT * FROM a{}WHERE n = {i}", " ".repeat(1 << 20))
        }
    };
    // Whatever the first evaluation sets up once is not the cache's.
    answer(&large(64));
    let baseline = LIVE.load(Ordering::Relaxed);
    let mut peak = 0;
    for i in 0..10_000 {
        if i < 64 {
            answer(&large(i));
        }
        answer(&statement(i));
        let live = LIVE.load(Ordering::Relaxed) - baseline;
        assert!(
            live <= BUDGET_BYTES as isize,
            "after statement {i}: {live} bytes live, budget {BUDGET_BYTES}"
        );
        peak = peak.max(live);
    }
    assert_eq!(rt.statements().len(), CAPACITY);
    // The stream did press on the bound: the cache holds more than a
    // third of the budget.
    assert!(peak > BUDGET_BYTES as isize / 3, "peak {peak} bytes");
    eprintln!(
        "{} entries, {peak} bytes at the peak, {} bytes per entry, budget {BUDGET_BYTES}",
        CAPACITY,
        peak / CAPACITY as isize
    );
}
