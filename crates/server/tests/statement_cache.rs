//! The statement cache against the chain of public calls it replaces.
//!
//! Every reply that goes through the cache — first run, repeats, after a
//! write, after a `:table`, from a pinned snapshot — must be byte-equal to
//! `parse_statement` → `compile_query` → `Evaluator::eval_bag` →
//! `decode_result` run afresh over the same snapshot. Errors are never
//! cached, and no client input can grow a cache past its bounds.
//!
//! The hit and miss counters are process-global, so the tests here read
//! their deltas one test at a time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use balg_core::eval::{Evaluator, Limits};
use balg_server::prelude::{execute_read, Reply, SerialTwin, Snapshot};
use balg_sql::cache::CAPACITY;
use balg_sql::prelude::{
    compile_query, decode_result, parse_statement, Catalog, Response, Statement,
};
use proptest::prelude::*;

#[path = "../../../tests/sql_gen/mod.rs"]
mod sql_gen;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize the tests, with a metrics registry installed.
fn serial() -> MutexGuard<'static, ()> {
    balg_obs::install_global(balg_obs::MetricsRegistry::new());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(hits, misses)` so far.
fn counts() -> (u64, u64) {
    let registry = balg_obs::global().expect("installed by serial()");
    (
        registry
            .counter("balg_sql_statement_cache_hits_total", "")
            .get(),
        registry
            .counter("balg_sql_statement_cache_misses_total", "")
            .get(),
    )
}

/// Run `line` through the twin; return the reply and whether the cache
/// answered it (`Some(true)` a hit, `Some(false)` a miss, `None` when the
/// cache was not consulted).
fn counted(twin: &mut SerialTwin, line: &str) -> (Reply, Option<bool>) {
    let (hits, misses) = counts();
    let reply = twin.execute(line);
    let (hits_after, misses_after) = counts();
    let outcome = match (hits_after - hits, misses_after - misses) {
        (1, 0) => Some(true),
        (0, 1) => Some(false),
        (0, 0) => None,
        other => panic!("{line:?} counted {other:?}"),
    };
    (reply, outcome)
}

/// `execute_read` as its public calls, with no cache.
fn chain(snap: &Snapshot, line: &str) -> Reply {
    let query = match parse_statement(line.trim()) {
        Ok(Statement::Query(query)) => query,
        Ok(_) => return Reply::err("update statements must go through the writer"),
        Err(e) => return Reply::err(e.to_string()),
    };
    let compiled = match compile_query(&query, &snap.catalog) {
        Ok(compiled) => compiled,
        Err(e) => return Reply::err(e.to_string()),
    };
    let bag = match Evaluator::new(&snap.db, snap.limits.clone()).eval_bag(&compiled.expr) {
        Ok(bag) => bag,
        Err(e) => return Reply::err(e.to_string()),
    };
    match decode_result(&bag, compiled.output) {
        Ok(rows) => Reply::ok(Response::Rows(rows).to_string()),
        Err(e) => Reply::err(e.to_string()),
    }
}

fn twin(limits: Limits) -> SerialTwin {
    let catalog = sql_gen::catalog();
    let db = balg_sql::prelude::database_from_rows(&catalog, &[]).unwrap();
    SerialTwin::new(catalog, db, limits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each generated query, three times: a miss, then two hits (the last
    /// padded with whitespace, which the cache trims), each reply
    /// byte-equal to the uncached chain.
    #[test]
    fn generated_queries_miss_once_then_hit(case in sql_gen::case()) {
        let _serial = serial();
        let mut twin = SerialTwin::new(sql_gen::catalog(), sql_gen::database(&case), Limits::default());
        let (sql, _) = sql_gen::query(&case);
        let expected = chain(&twin.snapshot(), &sql);
        prop_assert!(expected.ok, "{}: {}", sql, expected.text);
        for (run, line) in [sql.clone(), sql.clone(), format!(" \t{sql}\n")].iter().enumerate() {
            let (reply, outcome) = counted(&mut twin, line);
            prop_assert_eq!(&reply, &expected, "{} run {}", sql, run);
            prop_assert_eq!(outcome, Some(run > 0), "{} run {}", sql, run);
        }
        prop_assert_eq!(twin.snapshot().statements.len(), 1);
    }
}

#[test]
fn errors_are_never_cached_and_reply_the_same_every_time() {
    let _serial = serial();
    let budget = Limits {
        max_bag_elements: 100,
        ..Limits::default()
    };
    let mut twin = twin(budget);
    let rows: String = (0..40)
        .map(|i| format!("('s{i}', {i})"))
        .collect::<Vec<_>>()
        .join(", ");
    assert!(twin.execute(&format!("INSERT INTO a VALUES {rows}")).ok);
    assert!(twin.execute(&format!("INSERT INTO b VALUES {rows}")).ok);
    // Compiles, then its product runs past the element budget.
    let over_budget = "SELECT * FROM a, b";
    let failing = [
        "SELECT FROM a",
        "SELECT * FROM a WHERE",
        "SELECT * FROM nope",
        "SELECT zz FROM a",
        "SELECT s FROM a, b",
        "SELECT * FROM a WHERE n = 'x'",
        over_budget,
    ];
    for line in failing {
        let expected = chain(&twin.snapshot(), line);
        assert!(!expected.ok, "{line:?} must fail: {}", expected.text);
        for run in 0..3 {
            let (reply, outcome) = counted(&mut twin, line);
            assert_eq!(reply, expected, "{line:?} run {run}");
            if line == over_budget {
                // The compile is kept; the error is built every time.
                assert_eq!(outcome, Some(run > 0), "{line:?} run {run}");
            } else {
                assert_eq!(outcome, Some(false), "{line:?} run {run}");
            }
        }
    }
    assert_eq!(twin.snapshot().statements.len(), 1);
    assert!(twin.snapshot().statements.contains(over_budget));
}

#[test]
fn writes_reuse_the_cache_and_are_never_cached() {
    let _serial = serial();
    let mut twin = twin(Limits::default());
    let select = "SELECT s FROM a WHERE n >= 1";
    let cache = Arc::clone(&twin.snapshot().statements);
    assert_eq!(counted(&mut twin, select).1, Some(false));
    let insert = "INSERT INTO a VALUES ('x', 1), ('y', 2)";
    let (reply, outcome) = counted(&mut twin, insert);
    assert_eq!(reply, Reply::ok("a: +2 -0"));
    assert_eq!(outcome, Some(false), "a write is looked up and never found");
    assert!(!cache.contains(insert));
    // Same catalog, same cache; the cached compile reads the new rows.
    assert!(Arc::ptr_eq(&cache, &twin.snapshot().statements));
    let expected = chain(&twin.snapshot(), select);
    assert!(expected.text.contains('y'), "{}", expected.text);
    assert_eq!(counted(&mut twin, select), (expected, Some(true)));
    // A write sent to the read side is refused, as without the cache.
    let refused = execute_read(&twin.snapshot(), insert);
    assert_eq!(refused, chain(&twin.snapshot(), insert));
    assert_eq!(cache.len(), 1);
}

#[test]
fn a_new_table_gets_a_new_cache_and_pinned_snapshots_keep_theirs() {
    let _serial = serial();
    let mut twin = twin(Limits::default());
    let cached = "SELECT * FROM a";
    let missing = "SELECT x FROM t";
    assert_eq!(counted(&mut twin, cached).1, Some(false));
    let before = twin.snapshot();
    let unknown = twin.execute(missing);
    assert_eq!(unknown, Reply::err("unknown table t"));

    assert_eq!(twin.execute(":table t x"), Reply::ok("table t (1 columns)"));
    let after = twin.snapshot();
    assert!(!Arc::ptr_eq(&before.statements, &after.statements));
    assert!(after.statements.is_empty());
    let found = twin.execute(missing);
    assert_eq!(found, Reply::ok("(0 rows)"));
    assert_eq!(found, chain(&after, missing));
    // The old statement compiles again under the new catalog...
    assert_eq!(counted(&mut twin, cached).1, Some(false));
    // ...while the pinned snapshot answers from its own catalog and cache.
    assert_eq!(execute_read(&before, missing), unknown);
    assert_eq!(execute_read(&before, cached), chain(&before, cached));
    assert_eq!(before.statements.len(), 1);
    assert!(!before.statements.contains(missing));
}

#[test]
fn hostile_streams_stay_inside_the_bounds() {
    let _serial = serial();
    let mut twin = twin(Limits::default());
    assert!(twin.execute("INSERT INTO a VALUES ('s1', 1), ('s2', 2)").ok);
    let cache = Arc::clone(&twin.snapshot().statements);
    // 10 000 distinct statements; while the cache still has room, 64 valid
    // queries of about a mebibyte each go in between, none to be kept.
    for i in 0..10_000u32 {
        let mut lines = vec![match i % 3 {
            0 => format!("SELECT s FROM a WHERE n = {i}"),
            1 => format!("SELECT n FROM a WHERE s = 's{i}'"),
            _ => format!("SELECT * FROM a, b WHERE a.s = b.s AND b.n < {i}"),
        }];
        if i < 64 {
            lines.push(if i.is_multiple_of(2) {
                format!("SELECT * FROM a WHERE s = '{i}{}'", "x".repeat(1 << 20))
            } else {
                format!("SELECT * FROM a{}WHERE n = {i}", " ".repeat(1 << 20))
            });
        }
        for line in &lines {
            let expected = chain(&twin.snapshot(), line);
            assert!(expected.ok, "{}", expected.text);
            assert_eq!(&twin.execute(line), &expected, "{line:.80}");
            assert!(cache.len() <= CAPACITY, "{} entries", cache.len());
            if line.len() > 1 << 18 {
                assert!(!cache.contains(line), "{line:.80} was kept");
            }
        }
    }
    assert_eq!(cache.len(), CAPACITY);
}

#[test]
fn runtime_reads_and_snapshot_reads_share_one_cache() {
    let _serial = serial();
    let catalog = Catalog::new().with_table("t", &[("x", false)]);
    let db = balg_sql::prelude::database_from_rows(&catalog, &[]).unwrap();
    let mut rt = balg_sql::prelude::SqlRuntime::new(catalog, db);
    let snap = balg_server::prelude::snapshot_of(&rt, 0);
    // A read through the runtime warms the cache every snapshot shares,
    // under its trimmed text.
    assert!(rt.execute("  SELECT x FROM t\n").is_ok());
    assert!(snap.statements.contains("SELECT x FROM t"));
    let (hits, _) = counts();
    assert_eq!(
        execute_read(&snap, "SELECT x FROM t"),
        Reply::ok("(0 rows)")
    );
    assert_eq!(counts().0, hits + 1);
}
