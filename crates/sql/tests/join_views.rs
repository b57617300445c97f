//! Maintained join views against a fresh `SELECT`, at the SQL level: the
//! join planner's output is what `CREATE VIEW` registers, so the same
//! shapes that one-shot queries run as hash joins are maintained by the
//! incremental engine's indexed join rule. Random insert/delete streams
//! hit single-conjunct, multi-conjunct and three-way join views; after
//! every statement each view's rows equal the rows of its defining query
//! evaluated from scratch — on an in-memory runtime and on a durable one,
//! whose re-opened state must equal the never-closed one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use balg_core::eval::Limits;
use balg_core::schema::Database;
use balg_sql::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// `(view name, defining query)`.
const VIEWS: [(&str, &str); 3] = [
    (
        "single",
        "SELECT o.id, c.region FROM orders o, cust c WHERE o.customer = c.customer",
    ),
    (
        "multi",
        "SELECT o.id, c.region FROM orders o, cust c \
         WHERE o.qty >= 2 AND c.customer = o.customer AND c.region <> 'r0'",
    ),
    (
        "chain",
        "SELECT o.id, r.zone FROM orders o, cust c, reg r \
         WHERE o.customer = c.customer AND c.region = r.region AND r.zone < o.qty",
    ),
];

const TABLES: [&str; 3] = ["orders", "cust", "reg"];

fn catalog() -> Catalog {
    Catalog::new()
        .with_table(
            "orders",
            &[("id", true), ("customer", false), ("qty", true)],
        )
        .with_table("cust", &[("customer", false), ("region", false)])
        .with_table("reg", &[("region", false), ("zone", true)])
}

/// Row `(x, y)` of table `table` as a SQL literal; small domains, so
/// duplicates and join partners are common.
fn literal(table: usize, x: u8, y: u8) -> String {
    match table {
        0 => format!("({x}, 'c{}', {y})", x % 3),
        1 => format!("('c{x}', 'r{y}')"),
        _ => format!("('r{x}', {y})"),
    }
}

/// One generated op: table, delete-or-insert, the rows' raw fields.
type Op = (usize, bool, Vec<(u8, u8)>);

/// Turn the generated ops into statements against a model of the table
/// contents: a delete takes rows that are there (the runtime rejects
/// driving a multiplicity negative), and becomes an insert when the
/// table is empty.
fn statements(ops: &[Op]) -> Vec<String> {
    let mut held: [Vec<String>; 3] = Default::default();
    let mut out = Vec::with_capacity(ops.len());
    for (table, delete, rows) in ops {
        let held = &mut held[*table];
        let name = TABLES[*table];
        if *delete && !held.is_empty() {
            let taken: Vec<String> = rows
                .iter()
                .take(held.len())
                .map(|&(x, _)| held.swap_remove(usize::from(x) % held.len()))
                .collect();
            out.push(format!("DELETE FROM {name} VALUES {}", taken.join(", ")));
        } else {
            let added: Vec<String> = rows.iter().map(|&(x, y)| literal(*table, x, y)).collect();
            out.push(format!("INSERT INTO {name} VALUES {}", added.join(", ")));
            held.extend(added);
        }
    }
    out
}

fn register_views(rt: &mut SqlRuntime) {
    for (name, query) in VIEWS {
        rt.execute(&format!("CREATE VIEW {name} AS {query}"))
            .unwrap();
    }
}

/// Every view's rows equal its defining query evaluated now.
fn assert_views_fresh(rt: &mut SqlRuntime, after: &str) {
    for (name, query) in VIEWS {
        let Response::Rows(fresh) = rt.execute(query).unwrap() else {
            panic!("{query} is a query")
        };
        assert_eq!(
            rt.view_rows(name).unwrap().rows(),
            fresh.rows(),
            "view {name} after {after}"
        );
    }
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("balg-sql-join-views-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_views_track_their_queries_in_memory_and_durably(
        ops in vec((0usize..3, any::<bool>(), vec((0u8..4, 0u8..4), 1..4)), 1..24),
    ) {
        let stream = statements(&ops);
        let dir = scratch();
        let mut memory = SqlRuntime::new(catalog(), Database::new());
        let mut durable = SqlRuntime::open(&catalog(), &dir, Limits::default()).unwrap();
        // Views registered over empty tables on one side, mid-stream on
        // the other: both the delta rules and the initial derivation run.
        register_views(&mut memory);
        let (before, after) = stream.split_at(stream.len() / 2);
        for statement in before {
            memory.execute(statement).unwrap();
            assert_views_fresh(&mut memory, statement);
            durable.execute(statement).unwrap();
        }
        register_views(&mut durable);
        durable.execute("CHECKPOINT").unwrap();
        for statement in after {
            memory.execute(statement).unwrap();
            assert_views_fresh(&mut memory, statement);
            durable.execute(statement).unwrap();
            assert_views_fresh(&mut durable, statement);
        }
        prop_assert_eq!(durable.runtime().stats().views.fallback_recomputes, 0);
        drop(durable);

        // Snapshot + WAL tail replay re-derives the same views.
        let mut reopened = SqlRuntime::open(&Catalog::new(), &dir, Limits::default()).unwrap();
        assert_views_fresh(&mut reopened, "re-open");
        for (name, _) in VIEWS {
            prop_assert_eq!(
                reopened.view_rows(name).unwrap().rows(),
                memory.view_rows(name).unwrap().rows(),
                "re-opened view {} differs from the never-closed one", name
            );
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
