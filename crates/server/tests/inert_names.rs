//! The five names the frozen end-to-end benchmark still calls are inert.
//!
//! Every kernel is serial, so `pool::default_parallelism`,
//! `Evaluator::set_parallel_threads`, `SqlRuntime::set_parallel_threads`,
//! `ServerConfig.threads` and `Snapshot.parallel_chunks` choose nothing.
//! Each is called (or set) with `0` and `usize::MAX`, and the session must
//! answer with the bag, error and step charges of one that never touched
//! it. The inputs are past the size at which the merges used to
//! partition.

use balg_core::bag::Bag;
use balg_core::eval::{Evaluator, Limits};
use balg_core::expr::Expr;
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlRuntime, SqlValue};

const SETTINGS: [usize; 2] = [0, usize::MAX];

/// 5 000 unary rows `[lo]`, `[lo + 1]`, …, each with multiplicity 2.
fn rows(lo: i64) -> Bag {
    Bag::from_counted((lo..lo + 5000).map(|k| (Value::tuple([Value::int(k)]), Natural::from(2u64))))
}

#[test]
fn the_default_partition_count_is_one() {
    assert_eq!(balg_core::pool::default_parallelism(), 1);
}

#[test]
fn evaluator_partition_count_is_ignored() {
    let db = Database::new().with("A", rows(0)).with("B", rows(2500));
    let (a, b) = (Expr::var("A"), Expr::var("B"));
    let queries = [
        a.clone().additive_union(b.clone()),
        a.clone().subtract(b.clone()),
        a.clone().max_union(b.clone()),
        a.clone().intersect(b).additive_union(a),
    ];
    let budgets = [
        Limits::default(),
        Limits {
            max_steps: 3,
            ..Limits::default()
        },
        Limits {
            max_bag_elements: 6000,
            ..Limits::default()
        },
    ];
    for q in &queries {
        for limits in &budgets {
            let mut untouched = Evaluator::new(&db, limits.clone());
            let want = untouched.eval_bag(q);
            for n in SETTINGS {
                let mut ev = Evaluator::new(&db, limits.clone());
                ev.set_parallel_threads(n);
                assert_eq!(ev.eval_bag(q), want, "{q} at {n}");
                assert_eq!(
                    format!("{:?}", ev.metrics()),
                    format!("{:?}", untouched.metrics()),
                    "{q} at {n}"
                );
            }
        }
    }
}

fn catalog() -> Catalog {
    Catalog::new()
        .with_table("t", &[("k", true)])
        .with_table("u", &[("k", true)])
}

fn database() -> Database {
    let rows = |lo: i64| (lo..lo + 5000).map(|k| vec![SqlValue::Int(k)]).collect();
    database_from_rows(&catalog(), &[("t", rows(0)), ("u", rows(2500))]).unwrap()
}

/// Reads, a maintained view under writes, and a budget error.
const STATEMENTS: [&str; 8] = [
    "SELECT k FROM t UNION ALL SELECT k FROM u",
    "SELECT k FROM t EXCEPT ALL SELECT k FROM u",
    "SELECT k FROM t INTERSECT SELECT k FROM u",
    "CREATE VIEW v AS SELECT k FROM t UNION ALL SELECT k FROM u",
    "INSERT INTO t VALUES (7), (9000)",
    "DELETE FROM u VALUES (2500)",
    "SELECT k FROM t, u WHERE t.k = u.k",
    "SELECT t.k, u.k FROM t, u",
];

fn limits() -> Limits {
    Limits {
        max_bag_elements: 20_000,
        ..Limits::default()
    }
}

/// Every statement's reply, the view's rows and `:stats`' view counters.
fn session_replies(rt: &mut SqlRuntime) -> Vec<String> {
    let mut out: Vec<String> = STATEMENTS
        .iter()
        .map(|sql| format!("{:?}", rt.execute(sql)))
        .collect();
    out.push(format!("{:?}", rt.view_rows("v")));
    out.push(format!("{:?}", rt.runtime().stats()));
    out
}

#[test]
fn sql_session_partition_count_is_ignored() {
    let want = session_replies(&mut SqlRuntime::with_limits(
        catalog(),
        database(),
        limits(),
    ));
    assert!(want[7].starts_with("Err(Eval("), "{}", want[7]);
    for n in SETTINGS {
        let mut rt = SqlRuntime::with_limits(catalog(), database(), limits());
        rt.set_parallel_threads(n);
        assert_eq!(snapshot_of(&rt, 0).parallel_chunks, None, "at {n}");
        assert_eq!(session_replies(&mut rt), want, "at {n}");
    }
}

fn served_replies(threads: Option<usize>) -> Vec<Reply> {
    let config = ServerConfig {
        threads,
        limits: limits(),
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog(), database(), config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut out: Vec<Reply> = STATEMENTS
        .iter()
        .chain(&[":rows v", ":check"])
        .map(|line| client.request(line).unwrap())
        .collect();
    out.push(client.request(":stats").unwrap());
    drop(client);
    server.shutdown();
    out
}

#[test]
fn server_partition_count_is_ignored() {
    let want = served_replies(None);
    for n in SETTINGS {
        assert_eq!(served_replies(Some(n)), want, "at {n}");
    }
}
