//! The two budgets an unfused SQL join view used to trip at registration:
//! `CREATE VIEW … FROM a, b WHERE a.k = b.k` materialised `a × b` before
//! filtering it, so it hit the element limit long before the join's own
//! size mattered, and was then maintained by the bilinear product rule.
//! The lowering now emits `σ_{αᵢ=αⱼ}(a × b)`, which registers through the
//! hash join and is maintained by the indexed delta rule.

use balg_core::eval::Limits;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlRuntime, SqlValue};

const VIEW: &str = "CREATE VIEW j AS SELECT a.id, b.tag FROM a, b WHERE a.k = b.k";

/// `a(id, k)` with `a_rows` rows cycling through `b_rows` keys, `b(k, tag)`
/// with one row per key: the join has `a_rows` rows, the product
/// `a_rows · b_rows`.
fn runtime(a_rows: i64, b_rows: i64, limits: Limits) -> SqlRuntime {
    let catalog = Catalog::new()
        .with_table("a", &[("id", true), ("k", false)])
        .with_table("b", &[("k", false), ("tag", false)]);
    let key = |i: i64| SqlValue::Str(format!("k{i}"));
    let a = (0..a_rows)
        .map(|i| vec![SqlValue::Int(i), key(i % b_rows)])
        .collect();
    let b = (0..b_rows)
        .map(|i| vec![key(i), SqlValue::Str(format!("t{}", i % 7))])
        .collect();
    let db = database_from_rows(&catalog, &[("a", a), ("b", b)]).unwrap();
    SqlRuntime::with_limits(catalog, db, limits)
}

/// Register the join view, push one insert through it, and check it was
/// maintained by the indexed join rule and still equals a re-evaluation.
fn registers_and_maintains(mut rt: SqlRuntime, expected_rows: u128) {
    let created = execute_write(&mut rt, VIEW);
    assert!(created.ok, "{}", created.text);
    assert_eq!(rt.view_rows("j").unwrap().total_rows(), expected_rows);

    let inserted = execute_write(&mut rt, "INSERT INTO a VALUES (999999, 'k1')");
    assert!(inserted.ok, "{}", inserted.text);
    assert_eq!(rt.view_rows("j").unwrap().total_rows(), expected_rows + 1);
    let stats = rt.runtime().stats();
    assert!(stats.views.indexed_join_ops > 0, "{stats:?}");
    assert_eq!(stats.views.fallback_recomputes, 0, "{stats:?}");
    assert_eq!(execute_write(&mut rt, ":check"), Reply::ok("consistent"));
}

#[test]
fn join_view_over_a_product_past_the_default_element_limit_registers() {
    let limits = Limits::default();
    assert!(4_000 * 500 > limits.max_bag_elements);
    registers_and_maintains(runtime(4_000, 500, limits), 4_000);
}

#[test]
fn join_view_registers_under_a_limit_between_its_output_and_the_product() {
    let limits = Limits {
        max_bag_elements: 1_000,
        ..Limits::default()
    };
    // |a|·|b| = 10 000 > 1 000 > 200 = |a ⋈ b|.
    registers_and_maintains(runtime(200, 50, limits), 200);
}
