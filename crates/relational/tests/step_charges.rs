//! Exact step counts of the RALG reference evaluator on
//! `σ_{αᵢ=αⱼ}(L × R)`, pinned.
//!
//! `RalgEvaluator` exposes no step counter, so a count is read off the
//! budget: the smallest `max_steps` under which the query succeeds. The
//! reference has no join: every shape builds the product, then charges
//! each pair 5 steps (the `=` predicate, and an `αᵢ(x)` and its `x` on
//! either side). The direct shape adds 4 (`σ`, `×` and the two
//! operands), the shape with the product behind `∪ ∅` 6 (also `∪` and
//! the `∅` literal). The
//! detour totals, the non-spanning direct total, and the inputs (the
//! bags of `crates/core/tests/step_charges.rs` seen as sets) are those
//! of the evaluator that fused a spanning equality into an indexed join.

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Limits};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_relational::prelude::*;

fn keyed(rows: i64, keys: i64) -> Bag {
    Bag::from_counted((0..rows).map(|k| {
        (
            Value::tuple([Value::int(k % keys), Value::int(k)]),
            Natural::from(1 + (k % 3) as u64),
        )
    }))
}

fn equality(i: usize, j: usize) -> RalgPred {
    RalgPred::eq(RalgExpr::var("x").attr(i), RalgExpr::var("x").attr(j))
}

fn join(left: &str, right: &str, i: usize, j: usize) -> RalgExpr {
    RalgExpr::var(left)
        .product(RalgExpr::var(right))
        .select("x", equality(i, j))
}

/// The same σ over the product behind a union with `∅`.
fn detour(left: &str, right: &str, i: usize, j: usize) -> RalgExpr {
    RalgExpr::var(left)
        .product(RalgExpr::var(right))
        .union(RalgExpr::lit(Value::empty_bag()))
        .select("x", equality(i, j))
}

fn eval_within(q: &RalgExpr, db: &Database, max_steps: u64) -> Result<Relation, EvalError> {
    let limits = Limits {
        max_steps,
        ..Limits::default()
    };
    RalgEvaluator::new(db, limits).eval_relation(q)
}

/// `steps` is exactly what `q` charges: it succeeds with that budget and
/// trips `StepLimit` with one step less.
fn assert_charges(q: &RalgExpr, db: &Database, steps: u64, rows: usize) {
    let out = eval_within(q, db, steps).unwrap_or_else(|e| panic!("{steps} steps: {e}"));
    assert_eq!(out.len(), rows);
    assert_eq!(
        eval_within(q, db, steps - 1).unwrap_err(),
        EvalError::StepLimit(steps - 1)
    );
}

#[test]
fn spanning_equality_materializes_then_filters() {
    // 48 × 30 = 1 440 pairs.
    let db = Database::new()
        .with("R", keyed(48, 6))
        .with("S", keyed(30, 5));
    assert_charges(&join("R", "S", 1, 3), &db, 7_204, 240);
    assert_charges(&detour("R", "S", 1, 3), &db, 7_206, 240);
}

#[test]
fn non_spanning_equality_materializes_then_filters() {
    // 12 × 5 = 60 pairs.
    let db = Database::new()
        .with("A", keyed(12, 4))
        .with("B", keyed(5, 5));
    assert_charges(&join("A", "B", 1, 2), &db, 304, 20);
    assert_charges(&detour("A", "B", 1, 2), &db, 306, 20);
}
