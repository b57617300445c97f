//! One input, every path to the `balg_core::join` kernel, one answer.
//!
//! The per-pair suites (`fast_path_differential`,
//! `incremental/tests/differential.rs`) each compare two join paths. This
//! one feeds a single random `σ_{αᵢ=αⱼ}(L × R)` through all of them:
//!
//! * (a) `Evaluator`, indexed; (b) `set_reference(true)`, whose join runs
//!   `join::scan` — results, error values and `Metrics.steps` must agree;
//! * (c) a `ViewRuntime` join view registered over *empty* bases, with `L`
//!   and `R` streamed in as randomly split insert batches and a random
//!   subset then deleted — the bilinear delta rule, its terms evaluator
//!   probes over each delta's halves — indexed and on the reference,
//!   checked after every batch;
//!
//! against `σ(L × R)` *materialised* (product, then a per-element filter
//! no recogniser fuses) on the same database. (d) `RalgEvaluator`, the
//! set-semantics oracle with no join of its own (product, then filter),
//! must give `ε` of that reference on the same database seen as sets.
//! `(i, j)` ranges over spanning, same-side, equal, out-of-range and `α₀`
//! pairs, so the unfused and the error paths are exercised as well.

use balg::core::bag::Bag;
use balg::core::eval::{EvalError, Evaluator, Limits};
use balg::core::expr::{Expr, Pred};
use balg::core::schema::Database;
use balg::core::value::Value;
use balg::core::zbag::ZInt;
use balg::incremental::{UpdateBatch, UpdateError, ViewRuntime};
use balg::relational::{RalgEvaluator, RalgExpr, RalgPred};
use proptest::collection::vec;
use proptest::prelude::*;

/// A generated row: three fields from a domain small enough that join
/// groups exceed one row (truncated to the operand's arity), its
/// multiplicity, the insert batch it arrives in, and how many of its
/// copies the final batch deletes again.
type Row = (i64, i64, i64, u64, usize, u64);

const INSERT_BATCHES: usize = 3;

fn row_value(row: &Row, arity: usize) -> Value {
    Value::tuple(
        [row.0, row.1, row.2][..arity]
            .iter()
            .map(|&f| Value::int(f)),
    )
}

/// The update stream: `INSERT_BATCHES` insert batches, then one delete.
fn stream(left: &[Row], la: usize, right: &[Row], ra: usize) -> Vec<UpdateBatch> {
    let mut batches: Vec<UpdateBatch> = (0..=INSERT_BATCHES).map(|_| UpdateBatch::new()).collect();
    for (base, rows, arity) in [("L", left, la), ("R", right, ra)] {
        for row in rows {
            let (mult, deleted) = (row.3, row.5.min(row.3));
            batches[row.4].change(base, row_value(row, arity), ZInt::from(mult as i64));
            if deleted > 0 {
                let change = ZInt::from(-(deleted as i64));
                batches[INSERT_BATCHES].change(base, row_value(row, arity), change);
            }
        }
    }
    batches
}

fn select(i: usize, j: usize) -> Pred {
    Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j))
}

/// The fused shape every engine recognises.
fn fused(i: usize, j: usize) -> Expr {
    Expr::var("L")
        .product(Expr::var("R"))
        .select("x", select(i, j))
}

/// The same query with the product behind a `∪⁺ ∅`, which no recogniser
/// sees through: the product is materialised and filtered per element.
fn materialised(i: usize, j: usize) -> Expr {
    Expr::var("L")
        .product(Expr::var("R"))
        .additive_union(Expr::lit(Value::empty_bag()))
        .select("x", select(i, j))
}

fn reference(db: &Database, i: usize, j: usize) -> Result<Bag, EvalError> {
    Evaluator::new(db, Limits::default()).eval_bag(&materialised(i, j))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_join_adapter_agrees(
        left in vec((0i64..3, 0i64..3, 0i64..3, 1u64..4, 0usize..INSERT_BATCHES, 0u64..4), 1..12),
        right in vec((0i64..3, 0i64..3, 0i64..3, 1u64..4, 0usize..INSERT_BATCHES, 0u64..4), 1..12),
        la in 1usize..4,
        ra in 1usize..4,
        picks in (0usize..10, 0usize..10),
    ) {
        // Four picks in five are attributes of the concatenated tuple; the
        // rest are `α₀` and the first attribute past both sides.
        let attr = |pick: usize| match pick {
            0 => 0,
            9 => la + ra + 1,
            _ => 1 + (pick - 1) % (la + ra),
        };
        let (i, j) = (attr(picks.0), attr(picks.1));
        // (c) two runtimes in lockstep over the stream.
        let mut runtimes: Vec<(&str, ViewRuntime, bool)> = ["indexed", "reference"]
            .into_iter()
            .map(|path| {
                let mut rt = ViewRuntime::new();
                rt.set_reference(path == "reference");
                rt.load_base("L", Bag::new()).unwrap();
                rt.load_base("R", Bag::new()).unwrap();
                rt.create_view("j", fused(i, j)).unwrap();
                (path, rt, true)
            })
            .collect();
        for batch in stream(&left, la, &right, ra) {
            for (path, rt, alive) in &mut runtimes {
                let applied = rt.apply(&batch);
                if !*alive {
                    applied.unwrap(); // no view left to fail
                    continue;
                }
                let expected = reference(rt.database(), i, j);
                match applied {
                    Ok(()) => prop_assert_eq!(
                        Ok(rt.view("j").expect("maintained").clone()),
                        expected,
                        "{} view", path
                    ),
                    // Maintenance and the degraded re-derivation both
                    // failed: the view is dropped with the error the
                    // query raises on this database.
                    Err(UpdateError::View { error, .. }) => {
                        prop_assert_eq!(Err(error), expected, "{} view", path);
                        *alive = false;
                    }
                    Err(other) => panic!("{path} runtime rejected a legal batch: {other}"),
                }
            }
        }
        let db = runtimes[0].1.database().clone();
        for (_, rt, _) in &runtimes {
            prop_assert_eq!(rt.database(), &db);
        }
        let expected = reference(&db, i, j);

        // (a)–(b) the two `Evaluator` paths: outcome and step charges.
        let mut steps = Vec::new();
        for path in ["indexed", "reference"] {
            let mut ev = Evaluator::new(&db, Limits::default());
            ev.set_reference(path == "reference");
            prop_assert_eq!(&ev.eval_bag(&fused(i, j)), &expected, "{} evaluator", path);
            steps.push(ev.metrics().steps);
        }
        prop_assert_eq!(steps[0], steps[1], "step charges diverged");

        // (d) the relational evaluator, against ε of the reference.
        let ralg = RalgExpr::var("L").product(RalgExpr::var("R")).select(
            "x",
            RalgPred::eq(RalgExpr::var("x").attr(i), RalgExpr::var("x").attr(j)),
        );
        let over_sets = RalgEvaluator::new(&db, Limits::default())
            .eval_relation(&ralg)
            .map(|rel| rel.as_bag().clone());
        prop_assert_eq!(over_sets, expected.map(|bag| bag.dedup()));
    }
}
