//! The step budget fails on its exact step: after any `StepLimit(m)`,
//! `Metrics.steps` is `m + 1`.
//!
//! Every bulk charge in the evaluator (the in-place σ, the seek, the
//! key-run projection, the one-sided projection over a product) is taken
//! only when it fits the steps left; otherwise the per-row loop runs and
//! stops on the step that crosses the budget. A bulk charge that skipped
//! that guard would overshoot, and a budget below the total would then
//! report more than `m + 1` steps.
//!
//! Each case is evaluated unbounded, then under every `max_steps` from 0
//! to that total: below the total the evaluation fails, a `StepLimit`
//! with exactly `m + 1` steps charged; at the total it repeats the
//! unbounded outcome and charge. The random cases come from the
//! generator `analyze_differential` uses, which emits `⊑` predicates. The
//! fixed cases are the two shapes whose bulk charges once overshot; the
//! random ones do not reach them (their `⊑` left-hand side is `β(x)`, and
//! their unary bags hold at most three rows, too few for `π` over `×` to
//! project one side).

mod expr_gen;

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use balg_core::value::Value;
use expr_gen::{db_strategy, unary, Gen};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn run(q: &Expr, db: &Database, max_steps: u64) -> (Result<Value, EvalError>, u64) {
    let limits = Limits {
        max_bag_elements: 1 << 10,
        max_multiplicity_bits: 1 << 9,
        max_steps,
        max_ifp_iterations: 32,
    };
    let mut ev = Evaluator::new(db, limits);
    let out = ev.eval(q);
    (out, ev.metrics().steps)
}

/// Sweep `max_steps` over `0..=total` for `q`, whose unbounded run must
/// stay under `cap` steps (a larger total is skipped: the sweep is
/// quadratic in it).
fn assert_budget_is_exact(q: &Expr, db: &Database, cap: u64) {
    let (unbounded, total) = run(q, db, cap);
    if total > cap {
        return;
    }
    for max_steps in 0..=total {
        let (out, steps) = run(q, db, max_steps);
        if max_steps == total {
            assert_eq!(
                (&out, steps),
                (&unbounded, total),
                "at max_steps = {total} for {q}"
            );
            continue;
        }
        assert!(
            out.is_err(),
            "{q} finished within {max_steps} of {total} steps"
        );
        if out == Err(EvalError::StepLimit(max_steps)) {
            assert_eq!(
                steps,
                max_steps + 1,
                "StepLimit({max_steps}) after {steps} steps (unbounded: {total}) for {q}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_step_limit_charges_one_step_past_the_budget(
        seed in 0u64..1_000_000_000,
        depth in 1usize..5,
        arity in 1usize..3,
        db in db_strategy(),
    ) {
        let q = Gen::new(seed).expr(depth, arity);
        assert_budget_is_exact(&q, &db, 2_000);
    }
}

/// `σ_{λs. s ⊑ C}(P(B))` over the 64 subbags of a 6-element `B`: 195
/// steps unbounded.
#[test]
fn subbag_sweep_over_a_powerset() {
    let db = Database::new()
        .with("B", Bag::from_values((0..6).map(Value::int)))
        .with("C", Bag::from_values((0..16).map(|k| Value::int(2 * k))));
    let q = Expr::var("B")
        .powerset()
        .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
    assert_eq!(run(&q, &db, u64::MAX).1, 195);
    assert_budget_is_exact(&q, &db, u64::MAX);
}

/// `π₁(R × S)` over two 20-row bags: the projection of one side, scaled,
/// charged in bulk (24 steps unbounded), or the 400 pairs streamed.
#[test]
fn one_sided_projection_over_a_product() {
    let rows = || Bag::from_values((0..20).map(unary));
    let db = Database::new().with("R", rows()).with("S", rows());
    let q = Expr::var("R").product(Expr::var("S")).project(&[1]);
    assert_eq!(run(&q, &db, u64::MAX).1, 24);
    assert_budget_is_exact(&q, &db, u64::MAX);
}
