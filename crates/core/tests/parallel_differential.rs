//! The parallel↔serial differential: the partitioned keywise merges
//! ([`balg_core::par`]: `∪⁺`, `−`, `∪`, `∩`) must compute **exactly** what
//! their serial counterparts compute — equal bags, equal errors (payloads
//! included), equal step charges — at every partition count, and so must
//! every expression built over them. Joins, products and powerset
//! enumeration never partition; the random trees still mix them in, which
//! pins that a partition count cannot change their bag, error or charge
//! either. Partitioning is a pure function of the requested chunk count,
//! never of hardware, so this suite proves the documented determinism
//! contract on any host, including single-core CI runners.
//!
//! The threshold is pinned to 0 throughout, forcing the partitioned
//! paths onto the small random inputs proptest can afford; partition
//! counts {2, 4} are each compared against the serial twin (chunks = 1).

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

fn tuple2(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

fn binary_bag(rows: &[(i64, i64, u64)]) -> Bag {
    Bag::from_counted(
        rows.iter()
            .map(|&(a, b, m)| (tuple2(a, b), Natural::from(m))),
    )
}

/// Evaluate `q` with the given partition count, threshold pinned to 0 so
/// every partitionable operator actually partitions.
fn eval_at_chunks(
    q: &Expr,
    db: &Database,
    limits: Limits,
    chunks: usize,
) -> (Result<Bag, EvalError>, u64) {
    let mut ev = Evaluator::new(db, limits);
    ev.set_parallel_threads(chunks);
    ev.set_parallel_threshold(0);
    let result = ev.eval_bag(q);
    let steps = ev.metrics().steps;
    (result, steps)
}

/// The contract: partition counts 2 and 4 agree with the serial twin on
/// the full `Result` (bags and error payloads) *and* the step charges.
fn assert_parallel_serial_agree(q: &Expr, db: &Database, limits: &Limits) {
    let (serial, serial_steps) = eval_at_chunks(q, db, limits.clone(), 1);
    for chunks in [2usize, 4] {
        let (par, par_steps) = eval_at_chunks(q, db, limits.clone(), chunks);
        assert_eq!(serial, par, "serial vs {chunks}-chunk result for {q}");
        assert_eq!(
            serial_steps, par_steps,
            "serial vs {chunks}-chunk step charges for {q}"
        );
    }
}

/// Random expressions over the four keywise merges (the partitioned
/// kernels), the materializing product and the fused equi-join shape
/// (which never partition), and structural operators layered on top.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::var("R")), Just(Expr::var("S"))];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.additive_union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.subtract(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max_union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.product(b)),
            (inner.clone(), inner.clone(), 1usize..5, 1usize..5).prop_map(|(a, b, i, j)| {
                a.product(b).select(
                    "x",
                    Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j)),
                )
            }),
            inner.clone().prop_map(Expr::dedup),
            inner.prop_map(|a| a.project(&[1])),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operator trees over random bags: every partition count
    /// computes the serial answer, error, and step charge.
    #[test]
    fn random_expressions_agree_across_partition_counts(
        q in expr_strategy(),
        left in vec((0i64..6, 0i64..6, 1u64..4), 0..20),
        right in vec((0i64..6, 0i64..6, 1u64..4), 0..20),
    ) {
        let db = Database::new()
            .with("R", binary_bag(&left))
            .with("S", binary_bag(&right));
        assert_parallel_serial_agree(&q, &db, &Limits::default());
    }

    /// The same trees under hostile budgets: when the serial evaluation
    /// errors (`ElementLimit`, `TooLarge`, `StepLimit`…), every partition
    /// count reproduces the **same error payload**, charging identically.
    #[test]
    fn tight_budgets_error_identically(
        q in expr_strategy(),
        left in vec((0i64..6, 0i64..6, 1u64..4), 0..20),
        right in vec((0i64..6, 0i64..6, 1u64..4), 0..20),
        max_elements in 1u64..40,
        max_steps in 1u64..2_000,
    ) {
        let db = Database::new()
            .with("R", binary_bag(&left))
            .with("S", binary_bag(&right));
        let limits = Limits {
            max_bag_elements: max_elements,
            max_steps,
            ..Limits::default()
        };
        assert_parallel_serial_agree(&q, &db, &limits);
    }
}

/// The IFP body (a transitive closure over a cycle) iterates the fused
/// join and the fixpoint's partitioned merges many times; the closure must
/// be identical at every partition count, and so must the step charges.
#[test]
fn ifp_closure_agrees_across_partition_counts() {
    let g = Bag::from_values(
        (0..10i64).map(|i| Value::tuple([Value::int(i), Value::int((i + 1) % 10)])),
    );
    let step = Expr::var("T")
        .product(Expr::var("G"))
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        )
        .project(&[1, 4])
        .dedup();
    let q = Expr::var("G").ifp("T", step);
    let db = Database::new().with("G", g);
    let (serial, serial_steps) = eval_at_chunks(&q, &db, Limits::default(), 1);
    let closure = serial.as_ref().expect("closure evaluates").clone();
    assert_eq!(closure.distinct_count(), 10 * 10);
    for chunks in [2usize, 4, 7] {
        let (par, par_steps) = eval_at_chunks(&q, &db, Limits::default(), chunks);
        assert_eq!(par.as_ref().ok(), Some(&closure), "chunks = {chunks}");
        assert_eq!(serial_steps, par_steps, "chunks = {chunks}");
    }
}

/// Larger-than-threshold inputs through the *default* threshold: with
/// realistic sizes the partitioned merges engage on their own, and they
/// and the (serial) join probe still match the serial twin exactly.
#[test]
fn default_threshold_engages_and_agrees() {
    let n = 6000i64;
    let r = Bag::from_values((0..n).map(|i| Value::tuple([Value::int(i), Value::int(i % 97)])));
    let s = Bag::from_values((0..n).map(|i| Value::tuple([Value::int(i % 97), Value::int(i)])));
    let db = Database::new().with("R", r).with("S", s);
    for q in [
        Expr::var("R").additive_union(Expr::var("S")),
        Expr::var("R").subtract(Expr::var("S")),
        Expr::var("R").max_union(Expr::var("S")),
        Expr::var("R").intersect(Expr::var("S")),
        Expr::var("R").product(Expr::var("S")).select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        ),
    ] {
        let mut serial = Evaluator::new(&db, Limits::default());
        serial.set_parallel_threads(1);
        let mut parallel = Evaluator::new(&db, Limits::default());
        parallel.set_parallel_threads(4);
        let a = serial.eval_bag(&q);
        let b = parallel.eval_bag(&q);
        assert_eq!(a, b, "default-threshold disagreement for {q}");
        assert_eq!(serial.metrics().steps, parallel.metrics().steps, "{q}");
    }
}

/// A partition count past what a merge can allocate cuts for is clamped
/// to `pool::MAX_PARALLELISM`, not trusted: a 5 000 + 5 000-row `∪⁺`
/// (above the default threshold) at `n` requested partitions computes
/// the serial bag.
fn assert_oversized_partition_count_is_clamped(n: usize) {
    let r = Bag::from_values((0..5000i64).map(|i| tuple2(i, i % 7)));
    let s = Bag::from_values((0..5000i64).map(|i| tuple2(i + 2500, i % 5)));
    let db = Database::new().with("R", r).with("S", s);
    let q = Expr::var("R").additive_union(Expr::var("S"));
    let mut serial = Evaluator::new(&db, Limits::default());
    serial.set_parallel_threads(1);
    let mut wide = Evaluator::new(&db, Limits::default());
    wide.set_parallel_threads(n);
    assert_eq!(wide.eval_bag(&q), serial.eval_bag(&q), "{n} partitions");
    assert_eq!(wide.parallel_chunks(), balg_core::pool::MAX_PARALLELISM);
}

#[test]
fn a_trillion_partitions_are_clamped() {
    assert_oversized_partition_count_is_clamped(10usize.saturating_pow(12));
}

#[test]
fn usize_max_partitions_are_clamped() {
    assert_oversized_partition_count_is_clamped(usize::MAX);
}
