//! Differential properties for the secondary-index subsystem: every
//! index-accelerated path must compute **exactly** what its scan
//! counterpart computes — equal bags, equal errors — so future
//! index-aware rewrites can lean on this suite.
//!
//! Three layers are pinned down:
//!
//! * the evaluator's `σ_{αᵢ=αⱼ}(R × S)` join with indexes enabled (an
//!   index probe) vs force-disabled (`join::scan`), including mixed-arity
//!   operands, where both must take the materializing fallback, and
//!   repeated evaluation through a warm cache;
//! * `⊑` filters over powerset-shaped inputs on both settings — an
//!   ordinary σ stage either way, whose right-hand side the chain derives
//!   once, lazily;
//! * [`BagIndex::patch`] vs an index rebuilt from the patched bag.

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::index::BagIndex;
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_core::zbag::{ZBag, ZInt};
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

fn unary_bag(rows: &[(i64, u64)]) -> Bag {
    Bag::from_counted(
        rows.iter()
            .map(|&(a, m)| (Value::tuple([Value::int(a)]), Natural::from(m))),
    )
}

/// Evaluate once with indexes enabled and once force-disabled; the two
/// `Result`s must agree exactly (bags *and* errors), and so must the
/// step charges — the documented `set_indexing` contract, which keeps
/// budget outcomes independent of the indexing mode.
fn assert_both_paths_agree(q: &Expr, db: &Database) -> Result<Bag, EvalError> {
    let mut indexed = Evaluator::new(db, Limits::default());
    let mut scanned = Evaluator::new(db, Limits::default());
    scanned.set_indexing(false);
    let a = indexed.eval_bag(q);
    let b = scanned.eval_bag(q);
    assert_eq!(a, b, "indexed vs scan disagreement for {q}");
    assert_eq!(
        indexed.metrics().steps,
        scanned.metrics().steps,
        "indexed vs scan step charges diverged for {q}"
    );
    // A second evaluation through the same (now warm) evaluator must not
    // change the answer either.
    let again = indexed.eval_bag(q);
    assert_eq!(a, again, "warm-cache re-evaluation diverged for {q}");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random equi-join queries over random bags of tuples: the indexed
    /// join, the reference-scan join, and the warm-cache re-run agree on
    /// every case — spanning or not, mixed-arity or not, projected or
    /// not.
    #[test]
    fn indexed_and_scan_joins_agree(
        left in vec((0i64..6, 0i64..6, 1u64..4), 0..24),
        right in vec((0i64..6, 0i64..6, 1u64..4), 0..24),
        i in 1usize..5,
        j in 1usize..5,
        mix_left_arity in any::<bool>(),
        project in any::<bool>(),
    ) {
        let mut r = binary_bag(&left);
        if mix_left_arity {
            // A lone 1-tuple breaks uniform arity: both paths must fall
            // back to the materializing product identically.
            r.insert(Value::tuple([Value::int(99)]));
        }
        let s = binary_bag(&right);
        let db = Database::new().with("R", r).with("S", s);
        let mut q = Expr::var("R").product(Expr::var("S")).select(
            "x",
            Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j)),
        );
        if project {
            q = q.project(&[1]);
        }
        let _ = assert_both_paths_agree(&q, &db);
    }

    /// `⊑` filters on both settings, for both predicate orientations
    /// (subbag-of-base and singleton-in-base).
    #[test]
    fn memoized_subbag_filter_agrees(
        base in vec((0i64..5, 1u64..3), 0..6),
        reference in vec((0i64..5, 1u64..4), 0..6),
    ) {
        let b = unary_bag(&base);
        let c = unary_bag(&reference);
        let db = Database::new().with("B", b).with("C", c);
        // σ_{s ⊑ C}(P(B)) — the e4/e5-shaped workload.
        let q = Expr::var("B")
            .powerset()
            .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
        let _ = assert_both_paths_agree(&q, &db);
        // σ_{β(x) ⊑ B}(C) — a non-Var lhs through the same stage.
        let q = Expr::var("C").select(
            "x",
            Pred::SubBag(Expr::var("x").singleton(), Expr::var("B")),
        );
        let _ = assert_both_paths_agree(&q, &db);
    }

    /// Patching an index with a delta is equivalent to rebuilding it over
    /// the patched bag; a delta the bag itself rejects (over-deletion) is
    /// rejected by the patch too.
    #[test]
    fn index_patch_matches_rebuild(
        rows in vec((0i64..5, 0i64..5, 1u64..3), 1..16),
        changes in vec((0i64..5, 0i64..5, -2i64..3), 0..8),
        attr in 1usize..3,
    ) {
        let base = binary_bag(&rows);
        let Some(mut index) = BagIndex::build(&base, attr) else {
            panic!("binary bags are indexable on attribute {attr}");
        };
        let delta = ZBag::from_counted(
            changes
                .iter()
                .map(|&(a, b, m)| (tuple2(a, b), ZInt::from(m))),
        );
        match delta.apply_to(&base) {
            Ok(patched) => {
                index.patch(&delta).expect("legal delta must patch");
                match BagIndex::build(&patched, attr) {
                    Some(rebuilt) => {
                        prop_assert_eq!(index.rows(), rebuilt.rows());
                        for key in 0i64..5 {
                            prop_assert_eq!(
                                index.group(&Value::int(key)),
                                rebuilt.group(&Value::int(key))
                            );
                        }
                    }
                    None => prop_assert_eq!(index.rows(), 0, "only emptiness de-indexes"),
                }
            }
            Err(_) => prop_assert!(index.patch(&delta).is_err()),
        }
    }
}

/// The cache actually pays off across repeated joins against a stable
/// operand: an IFP transitive closure joins the growing accumulator
/// against the fixed edge bag every iteration, and after the first
/// iteration the edge index must be a hit, not a rebuild.
#[test]
fn ifp_join_reuses_the_cached_index() {
    let g = Bag::from_values(
        (0..12i64).map(|i| Value::tuple([Value::int(i), Value::int((i + 1) % 12)])),
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
    let mut ev = Evaluator::new(&db, Limits::default());
    let closure = ev.eval_bag(&q).unwrap();
    assert_eq!(closure.distinct_count(), 12 * 12); // a cycle closes completely
    let (hits, builds) = ev.index_stats();
    assert!(
        hits > builds,
        "iterated joins must reuse the cached edge index: {hits} hits, {builds} builds"
    );
    // The scan path computes the same closure.
    let mut scanned = Evaluator::new(&db, Limits::default());
    scanned.set_indexing(false);
    assert_eq!(scanned.eval_bag(&q).unwrap(), closure);
    assert_eq!(scanned.index_stats(), (0, 0));
}

/// A `⊑` filter keeps lazy error behavior: when the chain never reaches
/// the stage (empty input), the hoisted reference expression is never
/// evaluated, so an erroring rhs only fails once an element flows.
#[test]
fn subbag_reference_stays_lazy_on_empty_input() {
    let db = Database::new()
        .with("EMPTY", Bag::new())
        .with("B", Bag::from_values([Value::sym("a")]));
    let bad_rhs = Expr::var("B").destroy(); // δ over atoms: a shape error
    let q = Expr::var("EMPTY").select("s", Pred::SubBag(Expr::var("s"), bad_rhs.clone()));
    assert_eq!(assert_both_paths_agree(&q, &db).unwrap(), Bag::new());
    // With a non-empty input both paths surface the same error, at the
    // same charge — also when the row itself is not a bag.
    let q = Expr::var("B").select(
        "s",
        Pred::SubBag(Expr::var("s").singleton(), bad_rhs.clone()),
    );
    assert!(assert_both_paths_agree(&q, &db).is_err());
    let q = Expr::var("B").select("s", Pred::SubBag(Expr::var("s"), bad_rhs));
    assert!(assert_both_paths_agree(&q, &db).is_err());
}
