//! Exact maintenance counters of the fused equi-join view, pinned.
//!
//! `differential.rs` compares maintenance paths with each other; this file pins absolute numbers, so two paths
//! drifting together cannot pass. A fixed 64-batch stream (inserts,
//! deletes, and batches touching both operands, so all three bilinear
//! terms run) goes through three join views — a spanning join over two
//! bases, a non-spanning one, and a spanning join whose left operand is
//! derived — and the resulting [`ViewStats`], index-cache traffic and view
//! sizes must equal the constants below.
//!
//! The constants were taken at commit `8899e58` (the parent of the
//! `balg_core::join` extraction), before any edit, save the index-cache
//! tuples: since join deltas run on evaluators that borrow the runtime's
//! one cache, only hits and misses moved (derived at each tuple).
//!
//! `every_rule_counts_as_before` does the same for every other rule
//! (linear `MAP`/`σ`/`δ`, a cancelling delta, the pointwise merges, `P`,
//! `nest`, `IFP`, `×`, the scalar constructs and a `⊑` body reading a
//! changing base), with constants taken at `626c916`, the commit before
//! view nodes ran their operators through the evaluator; the `ε` and
//! merge rows moved from fallbacks to pointwise ops when those operators
//! got their own delta rule.

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::value::Value;
use balg_incremental::{UpdateBatch, UpdateError, ViewRuntime, ViewStats};

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

fn join(left: Expr, i: usize, j: usize) -> Expr {
    left.product(Expr::var("H")).select(
        "x",
        Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j)),
    )
}

/// Batch `k` of the fixed stream. Keys live in `0..5`, so groups exceed
/// one row; every fourth batch deletes from `G` what an earlier one
/// inserted, every third inserts into `H` too (so `δA × δB` is non-empty),
/// every sixth deletes from `H`.
fn batch(k: i64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    if k % 4 == 3 {
        batch.delete("G", pair((k - 3) % 5, k - 3));
    } else {
        batch.insert("G", pair(k % 5, k));
    }
    if k % 3 == 0 {
        batch.insert("H", pair((k * 2) % 5, 100 + k));
    }
    if k % 6 == 5 {
        batch.delete("H", pair(((k - 2) * 2) % 5, 100 + k - 2));
    }
    batch
}

/// Everything the stream leaves behind that a join path could move.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    spanning: ViewStats,
    same_side: ViewStats,
    derived: ViewStats,
    /// `(hits, misses, builds, evictions)` of the runtime's index cache.
    index_cache: (u64, u64, u64, u64),
    /// Distinct rows of the three views, in the order above.
    rows: [usize; 3],
}

fn run(configure: impl FnOnce(&mut ViewRuntime)) -> Observed {
    let mut rt = ViewRuntime::with_limits(Limits::default());
    configure(&mut rt);
    rt.load_base("G", Bag::from_values((0..6).map(|k| pair(k % 5, 50 + k))))
        .unwrap();
    rt.load_base("H", Bag::from_values((0..4).map(|k| pair(k, 200 + k))))
        .unwrap();
    rt.create_view("spanning", join(Expr::var("G"), 1, 3))
        .unwrap();
    rt.create_view("same_side", join(Expr::var("G"), 1, 2))
        .unwrap();
    let doubled = Expr::var("G").additive_union(Expr::var("G"));
    rt.create_view("derived", join(doubled, 1, 3)).unwrap();
    for k in 0..64 {
        rt.apply(&batch(k)).unwrap();
    }
    assert!(rt.verify_all().unwrap());
    let stats = |name: &str| {
        let (_, view) = rt.views().find(|(n, _)| *n == name).expect("registered");
        view.stats().clone()
    };
    Observed {
        spanning: stats("spanning"),
        same_side: stats("same_side"),
        derived: stats("derived"),
        index_cache: rt.index_cache_stats(),
        rows: ["spanning", "same_side", "derived"].map(|v| rt.view(v).unwrap().distinct_count()),
    }
}

fn join_ops(linear: u64, indexed: u64, scanned: u64) -> ViewStats {
    ViewStats {
        linear_delta_ops: linear,
        indexed_join_ops: indexed,
        scanned_join_ops: scanned,
        ..ViewStats::default()
    }
}

#[test]
fn indexed_stream_counters_are_pinned() {
    let expected = Observed {
        spanning: join_ops(64, 64, 0),
        same_side: join_ops(64, 0, 64),
        // `G ⊎ G` is one linear op per batch on top of the join's.
        derived: join_ops(128, 64, 0),
        // Registration: `spanning` misses G and H, builds H (the smaller
        // base); `derived` misses `G ⊎ G`, hits H. Each of the 64 batches
        // has one δG half: `spanning` and `derived` each miss it and hit
        // H (128 hits, 128 misses). Of the 32 batches with one δH half,
        // the first builds G (3 misses), the other 31 hit it; `derived`
        // misses `G ⊎ G` and δH, and both views miss δG and δH in the
        // cross term, the transient builds (6 misses each batch).
        // Hits 1 + 128 + 31 = 160; misses 4 + 128 + 3 + 64 + 128 = 327.
        index_cache: (160, 327, 2, 0),
        rows: [114, 32, 114],
    };
    assert_eq!(run(|_| {}), expected);
}

#[test]
fn scanned_stream_counters_are_pinned() {
    let expected = Observed {
        spanning: join_ops(64, 0, 64),
        same_side: join_ops(64, 0, 64),
        derived: join_ops(128, 0, 64),
        index_cache: (0, 0, 0, 0),
        rows: [114, 32, 114],
    };
    assert_eq!(run(|rt| rt.set_reference(true)), expected);
}

fn unary(v: i64) -> Value {
    Value::tuple([Value::int(v)])
}

fn stats(linear: u64, fallback: u64, scalar: u64) -> ViewStats {
    ViewStats {
        linear_delta_ops: linear,
        fallback_recomputes: fallback,
        scalar_recomputes: scalar,
        ..ViewStats::default()
    }
}

/// `base` with `n` pointwise delta-rule applications.
fn pointwise(n: u64, mut base: ViewStats) -> ViewStats {
    base.pointwise_delta_ops = n;
    base
}

/// One view per maintenance rule that is not a join: the linear
/// `MAP`/`σ`/`δ` chain, a delta that cancels inside `π₁` before it
/// reaches `ε`, the re-derived merges, `P`, `nest` and `IFP`, the
/// bilinear `×`, the scalar `τ`/`β`/`α`, and a `⊑` body that reads a
/// changing base.
fn rule_views() -> Vec<(&'static str, Expr)> {
    let x = || Expr::var("x");
    let keys = Expr::var("G").project(&[1]);
    let closure = Expr::var("T")
        .product(Expr::var("G"))
        .select("x", Pred::eq(x().attr(2), x().attr(3)))
        .project(&[1, 4])
        .dedup();
    vec![
        (
            "chain",
            Expr::var("G")
                .select("x", Pred::lt(x().attr(1), Expr::lit(Value::int(3))))
                .project(&[2]),
        ),
        (
            "flatten",
            Expr::var("R").map("x", x().singleton()).destroy(),
        ),
        ("cancel", keys.clone().dedup()),
        (
            "merges",
            keys.clone()
                .subtract(Expr::var("R"))
                .max_union(Expr::var("R").intersect(keys)),
        ),
        ("powerset", Expr::var("R").dedup().powerset().destroy()),
        (
            "nest",
            Expr::var("G")
                .nest(&[1])
                .map("g", Expr::tuple([Expr::var("g").attr(1)])),
        ),
        ("closure", Expr::var("G").ifp("T", closure)),
        ("product", Expr::var("R").product(Expr::var("R"))),
        (
            "scalar",
            Expr::tuple([Expr::var("R"), Expr::var("G")])
                .attr(1)
                .singleton()
                .destroy()
                .additive_union(Expr::var("R").singleton().destroy()),
        ),
        (
            "subbag",
            Expr::var("S").select("x", Pred::SubBag(x().singleton(), Expr::var("R"))),
        ),
    ]
}

/// Batch `k` of the rule stream: `G` swaps a row for one with the same
/// key (so `π₁(G)` cancels), `R` and `S` gain and lose rows.
fn rule_batch(k: i64) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    match k % 4 {
        0 => {
            batch.delete("G", pair(k % 3, k));
            batch.insert("G", pair(k % 3, k + 1));
        }
        1 => {
            batch.insert("G", pair(k % 3, k));
            batch.insert("R", unary(k % 5));
        }
        2 => {
            batch.delete("R", unary((k - 1) % 5));
            batch.insert("S", unary(k % 5));
        }
        _ => {
            batch.insert("R", unary(k % 5));
            batch.insert("R", unary((k + 1) % 5));
            batch.delete("S", unary((k - 1) % 5));
        }
    }
    batch
}

/// Every non-join rule over a fixed 32-batch stream: each view's
/// [`ViewStats`] and distinct rows, taken at `626c916`, before view
/// nodes ran their operators through the evaluator. Indexing must not
/// move them.
#[test]
fn every_rule_counts_as_before() {
    let expected: Vec<(&str, ViewStats, usize)> = vec![
        ("chain", stats(32, 0, 0), 8),
        ("flatten", stats(48, 0, 0), 5),
        // Half of the `π₁` deltas cancel, so `ε` is patched 8 times, not
        // 16. `ε` and the merges take the pointwise rule (taken at
        // `7bf129c` as fallbacks 8, 67 and 25); `P` re-derives only when
        // `ε(R)` moved.
        ("cancel", pointwise(8, stats(16, 0, 0)), 3),
        ("merges", pointwise(67, stats(32, 0, 0)), 3),
        ("powerset", pointwise(24, stats(1, 1, 0)), 5),
        ("nest", stats(16, 16, 0), 3),
        ("closure", stats(0, 16, 0), 19),
        ("product", stats(24, 0, 0), 25),
        ("scalar", stats(72, 0, 112), 5),
        ("subbag", stats(0, 24, 0), 5),
    ];
    for reference in [false, true] {
        let mut rt = ViewRuntime::with_limits(Limits::default());
        rt.set_reference(reference);
        // Every `G` row the stream deletes is loaded or inserted first.
        let g = (0..32).filter(|k| k % 4 == 0).map(|k| pair(k % 3, k));
        rt.load_base("G", Bag::from_values(g)).unwrap();
        rt.load_base("R", Bag::from_values((0..3).map(unary)))
            .unwrap();
        rt.load_base("S", Bag::from_values((0..5).map(unary)))
            .unwrap();
        for (name, expr) in rule_views() {
            rt.create_view(name, expr).unwrap();
        }
        for k in 0..32 {
            rt.apply(&rule_batch(k)).unwrap();
        }
        assert!(rt.verify_all().unwrap());
        let observed: Vec<(&str, ViewStats, usize)> = rule_views()
            .into_iter()
            .map(|(name, _)| {
                let (_, view) = rt.views().find(|(n, _)| *n == name).expect("registered");
                (name, view.stats().clone(), view.result().distinct_count())
            })
            .collect();
        assert_eq!(observed, expected, "reference {reference}");
    }
}

/// A `MAP` body that fails on a row the batch inserts: maintenance fails,
/// the full re-derivation fails the same way, and the view is dropped
/// with that evaluation's error as its cause.
#[test]
fn a_failing_body_drops_the_view_with_the_evaluators_error() {
    let mut rt = ViewRuntime::with_limits(Limits::default());
    rt.load_base("G", Bag::from_values([pair(0, 1)])).unwrap();
    let q = Expr::var("G")
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::int(9))),
        )
        .map("x", Expr::tuple([Expr::var("x").attr(3)]));
    rt.create_view("v", q).unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert("G", pair(9, 1));
    batch.delete("G", pair(0, 1));
    let err = rt.apply(&batch).unwrap_err();
    let cause = "attribute α3 out of range for arity 2";
    assert_eq!(err.to_string(), format!("view v: {cause}"));
    let (name, record) = rt.dropped().next().expect("dropped");
    assert_eq!((name, record.cause.as_str()), ("v", cause));
    assert_eq!(rt.stats().views, ViewStats::default());
}

/// A delta of 24 distinct rows against a 16-element budget, though the
/// view holds 12 rows before and after: maintenance must fail on the
/// budget (never commit a partial delta) and degrade to exactly one full
/// re-derivation.
#[test]
fn a_delta_past_the_element_budget_costs_exactly_one_reinit() {
    let mut rt = ViewRuntime::with_limits(Limits {
        max_bag_elements: 16,
        ..Limits::default()
    });
    rt.load_base("G", Bag::from_values([pair(0, 1), pair(0, 2)]))
        .unwrap();
    rt.load_base("H", Bag::from_values((0..6).map(|k| pair(0, 200 + k))))
        .unwrap();
    rt.create_view("v", join(Expr::var("G"), 1, 3)).unwrap();
    let mut swap = UpdateBatch::new();
    swap.delete("G", pair(0, 1));
    swap.delete("G", pair(0, 2));
    swap.insert("G", pair(0, 3));
    swap.insert("G", pair(0, 4));
    rt.apply(&swap).unwrap();
    assert_eq!(rt.view("v").unwrap().distinct_count(), 12);
    assert!(rt.verify_all().unwrap());
    assert_eq!(
        rt.stats().views,
        ViewStats {
            full_reinits: 1,
            ..ViewStats::default()
        }
    );
    // Registration misses G and H and builds G (the smaller base);
    // δG⁺ misses itself and H and builds H; δG⁻ misses itself, hits
    // H; the re-derivation hits the patched G index.
    assert_eq!(rt.index_cache_stats(), (2, 7, 2, 0));
}

/// A join delta runs on the view's evaluator, so its surviving pairs are
/// charged to `Limits.max_steps`: a commit whose join delta has more
/// pairs than the budget drops the join view with a tombstone, as a
/// failed re-derivation does, while the batch commits and an unrelated
/// view is maintained. A bare `×` is charged what a one-shot product is —
/// its node, not its pairs — so the product view over the same delta
/// stays maintained and exact.
#[test]
fn join_maintenance_obeys_max_steps() {
    let mut rt = ViewRuntime::with_limits(Limits {
        max_steps: 100,
        ..Limits::default()
    });
    rt.load_base("G", Bag::new()).unwrap();
    rt.load_base("H", Bag::from_values((0..40).map(|k| pair(k % 2, k))))
        .unwrap();
    rt.load_base("R", Bag::from_values([pair(0, 0)])).unwrap();
    // `G` is empty, so registration costs a handful of steps.
    rt.create_view("join", join(Expr::var("G"), 2, 3)).unwrap();
    rt.create_view("product", Expr::var("G").product(Expr::var("H")))
        .unwrap();
    rt.create_view("other", Expr::var("R").project(&[2]))
        .unwrap();
    // Ten `G` rows, each keyed by `α₂` to 20 `H` rows: 200 join pairs.
    let mut batch = UpdateBatch::new();
    for k in 0..10 {
        batch.insert("G", pair(k, k % 2));
    }
    batch.insert("R", pair(1, 1));
    let err = rt.apply(&batch).unwrap_err();
    assert!(
        matches!(&err, UpdateError::View { view, error: EvalError::StepLimit(100) } if view == "join"),
        "{err:?}"
    );
    let dropped: Vec<(&str, &str)> = rt.dropped().map(|(n, d)| (n, d.cause.as_str())).collect();
    assert_eq!(dropped, [("join", "step budget of 100 exhausted")]);
    assert_eq!(rt.stats().batches, 1);
    assert_eq!(rt.database().get("G").unwrap().distinct_count(), 10);
    assert_eq!(rt.view("product").unwrap().distinct_count(), 400);
    assert_eq!(rt.view("other").unwrap().distinct_count(), 2);
    assert!(rt.verify("product").unwrap() && rt.verify("other").unwrap());
}
