//! Exact maintenance counters of the fused equi-join view, pinned.
//!
//! `differential.rs` and `parallel_differential.rs` compare maintenance
//! paths with each other; this file pins absolute numbers, so two paths
//! drifting together cannot pass. A fixed 64-batch stream (inserts,
//! deletes, and batches touching both operands, so all three bilinear
//! terms run) goes through three join views — a spanning join over two
//! bases, a non-spanning one, and a spanning join whose left operand is
//! derived — and the resulting [`ViewStats`], index-cache traffic and view
//! sizes must equal the constants below.
//!
//! The constants were taken at commit `8899e58` (the parent of the
//! `balg_core::join` extraction), before any edit. The serial runtime and
//! one at 4 chunks, threshold 0, must both hit them: a join delta never
//! partitions, so a partition count cannot change its bag, error or
//! counters.

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::{Expr, Pred};
use balg_core::value::Value;
use balg_incremental::{UpdateBatch, ViewRuntime, ViewStats};

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
        index_cache: (318, 2, 2, 0),
        rows: [114, 32, 114],
    };
    assert_eq!(run(|rt| rt.set_parallel_threads(1)), expected);
    let partitioned = run(|rt| {
        rt.set_parallel_threads(4);
        rt.set_parallel_threshold(0);
    });
    assert_eq!(partitioned, expected);
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
    let serial = run(|rt| {
        rt.set_indexing(false);
        rt.set_parallel_threads(1);
    });
    assert_eq!(serial, expected);
    let partitioned = run(|rt| {
        rt.set_indexing(false);
        rt.set_parallel_threads(4);
        rt.set_parallel_threshold(0);
    });
    assert_eq!(partitioned, expected);
}

/// A delta of 24 distinct rows against a 16-element budget, though the
/// view holds 12 rows before and after: maintenance must fail on the
/// budget (never commit a partial delta) and degrade to exactly one full
/// re-derivation — at 1 and at 4 chunks alike.
#[test]
fn a_delta_past_the_element_budget_costs_exactly_one_reinit() {
    for chunks in [1, 4] {
        let mut rt = ViewRuntime::with_limits(Limits {
            max_bag_elements: 16,
            ..Limits::default()
        });
        rt.set_parallel_threads(chunks);
        rt.set_parallel_threshold(0);
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
            },
            "{chunks} chunk(s)"
        );
        assert_eq!(rt.index_cache_stats(), (0, 2, 2, 0), "{chunks} chunk(s)");
    }
}
