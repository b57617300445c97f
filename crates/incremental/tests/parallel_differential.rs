//! The incremental engine's parallel↔serial differential: a runtime at 4
//! chunks, threshold 0 (every maintenance merge partitions) replays the
//! same (query, update-stream) pairs as a runtime pinned to the serial
//! paths, in lockstep. After every batch the base bags, view snapshots,
//! maintenance outcomes, **and the full instrumentation counters** must
//! be strictly equal. A join delta never partitions, so on the join-heavy
//! streams below this pins that a partition count cannot change a join's
//! bag, `used_index` accounting or budget verdict.

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::{Expr, Pred};
use balg_core::value::Value;
use balg_incremental::{UpdateBatch, ViewRuntime};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn limits() -> Limits {
    Limits {
        max_bag_elements: 1 << 12,
        max_multiplicity_bits: 1 << 10,
        max_steps: 2_000_000,
        max_ifp_iterations: 64,
    }
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// The generator leans on equi-join shapes, σ_{αi=αj}(A × B) over binary
/// bases, wrapped in the merges and structural operators the deltas flow
/// through.
fn join_heavy_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        return if rng.gen_bool(0.5) {
            Expr::var("G")
        } else {
            Expr::var("H")
        };
    }
    match rng.gen_range(0..8u8) {
        0 => {
            // The spanning equi-join the engine indexes: key columns
            // straddle the product seam.
            let i = rng.gen_range(1..=2);
            let j = rng.gen_range(3..=4);
            join_heavy_expr(rng, depth - 1)
                .product(join_heavy_expr(rng, depth - 1))
                .select(
                    "x",
                    Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j)),
                )
                .project(&[1, 4])
        }
        1 => {
            // Non-spanning predicate: forces the scan-term kernels.
            join_heavy_expr(rng, depth - 1)
                .product(join_heavy_expr(rng, depth - 1))
                .select(
                    "x",
                    Pred::eq(Expr::var("x").attr(1), Expr::var("x").attr(2)),
                )
                .project(&[3, 4])
        }
        2 => join_heavy_expr(rng, depth - 1).additive_union(join_heavy_expr(rng, depth - 1)),
        3 => join_heavy_expr(rng, depth - 1).subtract(join_heavy_expr(rng, depth - 1)),
        4 => join_heavy_expr(rng, depth - 1).max_union(join_heavy_expr(rng, depth - 1)),
        5 => join_heavy_expr(rng, depth - 1).intersect(join_heavy_expr(rng, depth - 1)),
        6 => join_heavy_expr(rng, depth - 1).dedup(),
        _ => {
            let body = Expr::tuple([Expr::var("x").attr(2), Expr::var("x").attr(1)]);
            join_heavy_expr(rng, depth - 1).map("x", body)
        }
    }
}

fn base_db() -> Vec<(&'static str, Bag)> {
    vec![
        (
            "G",
            Bag::from_values([pair(0, 1), pair(1, 2), pair(0, 1), pair(2, 0), pair(3, 3)]),
        ),
        (
            "H",
            Bag::from_values([pair(1, 0), pair(2, 2), pair(3, 1), pair(0, 3)]),
        ),
    ]
}

fn random_update(rng: &mut StdRng, runtime: &ViewRuntime, batch: &mut UpdateBatch) {
    use balg_core::zbag::ZInt;
    let name = if rng.gen_bool(0.5) { "G" } else { "H" };
    let current = runtime.database().get(name).expect("loaded base");
    let deletable: Vec<Value> = current
        .iter()
        .filter(|(value, mult)| {
            let pending = batch
                .delta(name)
                .map_or_else(ZInt::zero, |d| d.multiplicity(value));
            let headroom = ZInt::from_natural((*mult).clone()).add(&pending);
            !headroom.is_negative() && !headroom.is_zero()
        })
        .map(|(value, _)| value.clone())
        .collect();
    if rng.gen_bool(0.4) && !deletable.is_empty() {
        let victim = deletable[rng.gen_range(0..deletable.len())].clone();
        batch.delete(name, victim);
    } else {
        batch.insert(name, pair(rng.gen_range(0..5), rng.gen_range(0..5)));
    }
}

/// Replay one (query, update-stream) pair through a partitioned runtime
/// and its serial twin; every observable — registration outcome, per-batch
/// outcome, view snapshot, base bags, full stats — must match exactly.
fn run_twin_case(seed: u64, depth: usize, batches: usize, tight: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let expr = join_heavy_expr(&mut rng, depth);
    let limits = if tight {
        Limits {
            max_bag_elements: 24,
            ..limits()
        }
    } else {
        limits()
    };
    let mut parallel = ViewRuntime::with_limits(limits.clone());
    parallel.set_parallel_threads(4);
    parallel.set_parallel_threshold(0); // partition even 1-row deltas
    let mut serial = ViewRuntime::with_limits(limits);
    serial.set_parallel_threads(1);
    for (name, bag) in base_db() {
        parallel.load_base(name, bag.clone()).unwrap();
        serial.load_base(name, bag).unwrap();
    }
    let registered = parallel.create_view("v", expr.clone()).is_ok();
    assert_eq!(
        registered,
        serial.create_view("v", expr.clone()).is_ok(),
        "registration outcome must not depend on partitioning: {expr}"
    );
    if !registered {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7a);
    for _ in 0..batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=3) {
            random_update(&mut rng, &parallel, &mut batch);
        }
        let a = parallel.apply(&batch);
        let b = serial.apply(&batch);
        assert_eq!(
            a.is_ok(),
            b.is_ok(),
            "maintenance outcome diverged for seed {seed}: {expr}"
        );
        if a.is_err() {
            return; // both dropped the view with the same budget verdict
        }
        assert_eq!(
            parallel.view("v").expect("view survived"),
            serial.view("v").expect("view survived"),
            "partitioned and serial propagation diverged for seed {seed}: {expr}"
        );
        assert_eq!(parallel.database(), serial.database());
        // Index usage is accounted identically at every partition count —
        // the whole counter set is comparable.
        assert_eq!(
            parallel.stats(),
            serial.stats(),
            "instrumentation diverged for seed {seed}: {expr}"
        );
    }
    // Under a tight budget a from-scratch re-evaluation can exceed the
    // element limit even though every per-batch delta fit it, so verify
    // may error — but it must error (or pass) identically for the twins.
    let from_parallel = parallel.verify_all();
    let from_serial = serial.verify_all();
    assert_eq!(
        from_parallel.is_ok(),
        from_serial.is_ok(),
        "verification outcome diverged for seed {seed}: {expr}"
    );
    if let (Ok(p), Ok(s)) = (from_parallel, from_serial) {
        assert!(p && s, "verification failed for seed {seed}: {expr}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 join-heavy (query, update-stream) pairs replayed through a
    /// 4-chunk runtime and its serial twin in lockstep.
    #[test]
    fn partitioned_and_serial_runtimes_agree(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
        batches in 2usize..6,
    ) {
        run_twin_case(seed, depth, batches, false);
    }

    /// The same pairs under a hostile element budget: overflow verdicts
    /// (view dropped vs kept) and every surviving snapshot must match —
    /// no partition count may keep work the serial loops would have
    /// rejected, nor reject work they would have kept.
    #[test]
    fn partitioned_and_serial_budget_verdicts_agree(
        seed in 0u64..1_000_000,
        depth in 1usize..3,
        batches in 2usize..5,
    ) {
        run_twin_case(seed, depth, batches, true);
    }
}

/// Deterministic smoke: a spanning equi-join view maintained through a
/// burst of inserts large enough to clear the *default* threshold, at
/// several partition counts, always equals the serial result — and the
/// indexed-probe counter advances identically.
#[test]
fn partition_counts_agree_on_bulk_join_maintenance() {
    let expr = Expr::var("G")
        .product(Expr::var("H"))
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        )
        .project(&[1, 4]);
    let mut snapshots = Vec::new();
    for chunks in [1usize, 2, 4, 7] {
        let mut rt = ViewRuntime::with_limits(Limits::default());
        if chunks == 1 {
            rt.set_parallel_threads(1);
        } else {
            rt.set_parallel_threads(chunks);
            rt.set_parallel_threshold(0);
        }
        for (name, bag) in base_db() {
            rt.load_base(name, bag).unwrap();
        }
        rt.create_view("v", expr.clone()).unwrap();
        let mut batch = UpdateBatch::new();
        for i in 0..300i64 {
            batch.insert("G", pair(i % 9, (i * 7) % 9));
            batch.insert("H", pair((i * 5) % 9, i % 9));
        }
        rt.apply(&batch).unwrap();
        assert!(rt.verify_all().unwrap());
        snapshots.push((chunks, rt.view("v").unwrap().clone(), rt.stats()));
    }
    let (_, baseline, baseline_stats) = &snapshots[0];
    for (chunks, view, stats) in &snapshots[1..] {
        assert_eq!(view, baseline, "chunks = {chunks}");
        assert_eq!(stats, baseline_stats, "stats at chunks = {chunks}");
    }
}
