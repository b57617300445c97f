//! Property-based crash-recovery differential: for random
//! (base contents, view set, update stream, crash offset) tuples, a
//! runtime killed at an arbitrary WAL byte offset and reopened must be
//! state-identical to a never-crashed twin that applied exactly the
//! acked operations. Each scenario first runs cleanly through a durable
//! and an in-memory `Runtime` side by side, which must agree after every
//! op; the directory the kill leaves is then built from the bytes the
//! clean run wrote (`common/crash.rs`). The nightly deep job raises
//! `PROPTEST_CASES` to push both properties through 1024+ random
//! scenarios and crash points.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::{Expr, Pred};
use balg_core::value::Value;
use balg_incremental::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::crash::CleanRun;

fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("balg-recdiff-{}-{n}", std::process::id()))
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

#[derive(Clone, Debug)]
enum Op {
    Load(&'static str, Vec<(i64, i64)>),
    View(String, Expr),
    Batch(UpdateBatch),
    Drop(String),
    Checkpoint,
}

/// A seeded random scenario over bases R and S: a few views drawn from
/// both linear and non-linear operator shapes, then a stream of batches
/// of random inserts and valid deletes, with occasional view drops,
/// base reloads, and checkpoints mixed in.
fn scenario(seed: u64, batches: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = |rng: &mut StdRng| -> Vec<(i64, i64)> {
        (0..rng.gen_range(0..6))
            .map(|_| (rng.gen_range(0..4), rng.gen_range(0..4)))
            .collect()
    };
    let r0 = rows(&mut rng);
    let s0 = rows(&mut rng);
    let mut present = r0.clone();
    let mut ops = vec![Op::Load("R", r0), Op::Load("S", s0)];
    for v in 0..rng.gen_range(1..4usize) {
        let expr = match rng.gen_range(0..5u8) {
            0 => Expr::var("R").project(&[2, 1]),
            1 => Expr::var("R").product(Expr::var("S")),
            2 => Expr::var("R").subtract(Expr::var("S")),
            3 => Expr::var("R").select(
                "x",
                Pred::lt(
                    Expr::var("x").attr(1),
                    Expr::lit(Value::int(rng.gen_range(1..4))),
                ),
            ),
            _ => Expr::var("R").max_union(Expr::var("S")),
        };
        ops.push(Op::View(format!("v{v}"), expr));
    }
    for _ in 0..batches {
        match rng.gen_range(0..10u8) {
            0 => ops.push(Op::Drop(format!("v{}", rng.gen_range(0..4)))),
            1 => {
                let next = rows(&mut rng);
                present = next.clone();
                ops.push(Op::Load("R", next));
            }
            2 => ops.push(Op::Checkpoint),
            _ => {
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..4) {
                    if rng.gen_bool(0.3) && !present.is_empty() {
                        let victim = present.swap_remove(rng.gen_range(0..present.len()));
                        batch.delete("R", pair(victim.0, victim.1));
                    } else {
                        let row = (rng.gen_range(0..4), rng.gen_range(0..4));
                        present.push(row);
                        batch.insert("R", pair(row.0, row.1));
                    }
                }
                ops.push(Op::Batch(batch));
            }
        }
    }
    ops
}

fn apply_durable(rt: &mut Runtime, op: &Op) -> Result<(), DurableError> {
    match op {
        Op::Load(name, rows) => rt.load_base(
            name,
            Bag::from_values(rows.iter().map(|&(a, b)| pair(a, b))),
        ),
        Op::View(name, expr) => rt.create_view(name, expr.clone()).map(|_| ()),
        Op::Batch(batch) => rt.apply(batch),
        Op::Drop(name) => rt.drop_view(name).map(|_| ()),
        Op::Checkpoint => rt.checkpoint().map(|_| ()),
    }
}

fn apply_twin(twin: &mut ViewRuntime, op: &Op) {
    match op {
        Op::Load(name, rows) => {
            let _ = twin.load_base(
                name,
                Bag::from_values(rows.iter().map(|&(a, b)| pair(a, b))),
            );
        }
        Op::View(name, expr) => {
            let _ = twin.create_view(name, expr.clone());
        }
        Op::Batch(batch) => {
            let _ = twin.apply(batch);
        }
        Op::Drop(name) => {
            twin.drop_view(name);
        }
        Op::Checkpoint => {}
    }
}

/// Everything a `ViewRuntime` holds that an op can move: bases, view
/// results and their per-view counters, tombstones, the batch counter.
fn assert_same_views(ctx: &str, durable: &ViewRuntime, memory: &ViewRuntime) {
    assert_eq!(durable.database(), memory.database(), "{ctx}: bases");
    let views = |rt: &ViewRuntime| -> Vec<(String, Bag, ViewStats)> {
        rt.views()
            .map(|(n, v)| (n.to_owned(), v.result().clone(), v.stats().clone()))
            .collect()
    };
    assert_eq!(views(durable), views(memory), "{ctx}: views or ViewStats");
    let dropped = |rt: &ViewRuntime| -> Vec<(String, String, u64)> {
        rt.dropped()
            .map(|(n, d)| (n.to_owned(), d.cause.clone(), d.at_batch))
            .collect()
    };
    assert_eq!(dropped(durable), dropped(memory), "{ctx}: tombstones");
    assert_eq!(durable.batches(), memory.batches(), "{ctx}: batch counter");
}

/// The property: kill at `cut` bytes into the (current) WAL — the first
/// frame of the run that ends past `cut` of its log is torn there —
/// reopen, compare against the acked-ops twin.
fn run_case(seed: u64, batches: usize, cut_permille: u64) {
    let ops = scenario(seed, batches);
    let dir = scratch();

    // Clean run to record what each op wrote — with an in-memory
    // `Runtime` alongside: the log is the only difference between the
    // two, so every op must answer alike and leave the same `ViewRuntime`
    // behind.
    let mut run = CleanRun::default();
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.set_checkpoint_policy(CheckpointPolicy::manual());
        let mut memory = Runtime::memory(ViewRuntime::with_limits(Limits::default()));
        for (i, op) in ops.iter().enumerate() {
            let logged = apply_durable(&mut rt, op).map_err(|e| e.to_string());
            run.record(&dir, &rt);
            let unlogged = apply_durable(&mut memory, op).map_err(|e| e.to_string());
            assert_eq!(
                logged, unlogged,
                "seed {seed}, op {i} {op:?}: replies diverged"
            );
            assert_same_views(
                &format!("seed {seed}, after op {i} {op:?}"),
                rt.runtime(),
                memory.runtime(),
            );
        }
        assert_eq!(memory.durability(), None);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cut = run.longest_log() * cut_permille / 1000;
    let acked = run.crash(&dir, cut);
    let mut twin = ViewRuntime::with_limits(Limits::default());
    for op in &ops[..acked] {
        apply_twin(&mut twin, op);
    }

    let reopened = Runtime::open(&dir, Limits::default())
        .unwrap_or_else(|e| panic!("seed {seed}: reopen after cut at {cut} failed: {e}"));
    let recovered = reopened.runtime();
    assert_eq!(
        recovered.database(),
        twin.database(),
        "seed {seed}, cut {cut}: bases diverged"
    );
    let rec_views: Vec<(&str, &Bag)> = recovered.views().map(|(n, v)| (n, v.result())).collect();
    let twin_views: Vec<(&str, &Bag)> = twin.views().map(|(n, v)| (n, v.result())).collect();
    assert_eq!(
        rec_views, twin_views,
        "seed {seed}, cut {cut}: views diverged"
    );
    assert_eq!(
        recovered.batches(),
        twin.batches(),
        "seed {seed}, cut {cut}: acked batch counts diverged"
    );
    for (name, _) in recovered.views() {
        assert!(
            recovered.verify(name).unwrap_or(false),
            "seed {seed}, cut {cut}: view {name} failed verify"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random scenario × random crash offset: recovery must always
    /// converge to the acked prefix. `PROPTEST_CASES` scales this.
    #[test]
    fn crashed_runtime_recovers_to_acked_prefix(
        seed in 0u64..1_000_000,
        batches in 2usize..10,
        cut_permille in 0u64..1000,
    ) {
        run_case(seed, batches, cut_permille);
    }
}
