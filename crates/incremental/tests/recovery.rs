//! Crash-recovery kill matrix and corrupt-WAL regressions.
//!
//! The durability contract under test: after a crash at **any** byte of
//! the WAL and at every checkpoint crash point, reopening the data
//! directory yields a runtime differentially equal to a never-crashed
//! in-process twin that applied exactly the acked operations — every
//! acked batch present, every unacked batch absent, every view verified
//! green. The seeded operation stream runs once, cleanly; the directory
//! a kill at each crash point leaves is built from the bytes that run
//! wrote (`common/crash.rs`). Cut offsets cover record boundaries,
//! boundary±1 (torn header / one spare byte), mid-header, and
//! mid-payload.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::Expr;
use balg_core::value::Value;
use balg_core::wal::{frame, frames, FRAME_HEADER_LEN};
use balg_core::zbag::ZInt;
use balg_incremental::durable::WAL_STEP;
use balg_incremental::prelude::*;

mod common;
use common::crash::{checkpoint_crash, crash_at, CheckpointCrash, CleanRun};

/// A unique scratch directory (no tempfile crate in the container); the
/// test removes it on success and leaves it for inspection on failure.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("balg-recovery-{tag}-{}-{n}", std::process::id()))
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// One step of the scenario every crash point replays.
#[derive(Clone, Debug)]
enum Op {
    Load(&'static str, Vec<(i64, i64)>),
    View(&'static str, Expr),
    Batch(Vec<(&'static str, i64, i64, bool)>), // (base, a, b, delete?)
    Drop(&'static str),
}

/// The seeded operation stream: two bases, three views (linear
/// projection, bilinear product, non-linear subtract — so replay
/// exercises delta rules *and* fallback recomputes), then a mixed run of
/// update batches including a view drop and a base rebase.
fn scenario() -> Vec<Op> {
    let mut ops = vec![
        Op::Load("R", vec![(1, 2), (2, 3), (2, 3)]),
        Op::Load("S", vec![(2, 3), (9, 9)]),
        Op::View("rev", Expr::var("R").project(&[2, 1])),
        Op::View("prod", Expr::var("R").product(Expr::var("S"))),
        Op::View("diff", Expr::var("R").subtract(Expr::var("S"))),
    ];
    // A deterministic pseudo-random mix (xorshift — no rand dependency
    // needed here) of inserts and guaranteed-valid deletes.
    let mut state = 0x9E37_79B9u64;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut present: Vec<(i64, i64)> = vec![(1, 2), (2, 3), (2, 3)];
    for i in 0..12 {
        let mut batch = Vec::new();
        for _ in 0..=(step() % 3) {
            let a = (step() % 5) as i64;
            let b = (step() % 5) as i64;
            batch.push(("R", a, b, false));
            present.push((a, b));
        }
        if step().is_multiple_of(2) && present.len() > 2 {
            let victim = present.swap_remove((step() % present.len() as u64) as usize);
            batch.push(("R", victim.0, victim.1, true));
        }
        if i == 5 {
            ops.push(Op::Drop("prod"));
        }
        if i == 7 {
            ops.push(Op::Load("S", vec![(0, 0), (2, 3)]));
        }
        ops.push(Op::Batch(batch));
    }
    ops
}

fn to_batch(rows: &[(&'static str, i64, i64, bool)]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for (base, a, b, delete) in rows {
        if *delete {
            batch.delete(base, pair(*a, *b));
        } else {
            batch.insert(base, pair(*a, *b));
        }
    }
    batch
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
        Op::Batch(rows) => {
            let _ = twin.apply(&to_batch(rows));
        }
        Op::Drop(name) => {
            twin.drop_view(name);
        }
    }
}

fn apply_durable(rt: &mut Runtime, op: &Op) -> Result<(), DurableError> {
    match op {
        Op::Load(name, rows) => rt.load_base(
            name,
            Bag::from_values(rows.iter().map(|&(a, b)| pair(a, b))),
        ),
        Op::View(name, expr) => rt.create_view(name, expr.clone()).map(|_| ()),
        Op::Batch(rows) => rt.apply(&to_batch(rows)),
        Op::Drop(name) => rt.drop_view(name).map(|_| ()),
    }
}

/// Differential equality with the never-crashed twin: identical bases,
/// identical view names and contents, identical tombstones and batch
/// counter, and every surviving view green under `verify`.
fn assert_same(ctx: &str, recovered: &ViewRuntime, twin: &ViewRuntime) {
    assert_eq!(
        recovered.database(),
        twin.database(),
        "{ctx}: bases diverged"
    );
    let rec_views: Vec<(&str, &Bag)> = recovered.views().map(|(n, v)| (n, v.result())).collect();
    let twin_views: Vec<(&str, &Bag)> = twin.views().map(|(n, v)| (n, v.result())).collect();
    assert_eq!(rec_views, twin_views, "{ctx}: views diverged");
    let rec_dropped: Vec<(&str, &str, u64)> = recovered
        .dropped()
        .map(|(n, d)| (n, d.cause.as_str(), d.at_batch))
        .collect();
    let twin_dropped: Vec<(&str, &str, u64)> = twin
        .dropped()
        .map(|(n, d)| (n, d.cause.as_str(), d.at_batch))
        .collect();
    assert_eq!(rec_dropped, twin_dropped, "{ctx}: tombstones diverged");
    assert_eq!(
        recovered.batches(),
        twin.batches(),
        "{ctx}: batch counters diverged (acked/unacked mismatch)"
    );
    for (name, _) in recovered.views() {
        assert!(
            recovered.verify(name).unwrap_or(false),
            "{ctx}: view {name} failed verify after recovery"
        );
    }
}

/// Drive the scenario through `rt`, opened over the empty directory
/// `dir`, under a manual checkpoint policy; returns the parallel twin and
/// what each op wrote. Logical errors (e.g. a deterministic view drop)
/// are applied to both sides; a failed write to the log fails the test.
fn drive(rt: &mut Runtime, dir: &Path) -> (ViewRuntime, CleanRun) {
    rt.set_checkpoint_policy(CheckpointPolicy::manual());
    let mut twin = ViewRuntime::with_limits(Limits::default());
    let mut run = CleanRun::default();
    for op in scenario() {
        if let Err(e @ (DurableError::Io(_) | DurableError::Poisoned)) = apply_durable(rt, &op) {
            panic!("{op:?} failed to log: {e}");
        }
        run.record(dir, rt);
        apply_twin(&mut twin, &op);
    }
    (twin, run)
}

/// A never-crashed twin of the first `acked` ops of the scenario.
fn acked_twin(acked: usize) -> ViewRuntime {
    let mut twin = ViewRuntime::with_limits(Limits::default());
    for op in &scenario()[..acked] {
        apply_twin(&mut twin, op);
    }
    twin
}

/// The length of `dir`'s `wal.log` on disk.
fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).unwrap().len()
}

#[test]
fn clean_reopen_equals_twin() {
    let dir = scratch("clean");
    let twin = {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        drive(&mut rt, &dir).0
    };
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("clean reopen", reopened.runtime(), &twin);
    assert!(reopened.durability().unwrap().replayed_batches > 0);
    cleanup(&dir);
}

#[test]
fn kill_matrix_every_cut_offset_recovers() {
    let clean = scratch("clean-run");
    let (_, run) = drive(
        &mut Runtime::open(&clean, Limits::default()).unwrap(),
        &clean,
    );
    cleanup(&clean);
    let bounds: Vec<u64> = std::iter::once(0).chain(run.frame_ends()).collect();
    let total = *bounds.last().unwrap();
    // Cut grid: every record boundary, boundary ± 1, mid-header (+4),
    // and mid-record; deduplicated and bounded by the log length.
    let mut cuts = std::collections::BTreeSet::new();
    for window in bounds.windows(2) {
        let (start, end) = (window[0], window[1]);
        for cut in [start, start + 1, start + 4, (start + end) / 2, end - 1] {
            if cut < total {
                cuts.insert(cut);
            }
        }
    }
    assert!(cuts.len() > 40, "kill matrix too small: {}", cuts.len());
    for cut in cuts {
        let dir = scratch(&format!("cut{cut}"));
        let twin = acked_twin(run.crash(&dir, cut));
        let reopened = Runtime::open(&dir, Limits::default())
            .unwrap_or_else(|e| panic!("reopen after cut at byte {cut} failed: {e}"));
        assert_same(&format!("cut at byte {cut}"), reopened.runtime(), &twin);
        // The torn tail was truncated: the next open must be clean.
        drop(reopened);
        let again = Runtime::open(&dir, Limits::default()).unwrap();
        assert_same(&format!("second reopen, cut {cut}"), again.runtime(), &twin);
        cleanup(&dir);
    }
}

#[test]
fn checkpoint_roundtrip_and_wal_truncation() {
    let dir = scratch("checkpoint");
    let twin = {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.set_checkpoint_policy(CheckpointPolicy::manual());
        let mut twin = ViewRuntime::with_limits(Limits::default());
        for (i, op) in scenario().iter().enumerate() {
            apply_durable(&mut rt, op).ok();
            apply_twin(&mut twin, op);
            if i == 8 {
                rt.checkpoint().unwrap();
                assert_eq!(rt.durability().unwrap().wal_bytes, 0);
                assert_eq!(rt.durability().unwrap().batches_since_checkpoint, 0);
                assert!(rt.durability().unwrap().snapshot_lsn > 0);
            }
        }
        assert_eq!(rt.durability().unwrap().checkpoints, 1);
        twin
    };
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("post-checkpoint reopen", reopened.runtime(), &twin);
    // Only the post-checkpoint tail was replayed.
    let stats = reopened.durability().unwrap();
    assert!(stats.snapshot_lsn > 0);
    assert!(stats.lsn > stats.snapshot_lsn);
    cleanup(&dir);
}

#[test]
fn the_wal_file_grows_in_steps_not_per_commit() {
    let dir = scratch("steps");
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    rt.set_checkpoint_policy(CheckpointPolicy::manual());
    rt.load_base("R", Bag::new()).unwrap();
    let len = wal_len(&dir);
    for i in 0..50 {
        rt.apply(&to_batch(&[("R", i, i, false)])).unwrap();
        assert_eq!(wal_len(&dir), len, "commit {i} changed the file's length");
    }
    let logged = rt.durability().unwrap().wal_bytes;
    assert!(
        len.is_multiple_of(WAL_STEP) && len >= logged,
        "a {len}-byte file for a {logged}-byte log"
    );
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(
        bytes[logged as usize..].iter().all(|&b| b == 0),
        "the file past the log is not zero"
    );
    drop(rt);
    cleanup(&dir);
}

#[test]
fn a_crash_keeps_the_zero_tail_and_every_acked_commit() {
    let dir = scratch("forget");
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    let (mut twin, _) = drive(&mut rt, &dir);
    let logged = rt.durability().unwrap().wal_bytes;
    // A kill: no drop runs, so nothing cuts the file back to its frames.
    std::mem::forget(rt);
    assert!(wal_len(&dir) > logged);

    let mut reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("reopen after a crash", reopened.runtime(), &twin);
    assert_eq!(reopened.durability().unwrap().wal_bytes, logged);
    // The next commit lands at the log's end, not after the zero tail.
    let batch = to_batch(&[("R", 8, 8, false)]);
    reopened.apply(&batch).unwrap();
    twin.apply(&batch).unwrap();
    drop(reopened);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let last = frames(&bytes).last().map(|(at, _)| at);
    assert_eq!(last, Some(logged as usize));
    let again = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("clean reopen after a crash", again.runtime(), &twin);
    cleanup(&dir);
}

/// After a clean close `wal.log` is its frames and nothing else: the
/// layout a build that appends to the file reads and writes.
#[test]
fn a_clean_close_leaves_only_frames() {
    let dir = scratch("clean-close");
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    drive(&mut rt, &dir);
    let logged = rt.durability().unwrap().wal_bytes;
    drop(rt);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(bytes.len() as u64, logged);
    let mut iter = frames(&bytes);
    assert!(iter.by_ref().all(|(_, payload)| !payload.is_empty()));
    assert_eq!(
        iter.offset(),
        bytes.len(),
        "frames stop before the file ends"
    );
    cleanup(&dir);
}

#[test]
fn a_crash_after_a_checkpoint_reopens_to_the_twin() {
    let dir = scratch("checkpoint-forget");
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    rt.set_checkpoint_policy(CheckpointPolicy::manual());
    let mut twin = ViewRuntime::with_limits(Limits::default());
    for (i, op) in scenario().iter().enumerate() {
        apply_durable(&mut rt, op).ok();
        apply_twin(&mut twin, op);
        if i == 8 {
            rt.checkpoint().unwrap();
            // Growth is lazy: a checkpoint leaves the file at the log's end.
            assert_eq!(wal_len(&dir), 0);
        }
    }
    assert_eq!(wal_len(&dir), WAL_STEP);
    std::mem::forget(rt);
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("crash after a checkpoint", reopened.runtime(), &twin);
    cleanup(&dir);
}

/// A cut that leaves only a frame's trailing zeros unwritten still tears
/// it: the zero tail would read as those bytes and make the frame whole,
/// so the torn write stops before its last non-zero byte. An empty base
/// load ends in its zero row count.
#[test]
fn a_cut_before_a_frames_trailing_zeros_still_tears_it() {
    let clean = scratch("trailing-zeros-clean");
    let record = WalRecord::LoadBase {
        lsn: 1,
        name: "R".into(),
        bag: Bag::new(),
    };
    let framed = frame(&record.encode());
    assert_eq!(framed.last(), Some(&0));
    Runtime::open(&clean, Limits::default())
        .unwrap()
        .load_base("R", Bag::new())
        .unwrap();
    assert_eq!(std::fs::read(clean.join("wal.log")).unwrap(), framed);
    cleanup(&clean);
    // Cut one byte short, the zero tail alone would complete the frame.
    let cut = framed.len() as u64 - 1;
    let mut completed = framed[..cut as usize].to_vec();
    completed.resize(WAL_STEP as usize, 0);
    let whole = frames(&completed).next().map(|(_, payload)| payload);
    assert_eq!(whole, Some(&framed[FRAME_HEADER_LEN..]));

    let dir = scratch("trailing-zeros");
    assert_eq!(crash_at(&dir, &framed, &[framed.len() as u64], cut), 0);
    let torn = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(torn.len() as u64, WAL_STEP);
    assert_eq!(frames(&torn).next(), None);
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_eq!(reopened.runtime().database().get("R"), None);
    assert_eq!(reopened.durability().unwrap().wal_bytes, 0);
    cleanup(&dir);
}

#[test]
fn checkpoint_policy_triggers_automatically() {
    let dir = scratch("policy");
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    rt.set_checkpoint_policy(CheckpointPolicy {
        max_wal_bytes: 0,
        max_batches: 3,
    });
    rt.load_base("R", Bag::from_values([pair(0, 0)])).unwrap();
    for i in 0..10 {
        let mut batch = UpdateBatch::new();
        batch.insert("R", pair(i, i));
        rt.apply(&batch).unwrap();
    }
    let stats = rt.durability().unwrap();
    assert!(stats.checkpoints >= 3, "{stats:?}");
    assert!(stats.batches_since_checkpoint < 3, "{stats:?}");
    drop(rt);
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_eq!(
        reopened
            .runtime()
            .database()
            .get("R")
            .unwrap()
            .distinct_count(),
        10 // (0,0)..(9,9); the re-inserted (0,0) only bumps multiplicity
    );
    cleanup(&dir);
}

#[test]
fn checkpoint_crash_points_recover() {
    // One run, copied just before it checkpoints: each copy is what a kill
    // during the checkpoint starts from, and the checkpoint the run then
    // takes writes the snapshot bytes the killed one was writing.
    let run = scratch("ckpt-run");
    let mut rt = Runtime::open(&run, Limits::default()).unwrap();
    let (twin, _) = drive(&mut rt, &run);
    let dirs = CheckpointCrash::ALL.map(|at| {
        let dir = scratch(&format!("ckpt-{at:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&run).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        (at, dir)
    });
    rt.checkpoint().unwrap();
    let snapshot = std::fs::read(run.join("snapshot.balg")).unwrap();
    drop(rt);
    cleanup(&run);
    for (at, dir) in dirs {
        checkpoint_crash(&dir, &snapshot, at);
        // The kill comes during the checkpoint, but every op above was
        // already acked — recovery must lose none of them.
        let reopened = Runtime::open(&dir, Limits::default()).unwrap();
        assert_same(
            &format!("checkpoint crash at {at:?}"),
            reopened.runtime(),
            &twin,
        );
        // A leftover snapshot.tmp must be gone after open.
        assert!(!dir.join("snapshot.tmp").exists());
        // And the directory must still checkpoint cleanly afterwards.
        let mut reopened = reopened;
        reopened.checkpoint().unwrap();
        drop(reopened);
        let again = Runtime::open(&dir, Limits::default()).unwrap();
        assert_same(
            &format!("post-recovery checkpoint, {at:?}"),
            again.runtime(),
            &twin,
        );
        cleanup(&dir);
    }
}

/// Build a small two-record WAL directory and return (dir, twin of the
/// full state, twin of the state with the last batch missing).
fn two_batch_dir(tag: &str) -> (PathBuf, ViewRuntime, ViewRuntime) {
    let dir = scratch(tag);
    let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
    rt.set_checkpoint_policy(CheckpointPolicy::manual());
    rt.load_base("R", Bag::from_values([pair(1, 1)])).unwrap();
    rt.create_view("rev", Expr::var("R").project(&[2, 1]))
        .unwrap();
    let mut full = ViewRuntime::new();
    full.load_base("R", Bag::from_values([pair(1, 1)])).unwrap();
    full.create_view("rev", Expr::var("R").project(&[2, 1]))
        .unwrap();
    let mut prefix = full.clone();
    let mut b1 = UpdateBatch::new();
    b1.insert("R", pair(2, 2));
    rt.apply(&b1).unwrap();
    full.apply(&b1).unwrap();
    prefix.apply(&b1).unwrap();
    let mut b2 = UpdateBatch::new();
    b2.insert("R", pair(3, 3));
    rt.apply(&b2).unwrap();
    full.apply(&b2).unwrap();
    (dir, full, prefix)
}

#[test]
fn corrupt_tail_bad_crc_is_truncated() {
    let (dir, _full, prefix) = two_batch_dir("badcrc");
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip a bit in the last record's payload: CRC mismatch.
    let last = bytes.len() - 3;
    bytes[last] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("bad CRC tail", reopened.runtime(), &prefix);
    // The log shrank to the good prefix on disk, not just in memory.
    assert!(std::fs::metadata(&wal).unwrap().len() < bytes.len() as u64);
    cleanup(&dir);
}

#[test]
fn corrupt_tail_short_read_is_truncated() {
    let (dir, _full, prefix) = two_batch_dir("short");
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    // Drop the last few bytes: the final record ends mid-payload.
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("short read tail", reopened.runtime(), &prefix);
    cleanup(&dir);
}

#[test]
fn corrupt_tail_zero_filled_is_truncated() {
    let (dir, full, _prefix) = two_batch_dir("zeros");
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    // A pre-allocated-but-never-written region after the last record.
    bytes.extend_from_slice(&[0u8; 256]);
    std::fs::write(&wal, &bytes).unwrap();
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("zero-filled tail", reopened.runtime(), &full);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        bytes.len() as u64 - 256,
        "zero fill must be truncated away"
    );
    cleanup(&dir);
}

#[test]
fn recovery_continues_cleanly_after_truncation() {
    let (dir, _full, prefix) = two_batch_dir("continue");
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
    // Reopen (truncates), append new commits, reopen again: the log must
    // extend cleanly from the truncation point.
    let mut twin = prefix;
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("R", pair(7, 7));
        rt.apply(&batch).unwrap();
        twin.apply(&batch).unwrap();
    }
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("append after truncation", reopened.runtime(), &twin);
    cleanup(&dir);
}

#[test]
fn metas_survive_crash_and_checkpoint() {
    let dir = scratch("metas");
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.set_meta("table:orders", Some("customer:0,qty:1"))
            .unwrap();
        rt.set_meta("doomed", Some("x")).unwrap();
        rt.set_meta("doomed", None).unwrap();
    }
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        assert_eq!(rt.meta("table:orders"), Some("customer:0,qty:1"));
        assert_eq!(rt.meta("doomed"), None);
        rt.checkpoint().unwrap();
        rt.set_meta("post", Some("ckpt")).unwrap();
    }
    let rt = Runtime::open(&dir, Limits::default()).unwrap();
    assert_eq!(rt.meta("table:orders"), Some("customer:0,qty:1"));
    assert_eq!(rt.meta("post"), Some("ckpt"));
    assert_eq!(rt.metas().count(), 2);
    cleanup(&dir);
}

#[test]
fn view_runtime_open_spelling_works() {
    let dir = scratch("open-spelling");
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.load_base("R", Bag::from_values([pair(1, 2)])).unwrap();
    }
    let rt = Runtime::open(&dir, Limits::default()).unwrap();
    assert!(rt
        .runtime()
        .database()
        .get("R")
        .unwrap()
        .contains(&pair(1, 2)));
    cleanup(&dir);
}

/// `depth` nested 1-tuples around an atom.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::int(0), |v, _| Value::tuple([v]))
}

#[test]
fn a_crafted_deep_record_is_a_torn_tail_not_an_abort() {
    use balg_core::wal::put_u64;
    let (dir, full, _prefix) = two_batch_dir("deep-record");
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let good_len = bytes.len() as u64;
    // A batch record (tag 1) inserting 200 000 nested 1-tuples into `R`:
    // decoding it used to overflow the stack and abort the process.
    let mut payload = vec![1];
    put_u64(&mut payload, 99); // lsn
    put_u64(&mut payload, 1); // one delta
    payload.extend_from_slice(&[1, b'R', 1]); // its base, one row
    payload.extend_from_slice(&[2, 1].repeat(200_000));
    bytes.extend_from_slice(&frame(&payload));
    std::fs::write(&wal, &bytes).unwrap();
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    assert_same("deep record", reopened.runtime(), &full);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), good_len);
    cleanup(&dir);
}

/// The bytes of one update-batch record (two bases, mixed signs) as the
/// log wrote them while a delta was its own `ZBag` type: now that it is a
/// `Bag<ZInt>`, the same batch encodes to the same bytes and decodes back
/// equal.
#[test]
fn update_batch_record_bytes_are_pinned() {
    let mut batch = UpdateBatch::new();
    let ann = Value::tuple([Value::int(1), Value::sym("ann")]);
    batch.change("orders", ann, ZInt::from(2i64));
    batch.delete("orders", Value::tuple([Value::int(2), Value::sym("bob")]));
    batch.delete("cust", Value::sym("ann"));
    let deltas: Vec<_> = batch.iter().map(|(n, d)| (n.clone(), d.clone())).collect();
    let record = WalRecord::Batch {
        lsn: 300,
        deltas: deltas.clone(),
    };
    let hex = "01ac02020463757374010103616e6e010101066f726465727302020200020103616e6e\
               000102020200040103626f62010101";
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(record.encode(), bytes);
    let WalRecord::Batch { lsn, deltas: back } = WalRecord::decode(&bytes).unwrap() else {
        panic!("an update batch must decode as one");
    };
    assert_eq!(lsn, 300);
    assert_eq!(back, deltas);
}

/// A record that passes its checksum but does not decode, with a valid
/// record behind it, is not a torn tail: the records behind it are acked
/// commits. `open` refuses the log as corrupt, naming the record, and
/// leaves every byte of it in place.
#[test]
fn an_undecodable_record_mid_log_is_corrupt_not_a_torn_tail() {
    use balg_core::wal::crc32;
    let dir = scratch("mid-log");
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        for name in ["R", "S", "T"] {
            rt.load_base(name, Bag::from_values([Value::int(1)]))
                .unwrap();
        }
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let records: Vec<(usize, usize)> = frames(&bytes).map(|(at, p)| (at, p.len())).collect();
    assert_eq!(records.len(), 3);
    // An unknown tag on the middle record, under a recomputed checksum.
    let (at, len) = records[1];
    let payload = at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len;
    bytes[payload.start] = 0x7F;
    let crc = crc32(&bytes[payload]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();

    let Err(DurableError::Corrupt(what)) = Runtime::open(&dir, Limits::default()) else {
        panic!("a mid-log record that does not decode must fail the open");
    };
    assert!(what.contains(&format!("byte {at}")), "{what}");
    assert!(what.contains("lsn 2"), "{what}");
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "nothing is truncated");

    // The same record at the tail is a torn write: truncated away.
    bytes.truncate(records[2].0);
    std::fs::write(&wal, &bytes).unwrap();
    let reopened = Runtime::open(&dir, Limits::default()).unwrap();
    let bases: Vec<&str> = reopened
        .runtime()
        .database()
        .iter()
        .map(|(name, _)| &**name)
        .collect();
    assert_eq!(bases, ["R"]);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), at as u64);
    cleanup(&dir);
}

#[test]
fn what_the_log_cannot_decode_is_refused_before_it_is_logged() {
    use balg_core::wal::MAX_DECODE_DEPTH;
    let dir = scratch("too-deep");
    let deepest = nested(MAX_DECODE_DEPTH - 2);
    let wal = dir.join("wal.log");
    {
        let mut rt = Runtime::open(&dir, Limits::default()).unwrap();
        rt.load_base("R", Bag::from_values([pair(1, 2)])).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("R", deepest.clone());
        rt.apply(&batch).unwrap();
        let logged = std::fs::metadata(&wal).unwrap().len();

        let too_deep = || UpdateError::TooDeep("R".into()).to_string();
        let mut batch = UpdateBatch::new();
        batch.insert("R", nested(MAX_DECODE_DEPTH - 1));
        let err = rt.apply(&batch).unwrap_err();
        assert_eq!(err.to_string(), too_deep());
        let err = rt
            .load_base("R", Bag::from_values([nested(MAX_DECODE_DEPTH)]))
            .unwrap_err();
        assert_eq!(err.to_string(), too_deep());
        let deep_view = (0..MAX_DECODE_DEPTH).fold(Expr::var("R"), |e, _| e.dedup());
        let err = rt.create_view("v", deep_view.clone()).unwrap_err();
        assert_eq!(
            err.to_string(),
            UpdateError::TooDeep("v".into()).to_string()
        );
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), logged);

        // The in-memory runtime refuses the same three.
        let mut twin = ViewRuntime::new();
        twin.load_base("R", Bag::new()).unwrap();
        assert!(matches!(twin.apply(&batch), Err(UpdateError::TooDeep(_))));
        assert!(twin
            .load_base("R", Bag::from_values([nested(MAX_DECODE_DEPTH)]))
            .is_err());
        assert!(twin.create_view("v", deep_view).is_err());
    }
    // Everything acknowledged replays, the deepest value included, from
    // the log and then from a snapshot.
    for _ in 0..2 {
        let mut reopened = Runtime::open(&dir, Limits::default()).unwrap();
        let base = reopened.runtime().database().get("R").unwrap();
        assert!(base.contains(&deepest) && base.contains(&pair(1, 2)));
        assert_eq!(base.distinct_count(), 2);
        reopened.checkpoint().unwrap();
    }
    cleanup(&dir);
}
