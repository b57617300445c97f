//! Golden data directories: durable directories an earlier build wrote,
//! committed under `tests/golden/`, each with the state it must recover
//! to in `expected.txt`. Every build must still open them to that state;
//! a change of the on-disk format adds a directory and keeps the old
//! ones.
//!
//! * `clean_log` — a cleanly closed log holding every `WalRecord`
//!   variant;
//! * `checkpoint_tail` — a checkpointed `snapshot.balg` (with a dropped
//!   view's tombstone) plus a log tail with a rebase, an explicit view
//!   drop and a view dropped by a batch;
//! * `crashed` — the directory a kill mid-commit leaves
//!   (`common::crash::CleanRun::crash`): frames, a torn frame, then zeros
//!   up to the next `WAL_STEP`. It is stored without its zero tail, which the
//!   test restores with `set_len`.
//!
//! `expected.txt` writes bases and views as BALG text (`bag{ [1, 2]*2 }`),
//! then tombstones, annotations, the LSN and the batch counter.
//! `cargo test -p balg-incremental --test golden -- --ignored` rewrites
//! the three directories from the scenarios below.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use balg_core::bag::Bag;
use balg_core::eval::{eval_bag, Limits};
use balg_core::expr::Expr;
use balg_core::natural::Natural;
use balg_core::parse::parse_expr;
use balg_core::schema::Database;
use balg_core::value::{Atom, Value};
use balg_incremental::durable::WAL_STEP;
use balg_incremental::prelude::*;

mod common;
use common::crash::CleanRun;

/// A golden directory: its name, whether it is stored without its zero
/// tail, and the scenario that writes it, returning the state its runtime
/// had acked, rendered.
struct Golden {
    name: &'static str,
    trimmed: bool,
    write: fn(&Path) -> String,
}

const GOLDEN: [Golden; 3] = [
    Golden {
        name: "clean_log",
        trimmed: false,
        write: write_clean_log,
    },
    Golden {
        name: "checkpoint_tail",
        trimmed: false,
        write: write_checkpoint_tail,
    },
    Golden {
        name: "crashed",
        trimmed: true,
        write: write_crashed,
    },
];

fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("balg-golden-{tag}-{}", std::process::id()))
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

fn pairs(rows: &[(i64, i64)]) -> Bag {
    Bag::from_values(rows.iter().map(|&(a, b)| pair(a, b)))
}

fn batch(inserts: &[(&str, Value)], deletes: &[(&str, Value)]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for (base, row) in inserts {
        batch.insert(base, row.clone());
    }
    for (base, row) in deletes {
        batch.delete(base, row.clone());
    }
    batch
}

/// A bag of flat rows as a BALG bag literal, in bag order.
fn balg_text(bag: &Bag) -> String {
    if bag.is_empty() {
        return "empty()".to_owned();
    }
    let atom = |value: &Value| match value {
        Value::Atom(Atom::Int(n)) if *n >= 0 => n.to_string(),
        Value::Atom(Atom::Str(s)) => format!("'{s}'"),
        other => panic!("{other} has no BALG text"),
    };
    let rows: Vec<String> = bag
        .iter()
        .map(|(row, mult)| {
            let fields: Vec<String> = match row {
                Value::Tuple(fields) => fields.iter().map(atom).collect(),
                other => panic!("{other} is not a row"),
            };
            let times = if *mult == Natural::from(1u64) {
                String::new()
            } else {
                format!("*{mult}")
            };
            format!("[{}]{times}", fields.join(", "))
        })
        .collect();
    format!("bag{{ {} }}", rows.join(", "))
}

/// The state a runtime recovered to, in `expected.txt`'s form.
fn render(rt: &Runtime) -> String {
    let views = rt.runtime();
    let mut out = String::new();
    for (name, bag) in views.database().iter() {
        writeln!(out, "base {name} = {}", balg_text(bag)).unwrap();
    }
    for (name, view) in views.views() {
        writeln!(out, "view {name} = {}", balg_text(view.result())).unwrap();
    }
    for (name, dropped) in views.dropped() {
        let (at, cause) = (dropped.at_batch, &dropped.cause);
        writeln!(out, "dropped {name} at batch {at}: {cause}").unwrap();
    }
    for (key, value) in rt.metas() {
        writeln!(out, "meta {key} = {value}").unwrap();
    }
    writeln!(out, "lsn {}", rt.durability().unwrap().lsn).unwrap();
    writeln!(out, "batches {}", views.batches()).unwrap();
    out
}

/// `expected.txt` without its comment lines.
fn expected(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("expected.txt"))
        .unwrap()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn golden_directories_recover_to_their_expected_state() {
    for Golden { name, trimmed, .. } in GOLDEN {
        let source = golden_root().join(name);
        let dir = scratch(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for file in ["wal.log", "snapshot.balg"] {
            if source.join(file).exists() {
                std::fs::copy(source.join(file), dir.join(file)).unwrap();
            }
        }
        if trimmed {
            let wal = OpenOptions::new()
                .write(true)
                .open(dir.join("wal.log"))
                .unwrap();
            wal.set_len(WAL_STEP).unwrap();
        }
        let rt = Runtime::open(&dir, Limits::default())
            .unwrap_or_else(|e| panic!("{name}: the golden directory does not open: {e}"));
        let state = render(&rt);
        assert_eq!(state, expected(&source), "{name}: recovered state");
        // The text is BALG: each bag parses back to the bag recovered.
        let views = rt.runtime();
        let bags = views
            .database()
            .iter()
            .map(|(_, bag)| bag)
            .chain(views.views().map(|(_, view)| view.result()));
        for bag in bags {
            let text = balg_text(bag);
            let parsed = eval_bag(&parse_expr(&text).unwrap(), &Database::new()).unwrap();
            assert_eq!(&parsed, bag, "{name}: {text}");
        }
        for (name, view) in views.views() {
            assert!(views.verify(name).unwrap(), "{name}: {}", view.expr());
        }
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A durable runtime over the empty directory `dir` with a manual
/// checkpoint policy.
fn fresh(dir: &Path) -> Runtime {
    let _ = std::fs::remove_dir_all(dir);
    let mut rt = Runtime::open(dir, Limits::default()).unwrap();
    rt.set_checkpoint_policy(CheckpointPolicy::manual());
    rt
}

/// Every `WalRecord` variant, then a clean close.
fn write_clean_log(dir: &Path) -> String {
    let mut rt = fresh(dir);
    rt.load_base("R", pairs(&[(1, 2), (2, 3), (2, 3)])).unwrap();
    rt.load_base("S", pairs(&[(2, 3), (9, 9)])).unwrap();
    rt.create_view("rev", Expr::var("R").project(&[2, 1]))
        .unwrap();
    rt.create_view("diff", Expr::var("R").subtract(Expr::var("S")))
        .unwrap();
    rt.create_view("prod", Expr::var("R").product(Expr::var("S")))
        .unwrap();
    rt.apply(&batch(&[("R", pair(3, 4))], &[("R", pair(1, 2))]))
        .unwrap();
    rt.set_meta("table:R", Some("a,b")).unwrap();
    rt.set_meta("doomed", Some("x")).unwrap();
    rt.set_meta("doomed", None).unwrap();
    rt.drop_view("prod").unwrap();
    rt.apply(&batch(&[("S", pair(3, 4)), ("R", pair(0, 0))], &[]))
        .unwrap();
    render(&rt)
}

/// A checkpoint over a tombstone, then a tail with a rebase, an explicit
/// drop, a rejected registration and a view a batch drops; then a clean
/// close.
fn write_checkpoint_tail(dir: &Path) -> String {
    let mut rt = fresh(dir);
    rt.load_base("R", pairs(&[(1, 2), (2, 3)])).unwrap();
    rt.load_base("S", pairs(&[(2, 3)])).unwrap();
    rt.load_base("T", pairs(&[(1, 2)])).unwrap();
    rt.create_view("rev", Expr::var("R").project(&[2, 1]))
        .unwrap();
    rt.create_view("diff", Expr::var("R").subtract(Expr::var("S")))
        .unwrap();
    rt.create_view("second", Expr::var("T").project(&[2]))
        .unwrap();
    rt.set_meta("table:R", Some("a,b")).unwrap();
    // A unary row has no second field: `second` is dropped.
    let unary = Value::tuple([Value::int(5)]);
    assert!(rt.apply(&batch(&[("T", unary)], &[])).is_err());
    rt.apply(&batch(&[("R", pair(3, 4))], &[])).unwrap();
    rt.checkpoint().unwrap();

    rt.apply(&batch(&[("R", pair(4, 5))], &[("R", pair(1, 2))]))
        .unwrap();
    rt.load_base("S", pairs(&[(0, 0), (2, 3), (4, 5)])).unwrap();
    rt.drop_view("rev").unwrap();
    rt.create_view("first", Expr::var("T").project(&[2]))
        .unwrap_err();
    rt.create_view("tails", Expr::var("R").project(&[2]))
        .unwrap();
    rt.apply(&batch(&[("R", Value::tuple([Value::int(7)]))], &[]))
        .unwrap_err();
    rt.set_meta("table:S", Some("c,d")).unwrap();
    render(&rt)
}

/// Four commits, the last one torn by a kill halfway through its frame.
fn write_crashed(dir: &Path) -> String {
    let clean = scratch("crashed-clean");
    let mut run = CleanRun::default();
    let mut rt = fresh(&clean);
    rt.load_base("R", pairs(&[(1, 2), (2, 3)])).unwrap();
    run.record(&clean, &rt);
    rt.create_view("rev", Expr::var("R").project(&[2, 1]))
        .unwrap();
    run.record(&clean, &rt);
    rt.apply(&batch(&[("R", pair(3, 4))], &[])).unwrap();
    run.record(&clean, &rt);
    let acked = render(&rt);
    rt.apply(&batch(&[("R", pair(5, 6))], &[("R", pair(1, 2))]))
        .unwrap();
    run.record(&clean, &rt);
    drop(rt);
    let _ = std::fs::remove_dir_all(&clean);
    let ends: Vec<u64> = run.frame_ends().collect();
    assert_eq!(run.crash(dir, (ends[2] + ends[3]) / 2), 3);
    // Store it without the zero tail.
    let mut torn = std::fs::read(dir.join("wal.log")).unwrap();
    let written = torn.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    torn.truncate(written);
    std::fs::write(dir.join("wal.log"), torn).unwrap();
    acked
}

#[test]
#[ignore = "rewrites tests/golden; run it when the scenarios change"]
fn regenerate_golden_directories() {
    for Golden { name, write, .. } in GOLDEN {
        let dir = golden_root().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let acked = write(&dir);
        let text =
            format!("# The state the acked commits of `{name}` left (tests/golden.rs).\n{acked}");
        std::fs::write(dir.join("expected.txt"), text).unwrap();
    }
    golden_directories_recover_to_their_expected_state();
}
