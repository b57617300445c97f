//! Published snapshots stay what they were while the runtime patches the
//! bags they share through their spares (`ZBag::patch`), end to end.
//!
//! A durable `SqlRuntime` carries the four views of the `update_stream`
//! benchmark. Snapshots are pinned across several writes each, and some
//! across all of what follows: a `load_base` of `cust` (which re-derives
//! `v_join`), a `load_base` of `orders` (which re-derives every view) and
//! a recovery from the data directory. Every pinned snapshot must still
//! answer byte for byte what a `SerialTwin` answered at its seq, and
//! every fresh snapshot what the twin answers now.
//!
//! A third test does the same for `v_distinct` while writes add and
//! remove its rows, which the pointwise rule patches in.
//!
//! Then only the newest snapshot is published, as the server does, and
//! each write must patch `orders` and the `v_sel` and `v_join` roots in
//! the buffers that the snapshot before the last one held (compared by
//! `pairs().as_ptr()`). Those writes add and remove duplicates of
//! existing rows, so no patch adds a key and no buffer reallocates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::schema::Database;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlRuntime, SqlValue};

const VIEWS: [&str; 4] = [
    "CREATE VIEW v_sel AS SELECT id, customer FROM orders WHERE qty >= 8",
    "CREATE VIEW v_join AS SELECT o.id, c.region FROM orders o, cust c WHERE o.customer = c.customer",
    "CREATE VIEW v_distinct AS SELECT DISTINCT customer FROM orders",
    "CREATE VIEW v_sum AS SELECT SUM(qty) FROM orders",
];

const READS: [&str; 6] = [
    ":rows v_sel",
    ":rows v_join",
    ":rows v_distinct",
    ":rows v_sum",
    "SELECT id, customer, qty FROM orders",
    "SELECT customer, region FROM cust",
];

const CUSTOMERS: i64 = 12;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("balg-spares-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn catalog() -> Catalog {
    Catalog::new()
        .with_table(
            "orders",
            &[("id", true), ("customer", false), ("qty", true)],
        )
        .with_table("cust", &[("customer", false), ("region", false)])
}

/// Order `id`'s row: every customer is in `cust`, and the quantity cycles
/// through `0..16`, so half the rows pass `v_sel`'s filter.
fn order(id: i64) -> String {
    format!("({id}, 'c{}', {})", id % CUSTOMERS, id % 16)
}

/// A fresh bag of `cust` rows, every customer in `region`.
fn cust_in(region: &str) -> Bag {
    let rows = (0..CUSTOMERS)
        .map(|c| vec![SqlValue::Str(format!("c{c}")), SqlValue::Str(region.into())])
        .collect();
    let db = database_from_rows(&catalog(), &[("cust", rows)]).unwrap();
    db.get("cust").unwrap().clone()
}

/// A copy of `db` that shares no slice with it.
fn deep_copy(db: &Database) -> Database {
    let mut copy = Database::new();
    for (name, bag) in db.iter() {
        copy.insert(
            name,
            Bag::from_counted(bag.iter().map(|(v, m)| (v.clone(), m.clone()))),
        );
    }
    copy
}

/// A snapshot held until a later seq, with the twin's replies at its seq.
struct Pin {
    snapshot: Snapshot,
    expected: Vec<Reply>,
    until: u64,
}

struct Harness {
    dir: PathBuf,
    rt: SqlRuntime,
    seq: u64,
    twin: SerialTwin,
    pins: Vec<Pin>,
}

impl Harness {
    fn new(tag: &str) -> Harness {
        let dir = scratch(tag);
        let rt = SqlRuntime::open(&catalog(), &dir, Limits::default()).unwrap();
        let db = database_from_rows(&catalog(), &[]).unwrap();
        let twin = SerialTwin::new(catalog(), db, Limits::default());
        let mut harness = Harness {
            dir,
            rt,
            seq: 0,
            twin,
            pins: Vec::new(),
        };
        let orders: Vec<String> = (0..96).map(order).collect();
        harness.write(&format!("INSERT INTO orders VALUES {}", orders.join(", ")));
        let custs: Vec<String> = (0..CUSTOMERS)
            .map(|c| format!("('c{c}', 'north')"))
            .collect();
        harness.write(&format!("INSERT INTO cust VALUES {}", custs.join(", ")));
        for view in VIEWS {
            harness.write(view);
        }
        harness
    }

    /// One write on the runtime and on the twin.
    fn write(&mut self, line: &str) {
        let reply = execute_write(&mut self.rt, line);
        assert!(reply.ok, "{line}: {}", reply.text);
        assert_eq!(reply, self.twin.execute(line), "{line}");
        self.seq += 1;
    }

    /// The twin's replies now.
    fn expected(&mut self) -> Vec<Reply> {
        READS.iter().map(|line| self.twin.execute(line)).collect()
    }

    /// Publish a snapshot and hold it for `hold` more seqs.
    fn pin(&mut self, hold: u64) {
        let snapshot = snapshot_of(&self.rt, self.seq);
        let expected = self.expected();
        self.pins.push(Pin {
            snapshot,
            expected,
            until: self.seq.saturating_add(hold),
        });
    }

    /// Release expired pins; every live pin, and a fresh snapshot, must
    /// answer as the twin did at its seq.
    fn check(&mut self) {
        let seq = self.seq;
        self.pins.retain(|pin| pin.until >= seq);
        for pin in &self.pins {
            for (line, expected) in READS.iter().zip(&pin.expected) {
                let reply = execute_read(&pin.snapshot, line);
                assert_eq!(
                    &reply, expected,
                    "{line} on the snapshot of seq {}",
                    pin.snapshot.seq
                );
            }
        }
        let fresh = snapshot_of(&self.rt, seq);
        let expected = self.expected();
        for (line, expected) in READS.iter().zip(&expected) {
            assert_eq!(&execute_read(&fresh, line), expected, "{line} at seq {seq}");
        }
    }

    /// Writes that insert new orders, delete original ones and duplicate
    /// others, each snapshot pinned for 0–3 seqs.
    fn churn(&mut self, from: i64, writes: i64) {
        for i in from..from + writes {
            let line = match i % 3 {
                0 => format!("INSERT INTO orders VALUES {}", order(1000 + i)),
                1 => format!("DELETE FROM orders VALUES {}", order(i % 96)),
                _ => format!("INSERT INTO orders VALUES {}", order((i * 7) % 96)),
            };
            self.write(&line);
            self.pin((i % 4) as u64);
            self.check();
        }
    }

    /// Replace `name` wholesale, on the runtime and (as a fresh twin over
    /// a copy of the new database) on the oracle.
    fn load_base(&mut self, name: &str, bag: Bag) {
        self.rt.backend_mut().load_base(name, bag).unwrap();
        self.seq += 1;
        let db = deep_copy(self.rt.runtime().database());
        self.twin = SerialTwin::new(catalog(), db, Limits::default());
        for view in VIEWS {
            assert!(self.twin.execute(view).ok);
        }
        self.check();
    }

    /// Reopen the runtime from its directory: snapshot plus WAL replay.
    fn recover(&mut self) {
        self.rt.backend_mut().sync_wal().unwrap();
        let closed = SqlRuntime::new(Catalog::new(), Database::new());
        drop(std::mem::replace(&mut self.rt, closed));
        self.rt = SqlRuntime::open(&catalog(), &self.dir, Limits::default()).unwrap();
        self.check();
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn pinned_snapshots_survive_writes_rebases_and_recovery() {
    let mut h = Harness::new("pins");
    h.pin(u64::MAX);
    h.churn(0, 24);
    h.pin(u64::MAX);
    h.load_base("cust", cust_in("south"));
    h.churn(24, 12);
    h.pin(u64::MAX);
    let orders = h.rt.runtime().database().get("orders").unwrap().clone();
    let fewer = Bag::from_counted(orders.iter().skip(8).map(|(v, m)| (v.clone(), m.clone())));
    drop(orders);
    h.load_base("orders", fewer);
    h.churn(36, 12);
    h.pin(u64::MAX);
    h.recover();
    h.churn(48, 12);
    assert_eq!(h.pins.iter().filter(|pin| pin.until == u64::MAX).count(), 4);
}

/// `v_distinct` takes the pointwise rule, which patches its root through
/// the root's spare: writes that give an order to a customer no order had,
/// and delete a customer's last order, add and remove its rows. Snapshots
/// pinned across those writes still read the rows they were published
/// with, and the view never re-derives.
#[test]
fn pinned_snapshots_of_a_distinct_view_keep_their_rows() {
    let mut h = Harness::new("distinct");
    let mut replies = std::collections::BTreeSet::new();
    for k in 0..9i64 {
        let order = |k: i64| format!("({}, 'new{}', 1)", 2000 + k, k % 3);
        h.write(&format!("INSERT INTO orders VALUES {}", order(k)));
        h.pin(if k % 3 == 0 { u64::MAX } else { 2 });
        h.check();
        if k % 2 == 1 {
            h.write(&format!("DELETE FROM orders VALUES {}", order(k - 1)));
            h.pin(u64::MAX);
            h.check();
        }
        let fresh = snapshot_of(&h.rt, h.seq);
        replies.insert(execute_read(&fresh, ":rows v_distinct").text);
    }
    assert!(
        replies.len() >= 4,
        "the distinct rows barely moved: {replies:?}"
    );
    let stats = h.rt.runtime().stats().views;
    assert!(stats.pointwise_delta_ops > 0, "{stats:?}");
    assert_eq!(stats.fallback_recomputes, 0, "{stats:?}");
}

type Pair = (balg_core::value::Value, balg_core::natural::Natural);

/// `orders` and the `v_sel` and `v_join` roots.
fn watched(snapshot: &Snapshot) -> [&Bag; 3] {
    [
        snapshot.db.get("orders").unwrap(),
        &snapshot.views["v_sel"].0,
        &snapshot.views["v_join"].0,
    ]
}

#[test]
fn each_write_patches_the_buffers_the_snapshot_before_last_held() {
    let mut h = Harness::new("reuse");
    h.churn(0, 6);
    h.load_base("cust", cust_in("east"));
    h.recover();
    h.pins.clear();
    // Row 9 passes `v_sel`'s filter and joins `cust`, so each write
    // changes all three bags, by one multiplicity of an existing key.
    let row = order(9);
    let mut published = snapshot_of(&h.rt, h.seq);
    let mut held: Vec<[*const Pair; 3]> = vec![watched(&published).map(|bag| bag.pairs().as_ptr())];
    // After each publication, one empty buffer of each watched bag's size
    // takes any buffer of that size the publication freed, so a write that
    // copies cannot come back to a recycled address.
    let mut decoys: Vec<Vec<Pair>> = Vec::new();
    for k in 1..12 {
        let verb = if k % 2 == 1 {
            "INSERT INTO"
        } else {
            "DELETE FROM"
        };
        h.write(&format!("{verb} orders VALUES {row}"));
        published = snapshot_of(&h.rt, h.seq);
        let bags = watched(&published);
        decoys.extend(bags.map(|bag| Vec::with_capacity(bag.distinct_count())));
        held.push(bags.map(|bag| bag.pairs().as_ptr()));
        if k >= 2 {
            assert_eq!(
                held[k],
                held[k - 2],
                "write {k} copied instead of reusing: {held:?}"
            );
        }
        h.check();
    }
}
