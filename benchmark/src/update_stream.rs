//! `update_stream`: single-statement commits against a durable runtime
//! with four maintained views, fsync on every commit and the default
//! checkpoint policy. The write path does all the work: validate → WAL
//! encode → append → fsync → maintain per view → checkpoint → recover.
//! It uses `core.eval`/`core.index` differently from `query_large`
//! (delta maintenance and index patching against full evaluation and
//! index build), so a kernel change that helps reads but hurts deltas
//! shows here.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use balg_core::eval::Limits;
use balg_incremental::CheckpointPolicy;
use balg_server::{execute_write, route, Reply, Route};
use balg_sql::prelude::{QueryResult, SqlRuntime};

use crate::gen::{weighted_schedule, Order, SqlData, QTY_MAX};
use crate::harness::{
    class_layers, end_to_end, phase, Config, Layers, Measured, TraceWindow, Volumes,
};
use crate::manifest::Class;
use crate::rng::Rng;
use crate::span::Tracer;
use crate::staged;
use crate::stats::{median, ns_to_ms, ns_to_us, Sample};

pub const NAME: &str = "update_stream";
pub const GATED: Class = Class::InsertCommit;
pub const CLASSES: [Class; 4] = [
    Class::InsertCommit,
    Class::DeleteCommit,
    Class::BatchInsert,
    Class::BatchDelete,
];

const ORDERS: usize = 2048;
const CUSTOMERS: usize = 256;
const BATCH_ROWS: usize = 16;
/// Linear σ/π, fused equi-join, non-linear `DISTINCT`, scalar `SUM`.
pub const VIEWS: [(&str, &str); 4] = [
    ("v_sel", "CREATE VIEW v_sel AS SELECT id, customer FROM orders WHERE qty >= 8"),
    (
        "v_join",
        "CREATE VIEW v_join AS SELECT o.id, c.region FROM orders o, cust c WHERE o.customer = c.customer",
    ),
    ("v_distinct", "CREATE VIEW v_distinct AS SELECT DISTINCT customer FROM orders"),
    ("v_sum", "CREATE VIEW v_sum AS SELECT SUM(qty) FROM orders"),
];
const SCHEDULE: usize = 200;
/// Four checkpoint intervals of the default policy (1 024 batches).
const TRACED_OPS: usize = 4096;

/// The warm-up makes a set-up ≥ 1 s on the reference host. A segment is
/// as many whole schedule cycles as cover one checkpoint interval of the
/// default policy (1 200 ops for 1 024 batches, about 0.5 s), so every
/// segment pays for at least one checkpoint: making them rarer and
/// costlier lengthens the segments and cannot read as a gain.
fn volumes() -> Volumes {
    let interval = CheckpointPolicy::default().max_batches.max(1) as usize;
    Volumes {
        warmup: 10 * SCHEDULE,
        segment: interval.div_ceil(SCHEDULE) * SCHEDULE,
        min_segments: 4,
        capacity: 1_000_000,
    }
}

/// The seeded statement stream. Deletes remove the oldest live row, so
/// the table holds `ORDERS` rows at the end of every schedule cycle and
/// never strays far from it inside one.
#[derive(Clone)]
pub struct Stream {
    rng: Rng,
    schedule: Vec<Class>,
    live: VecDeque<Order>,
    next_id: i64,
    customers: usize,
}

impl Stream {
    pub fn new(seed: u64, data: &SqlData) -> Stream {
        let mut rng = Rng::new(seed, 0x71);
        let schedule = weighted_schedule(
            &mut rng,
            SCHEDULE,
            &[
                (Class::InsertCommit, 45),
                (Class::DeleteCommit, 45),
                (Class::BatchInsert, 5),
                (Class::BatchDelete, 5),
            ],
        );
        let mut live: Vec<Order> = data.orders.clone();
        rng.shuffle(&mut live);
        Stream {
            rng,
            schedule,
            live: live.into(),
            next_id: data.orders.len() as i64,
            customers: data.customers,
        }
    }

    /// The id of a row that is in the table right now.
    pub fn live_id(&mut self) -> i64 {
        self.live[self.rng.below(self.live.len() as u64) as usize].id
    }

    /// A write of `class`: `(line, expected reply)`.
    pub fn statement(&mut self, class: Class) -> (String, Reply) {
        let rows = match class {
            Class::BatchInsert | Class::BatchDelete => BATCH_ROWS,
            _ => 1,
        };
        let insert = matches!(class, Class::InsertCommit | Class::BatchInsert);
        let literals: Vec<String> = (0..rows)
            .map(|_| {
                if insert {
                    let order = Order {
                        id: self.next_id,
                        customer: self.rng.below(self.customers as u64) as usize,
                        qty: 1 + self.rng.below(QTY_MAX as u64) as i64,
                    };
                    self.next_id += 1;
                    self.live.push_back(order.clone());
                    order.literal()
                } else {
                    self.live
                        .pop_front()
                        .expect("schedule keeps rows live")
                        .literal()
                }
            })
            .collect();
        if insert {
            (
                format!("INSERT INTO orders VALUES {}", literals.join(", ")),
                Reply::ok(format!("orders: +{rows} -0")),
            )
        } else {
            (
                format!("DELETE FROM orders VALUES {}", literals.join(", ")),
                Reply::ok(format!("orders: +0 -{rows}")),
            )
        }
    }

    /// Statement `op` of the stream: `(class, line, expected reply)`.
    pub fn next(&mut self, op: usize) -> (Class, String, Reply) {
        let class = self.schedule[op % self.schedule.len()];
        let (line, expected) = self.statement(class);
        (class, line, expected)
    }
}

/// A durable runtime over a scratch directory that goes when it does.
struct Session {
    rt: Option<SqlRuntime>,
    stream: Stream,
    dir: PathBuf,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.rt = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Load the generated tables and register [`VIEWS`] on `rt`.
pub fn load(rt: &mut SqlRuntime, data: &SqlData) {
    rt.set_parallel_threads(1);
    for (name, bag) in data.database().iter() {
        rt.backend_mut()
            .load_base(name, bag.clone())
            .expect("base loads");
    }
    for (name, create) in VIEWS {
        rt.execute(create)
            .unwrap_or_else(|e| panic!("{name} registers: {e}"));
        // An empty view here means the tables did not load: every reply
        // after it would be fast and meaningless.
        assert!(
            rt.view_rows(name).expect("view reads").total_rows() > 0,
            "{name} is empty"
        );
    }
}

impl Session {
    /// Calls into the program before the measured phase: open a fresh
    /// directory, load the tables through the runtime (a `db` argument
    /// would be ignored for tables the catalog declares), register the
    /// views, `CHECKPOINT`.
    fn open(cfg: &Config, data: &SqlData, stream: &Stream, tag: &str) -> Session {
        let dir = cfg.scratch(NAME, tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut rt = SqlRuntime::open(&SqlData::catalog(), &dir, Limits::default())
            .expect("data directory opens");
        load(&mut rt, data);
        rt.execute("CHECKPOINT").expect("checkpoint");
        Session {
            rt: Some(rt),
            stream: stream.clone(),
            dir,
        }
    }

    fn rt(&mut self) -> &mut SqlRuntime {
        self.rt.as_mut().expect("session is open")
    }

    /// One top-level op: `route` + `execute_write`, statement text in →
    /// ack out, fsync included.
    fn top_level(&mut self, op: usize) -> Sample {
        let (class, line, expected) = self.stream.next(op);
        let rt = self.rt.as_mut().expect("session is open");
        let start = Instant::now();
        let kind = route(&line);
        let reply = execute_write(rt, &line);
        let ns = start.elapsed().as_nanos() as u64;
        Sample {
            class: class as u8,
            ns,
            ok: kind == Route::Write && reply == expected,
        }
    }

    fn view_rows(&mut self) -> Vec<QueryResult> {
        VIEWS
            .iter()
            .map(|(name, _)| self.rt().view_rows(name).expect("view reads"))
            .collect()
    }

    /// End-of-run oracle: `:check`, then close and re-open `reopens`
    /// times; every recovered runtime must hold the never-closed one's
    /// view rows.
    fn check_and_recover(mut self, reopens: usize) -> Recovery {
        let mut failed = u64::from(execute_write(self.rt(), ":check") != Reply::ok("consistent"));
        let live_rows = self.view_rows();
        self.rt = None;
        let mut seconds = Vec::with_capacity(reopens);
        let mut replayed = 0;
        for _ in 0..reopens {
            let start = Instant::now();
            let reopened = SqlRuntime::open(&SqlData::catalog(), &self.dir, Limits::default());
            seconds.push(start.elapsed().as_secs_f64());
            match reopened {
                Ok(rt) => {
                    replayed = rt.durability().map_or(0, |d| d.replayed_batches);
                    self.rt = Some(rt);
                    failed += u64::from(self.view_rows() != live_rows);
                    self.rt = None;
                }
                Err(_) => failed += 1,
            }
        }
        Recovery {
            checks: 1 + reopens as u64,
            failed,
            seconds,
            replayed,
        }
    }
}

/// What [`Session::check_and_recover`] found.
struct Recovery {
    /// Checks made (`:check` and one per re-open) and how many failed.
    checks: u64,
    failed: u64,
    /// Seconds each `SqlRuntime::open` took.
    seconds: Vec<f64>,
    /// Batches the last re-open replayed from the WAL.
    replayed: u64,
}

pub fn run(cfg: &Config) -> Measured {
    let data = SqlData::new(&mut Rng::new(cfg.seed, 0x70), ORDERS, CUSTOMERS);
    let stream = Stream::new(cfg.seed, &data);
    end_to_end(
        cfg,
        &volumes(),
        || Session::open(cfg, &data, &stream, "run"),
        Session::top_level,
        |session, _| {
            let recovery = session.check_and_recover(1);
            (recovery.failed, recovery.checks)
        },
    )
}

/// The memory twin of the traced session: it is fed the same batches, so
/// `commit − apply` is what logging costs, and it must end with the same
/// view rows. It runs after the traced window, not inside it: the
/// window's counters are the durable runtime's alone.
struct Twin {
    rt: SqlRuntime,
    stream: Stream,
}

impl Twin {
    fn new(data: &SqlData, stream: &Stream) -> Twin {
        let mut rt = SqlRuntime::new(SqlData::catalog(), data.database());
        load(&mut rt, data);
        Twin {
            rt,
            stream: stream.clone(),
        }
    }

    /// Apply the batch of stream statement `op`.
    fn apply(&mut self, op: usize, timed: Option<&mut Tracer>) -> bool {
        let (_, line, _) = self.stream.next(op);
        let batch = staged::batch_of(&self.rt, &line).expect("stream statements encode");
        let mut apply = || self.rt.backend_mut().apply(&batch).is_ok();
        match timed {
            Some(tracer) => tracer.span("incremental.runtime.apply", op, apply),
            None => apply(),
        }
    }

    fn rows(&self) -> Vec<QueryResult> {
        VIEWS
            .iter()
            .map(|(name, _)| self.rt.view_rows(name).expect("twin view reads"))
            .collect()
    }
}

impl Session {
    /// One staged write; `user_bytes` grows by the statement text.
    fn staged(&mut self, tracer: &mut Tracer, user_bytes: &mut usize, op: usize) -> Sample {
        let (class, line, expected) = self.stream.next(op);
        *user_bytes += line.len();
        let start = Instant::now();
        let reply = staged::write(tracer, op, self.rt(), &line);
        let ns = start.elapsed().as_nanos() as u64;
        Sample {
            class: class as u8,
            ns,
            ok: reply == expected,
        }
    }
}

pub fn trace(cfg: &Config, layers: &mut Layers) -> Measured {
    let data = SqlData::new(&mut Rng::new(cfg.seed, 0x70), ORDERS, CUSTOMERS);
    let stream = Stream::new(cfg.seed, &data);
    let volumes = volumes();
    let plain = phase(
        cfg,
        &volumes,
        cfg.seconds / 2.0,
        &mut || Session::open(cfg, &data, &stream, "plain"),
        &mut Session::top_level,
    );
    let (untraced, mut warm) = (plain.samples, plain.warm);
    let plain_recovery = plain.session.check_and_recover(1);
    class_layers(&untraced, &CLASSES, layers);

    // The traced window starts from a fresh session at a fixed op, so the
    // stream's state — and with it every byte logged — is the same on
    // every run at this seed.
    let ops = cfg.ops(TRACED_OPS);
    let first = cfg.ops(volumes.warmup);
    let mut window = TraceWindow::open(ops, 12);
    let mut session = Session::open(cfg, &data, &stream, "traced");
    warm.run_count(&mut 0, first, &mut |op| session.top_level(op));
    // The fsync becomes a stage of its own, as in the server's writer.
    session.rt().backend_mut().set_sync_on_commit(false);
    let fsync = window.registry.histogram("balg_wal_fsync_duration_ns");
    let checkpoint = window.registry.histogram("balg_checkpoint_duration_ns");
    let (fsyncs_before, checkpoints_before, checkpoint_ns_before) =
        (fsync.count(), checkpoint.count(), checkpoint.sum());
    let mut user_bytes = 0;
    let traced = window.run(first, &mut |tracer, op| {
        session.staged(tracer, &mut user_bytes, op)
    });
    let fsyncs = (fsync.count() - fsyncs_before) as f64;
    let checkpoints = (checkpoint.count() - checkpoints_before) as f64;
    let checkpoint_ns = checkpoint.sum() - checkpoint_ns_before;

    let mut twin = Twin::new(&data, &stream);
    let mut twin_failed = (0..first).filter(|&op| !twin.apply(op, None)).count() as u64;
    twin_failed += (first..first + ops)
        .filter(|&op| !twin.apply(op, Some(&mut window.tracer)))
        .count() as u64;
    twin_failed += u64::from(session.view_rows() != twin.rows());
    window.close(cfg, NAME, volumes.segment, &untraced, &traced, layers);

    let wal_bytes = window.counted("balg_wal_bytes_total");
    let commit_max = window
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "incremental.durable.commit")
        .map(|s| s.end_ns - s.start_ns)
        .max()
        .unwrap_or(0);
    let recovery = session.check_and_recover(5);
    let mut put = |name: &str, value: f64| layers.insert(name.to_owned(), value);
    put("core.wal.bytes_total", wal_bytes);
    put("core.wal.bytes_per_op", wal_bytes / ops as f64);
    put(
        "core.wal.bytes_per_user_byte",
        wal_bytes / user_bytes.max(1) as f64,
    );
    put("core.wal.fsyncs", fsyncs);
    put("core.wal.fsync_p50_us", ns_to_us(fsync.quantile(0.5)));
    put("incremental.durable.checkpoints", checkpoints);
    put(
        "incremental.durable.checkpoint_ms",
        ns_to_ms(checkpoint_ns) / checkpoints.max(1.0),
    );
    put(
        "incremental.durable.checkpoint_stall_max_ms",
        ns_to_ms(commit_max),
    );
    put(
        "incremental.durable.open_ms",
        median(&recovery.seconds) * 1e3,
    );
    put(
        "incremental.durable.replayed_batches",
        recovery.replayed as f64,
    );
    Measured {
        setup_s: plain.setup_s,
        peak_rss_mb: plain.peak_rss_mb,
        samples: untraced,
        segment_ops: volumes.segment,
        other_failed: warm.failed
            + traced.failed
            + plain_recovery.failed
            + twin_failed
            + recovery.failed,
        other_attempted: warm.attempted()
            + traced.attempted()
            + plain_recovery.checks
            + 1
            + recovery.checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_sql::prelude::{parse_statement, Statement};

    #[test]
    fn the_stream_is_seeded_balanced_and_parses() {
        let data = SqlData::new(&mut Rng::new(5, 0x70), ORDERS, CUSTOMERS);
        let mut stream = Stream::new(5, &data);
        let mut again = stream.clone();
        let mut classes = [0usize; 4];
        for op in 0..2 * SCHEDULE {
            let (class, line, expected) = stream.next(op);
            assert_eq!((class, line.clone()), {
                let (c, l, _) = again.next(op);
                (c, l)
            });
            assert!(expected.ok);
            assert!(matches!(
                parse_statement(&line),
                Ok(Statement::Insert { .. } | Statement::Delete { .. })
            ));
            classes[CLASSES.iter().position(|c| *c == class).unwrap()] += 1;
        }
        assert_eq!(classes, [180, 180, 20, 20]);
        assert_eq!(
            stream.live.len(),
            ORDERS,
            "the table is back at its size after whole cycles"
        );
        let other = Stream::new(6, &data).next(0).1;
        assert_ne!(
            other,
            Stream::new(5, &data).next(0).1,
            "another seed, another stream"
        );
    }

    #[test]
    fn smoke_run_commits_checks_and_recovers() {
        let cfg = Config {
            seed: 3,
            seconds: 0.2,
            smoke: true,
            out_dir: std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        };
        std::fs::create_dir_all(&cfg.out_dir).unwrap();
        let measured = run(&cfg);
        assert_eq!(measured.samples.failed + measured.other_failed, 0);
        let volumes = volumes();
        assert!(
            measured.samples.attempted()
                >= (volumes.min_segments * cfg.ops(volumes.segment)) as u64
        );
        assert!(
            volumes.segment as u64 >= CheckpointPolicy::default().max_batches,
            "a segment covers a checkpoint interval"
        );
        assert!(
            !cfg.scratch(NAME, "run").exists(),
            "the data directory is removed"
        );
    }
}
