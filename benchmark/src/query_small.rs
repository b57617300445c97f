//! `query_small`: SQL statements against a pinned snapshot of a 256-row
//! database, in-process. Each op is ~20 µs of which the evaluation
//! kernels are the small part: lexing, parsing, compiling, building an
//! evaluator, decoding and rendering are what is measured. A statement
//! cache or a cheaper renderer shows here and must not move
//! `query_large`.

use std::time::Instant;

use balg_core::eval::Limits;
use balg_server::{execute_read, route, snapshot_of, Reply, Route, SerialTwin, Snapshot};
use balg_sql::prelude::SqlRuntime;

use crate::gen::{customer_name, weighted_schedule, SqlData, QTY_MAX};
use crate::harness::{
    class_layers, end_to_end, phase, Config, Layers, Measured, TraceWindow, Volumes,
};
use crate::manifest::Class;
use crate::rng::Rng;
use crate::span::Tracer;
use crate::staged;
use crate::stats::Sample;

pub const NAME: &str = "query_small";
pub const GATED: Class = Class::PointSelect;
pub const CLASSES: [Class; 5] = [
    Class::PointSelect,
    Class::RangeSelect,
    Class::AggSum,
    Class::Distinct,
    Class::ViewRows,
];

const ORDERS: usize = 256;
const CUSTOMERS: usize = 32;
const RANGE_WIDTH: usize = 32;
const VIEW: &str = "CREATE VIEW big AS SELECT id, customer FROM orders WHERE qty >= 8";
/// The schedule is this many slots, cycled.
const SCHEDULE: usize = 2000;
/// The warm-up is ≥ 1 s of work on the reference host; a segment is ten
/// cycles of the schedule, about 0.7 s.
const VOLUMES: Volumes = Volumes {
    warmup: 15 * SCHEDULE,
    segment: 10 * SCHEDULE,
    min_segments: 5,
    capacity: 4_000_000,
};
/// Ops of the traced window; the program's counters over it are exact.
const TRACED_OPS: usize = 20_000;

/// Everything derived from the seed, before any clock starts.
pub struct Inputs {
    data: SqlData,
    statements: Vec<String>,
    /// `(class, index into statements)`.
    schedule: Vec<(Class, usize)>,
    /// The oracle: one `SerialTwin` reply per distinct statement.
    pub expected: Vec<Reply>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let data = SqlData::new(&mut Rng::new(seed, 0x51), ORDERS, CUSTOMERS);
        let mut statements = Vec::new();
        let mut pools: Vec<(Class, std::ops::Range<usize>)> = Vec::new();
        let mut pool = |class, lines: Vec<String>| {
            let start = statements.len();
            statements.extend(lines);
            pools.push((class, start..statements.len()));
        };
        pool(
            Class::PointSelect,
            (0..ORDERS)
                .map(|id| format!("SELECT customer, qty FROM orders WHERE id = {id}"))
                .collect(),
        );
        pool(
            Class::RangeSelect,
            (0..ORDERS - RANGE_WIDTH)
                .map(|lo| {
                    format!(
                        "SELECT id, qty FROM orders WHERE id >= {lo} AND id < {}",
                        lo + RANGE_WIDTH
                    )
                })
                .collect(),
        );
        pool(
            Class::AggSum,
            (0..CUSTOMERS)
                .map(|c| {
                    format!(
                        "SELECT SUM(qty) FROM orders WHERE customer = '{}'",
                        customer_name(c)
                    )
                })
                .collect(),
        );
        pool(
            Class::Distinct,
            (2..=QTY_MAX)
                .map(|q| format!("SELECT DISTINCT customer FROM orders WHERE qty >= {q}"))
                .collect(),
        );
        pool(Class::ViewRows, vec![":rows big".to_owned()]);

        let mut rng = Rng::new(seed, 0x52);
        let classes = weighted_schedule(
            &mut rng,
            SCHEDULE,
            &[
                (Class::PointSelect, 50),
                (Class::RangeSelect, 15),
                (Class::AggSum, 15),
                (Class::Distinct, 10),
                (Class::ViewRows, 10),
            ],
        );
        let schedule = classes
            .into_iter()
            .map(|class| {
                let range = &pools
                    .iter()
                    .find(|(c, _)| *c == class)
                    .expect("pooled class")
                    .1;
                (class, range.start + rng.below(range.len() as u64) as usize)
            })
            .collect();

        let mut twin = SerialTwin::new(SqlData::catalog(), data.database(), Limits::default());
        assert!(twin.execute(VIEW).ok, "oracle view registers");
        let expected = statements.iter().map(|line| twin.execute(line)).collect();
        Inputs {
            data,
            statements,
            schedule,
            expected,
        }
    }

    /// Calls into the program before the measured phase: load the tables,
    /// register the view, pin the snapshot.
    fn snapshot(&self) -> Snapshot {
        let mut rt = SqlRuntime::new(SqlData::catalog(), self.data.database());
        rt.set_parallel_threads(1);
        rt.execute(VIEW).expect("view registers");
        snapshot_of(&rt, 0)
    }

    fn slot(&self, op: usize) -> (Class, usize) {
        self.schedule[op % self.schedule.len()]
    }

    /// One top-level op: `route` + `execute_read`, timed; the reply is
    /// compared with the oracle outside the timed region.
    pub fn top_level(&self, snap: &Snapshot, op: usize) -> Sample {
        let (class, index) = self.slot(op);
        let line = &self.statements[index];
        let start = Instant::now();
        let kind = route(line);
        let reply = execute_read(snap, line);
        let ns = start.elapsed().as_nanos() as u64;
        Sample {
            class: class as u8,
            ns,
            ok: kind == Route::Read && reply.ok && reply == self.expected[index],
        }
    }

    /// The same op as its chain of stage calls, one span each.
    fn staged(&self, tracer: &mut Tracer, snap: &Snapshot, op: usize) -> Sample {
        let (class, index) = self.slot(op);
        let start = Instant::now();
        let reply = staged::read(tracer, op, snap, &self.statements[index]);
        let ns = start.elapsed().as_nanos() as u64;
        Sample {
            class: class as u8,
            ns,
            ok: reply.ok && reply == self.expected[index],
        }
    }
}

pub fn run(cfg: &Config) -> Measured {
    let inputs = Inputs::new(cfg.seed);
    end_to_end(
        cfg,
        &VOLUMES,
        || inputs.snapshot(),
        |snap, op| inputs.top_level(snap, op),
        |_, _| (0, 0),
    )
}

pub fn trace(cfg: &Config, layers: &mut Layers) -> Measured {
    let inputs = Inputs::new(cfg.seed);
    let plain = phase(
        cfg,
        &VOLUMES,
        cfg.seconds / 2.0,
        &mut || inputs.snapshot(),
        &mut |snap, op| inputs.top_level(snap, op),
    );
    class_layers(&plain.samples, &CLASSES, layers);

    let mut window = TraceWindow::open(cfg.ops(TRACED_OPS), 10);
    let traced = window.run(cfg.ops(VOLUMES.warmup), &mut |tracer, op| {
        inputs.staged(tracer, &plain.session, op)
    });
    window.close(cfg, NAME, VOLUMES.segment, &plain.samples, &traced, layers);
    Measured {
        setup_s: plain.setup_s,
        peak_rss_mb: plain.peak_rss_mb,
        samples: plain.samples,
        segment_ops: VOLUMES.segment,
        other_failed: plain.warm.failed + traced.failed,
        other_attempted: plain.warm.attempted() + traced.attempted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;

    #[test]
    fn a_corrupted_expected_reply_is_a_failed_op_and_a_failed_run() {
        let mut inputs = Inputs::new(1);
        let snap = inputs.snapshot();
        let mut clean = Samples::with_capacity(0);
        clean.run_count(&mut 0, SCHEDULE, &mut |op| inputs.top_level(&snap, op));
        assert_eq!((clean.attempted(), clean.failed), (SCHEDULE as u64, 0));
        assert!(crate::verdict(clean.attempted(), clean.failed));

        // One wrong byte in the oracle's reply for the statement of slot 3.
        let (_, index) = inputs.slot(3);
        inputs.expected[index].text.push('x');
        let mut samples = Samples::with_capacity(0);
        samples.run_count(&mut 0, SCHEDULE, &mut |op| inputs.top_level(&snap, op));
        assert!(samples.failed >= 1);
        assert_eq!(
            samples.attempted(),
            SCHEDULE as u64,
            "failed ops still count as attempted"
        );
        assert!(
            !crate::verdict(samples.attempted(), samples.failed),
            "the run exits non-zero"
        );
    }

    #[test]
    fn staged_replies_equal_top_level_replies_for_every_statement() {
        let inputs = Inputs::new(2);
        let snap = inputs.snapshot();
        let mut tracer = Tracer::with_capacity(SCHEDULE * 10);
        let mut samples = Samples::with_capacity(0);
        samples.run_count(&mut 0, SCHEDULE, &mut |op| {
            inputs.staged(&mut tracer, &snap, op)
        });
        assert_eq!(samples.failed, 0);
        let roots = tracer.spans().iter().filter(|s| s.parent == 0).count();
        assert_eq!(roots, SCHEDULE, "one root span per op");
    }
}
