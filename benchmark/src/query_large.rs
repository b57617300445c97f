//! `query_large`: BALG analytics over bags of 32 768 binary tuples
//! (8× `par::DEFAULT_THRESHOLD`, ≈ 3 MB: large enough for every
//! partitioned kernel and index path to engage, small enough to repeat),
//! plus the paper's two intractability levers (`ifp`, `powerset`) and one
//! SQL join, which the SQL compiler does not fuse. Evaluation is over
//! 99 % of each op; the front end is noise.

use std::time::Instant;

use balg_core::analyze::analyze;
use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::parse::parse_expr;
use balg_core::schema::{Database, Schema};
use balg_core::types::Type;
use balg_server::{execute_read, route, snapshot_of, Reply, SerialTwin, Snapshot};
use balg_sql::prelude::SqlRuntime;

use crate::gen::{
    shape_closure, shape_join_on_first, shape_keys, shape_merge, shape_select_lt, LargeData, Shape,
    SqlData, POWERSET_ELEMENTS,
};
use crate::harness::{
    class_layers, end_to_end, phase, run_ops, Config, Layers, Measured, TraceWindow, Volumes,
};
use crate::manifest::{Class, LARGE_CLASSES};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::staged;
use crate::stats::{ns_to_ms, percentile, Sample};

pub const NAME: &str = "query_large";
pub const GATED: Class = Class::EquiJoin;

const SQL_ORDERS: usize = 512;
const SQL_CUSTOMERS: usize = 64;
const SQL_JOIN: &str =
    "SELECT o.id, c.region FROM orders o, cust c WHERE o.customer = c.customer AND o.qty >= 4";
/// In rounds of eight ops, one per class: a warm-up of 20 rounds (≥ 1 s
/// of work on the reference host), segments of 10 rounds (about 0.6 s),
/// at least 100 rounds measured.
const VOLUMES: Volumes = Volumes {
    warmup: 20 * 8,
    segment: 10 * 8,
    min_segments: 10,
    capacity: 100_000,
};
/// Ops of the traced window (40 rounds); counters over it are exact.
const TRACED_OPS: usize = 40 * 8;

/// The BALG text of a class (`None` for the SQL class).
fn expression(class: Class) -> Option<&'static str> {
    Some(match class {
        Class::ScanSelect => "select(x, lt(attr(x, 1), attr(x, 2)), G)",
        Class::EquiJoin => "select(x, eq(attr(x, 1), attr(x, 3)), product(G, H))",
        Class::Merge => "minus(unionp(G, K), intersect(G, K))",
        Class::DedupProject => "dedup(project(G, 1))",
        Class::Nest => "nest(G, 1)",
        Class::IfpClosure => {
            "ifp(T, dedup(project(select(x, eq(attr(x, 2), attr(x, 3)), product(T, E)), 1, 4)), E)"
        }
        Class::Powerset => "powerset(P)",
        _ => return None,
    })
}

pub struct Inputs {
    large: LargeData,
    sql: SqlData,
    /// The oracle for the BALG classes: result shapes computed naively
    /// from the generator's own rows, in `LARGE_CLASSES` order.
    pub shapes: Vec<Shape>,
    /// The oracle for the SQL class: the `SerialTwin` reply.
    sql_expected: Reply,
}

/// The program state after set-up.
struct Session {
    db: Database,
    snap: Snapshot,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let large = LargeData::new(&mut Rng::new(seed, 0x61));
        let sql = SqlData::new(&mut Rng::new(seed, 0x62), SQL_ORDERS, SQL_CUSTOMERS);
        let subsets = 1u64 << POWERSET_ELEMENTS;
        let shapes = vec![
            shape_select_lt(&large.g),
            shape_join_on_first(&large.g, &large.h),
            shape_merge(&large.g, &large.k),
            shape_keys(&large.g),
            shape_keys(&large.g),
            shape_closure(&large.chain),
            (subsets, subsets),
            (0, 0),
        ];
        let mut twin = SerialTwin::new(SqlData::catalog(), sql.database(), Limits::default());
        let sql_expected = twin.execute(SQL_JOIN);
        assert!(
            sql_expected.ok && sql_expected.text.lines().count() > 100,
            "oracle join has rows"
        );
        Inputs {
            large,
            sql,
            shapes,
            sql_expected,
        }
    }

    fn session(&self) -> Session {
        let mut rt = SqlRuntime::new(SqlData::catalog(), self.sql.database());
        rt.set_parallel_threads(1);
        Session {
            db: self.large.database(),
            snap: snapshot_of(&rt, 0),
        }
    }

    /// Rounds of the eight classes, one op each, in a fixed order: with
    /// every class in every round no class misses a phase of the host,
    /// and a seeded order would make heap layout, peak RSS and what each
    /// op finds in the caches depend on the seed.
    fn class(&self, op: usize) -> Class {
        LARGE_CLASSES[op % LARGE_CLASSES.len()]
    }

    fn shape_ok(&self, class: Class, result: &Result<Bag, EvalError>) -> bool {
        let index = LARGE_CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("large class");
        result.as_ref().is_ok_and(|bag| {
            (
                bag.distinct_count() as u64,
                bag.cardinality().to_u64().unwrap_or(u64::MAX),
            ) == self.shapes[index]
        })
    }

    /// One top-level op at partition count `partitions`: `parse_expr` +
    /// `Evaluator::eval_bag` (a fresh evaluator per expression, as the
    /// REPL and the SQL layer make one), or `execute_read` for the SQL
    /// class.
    fn top_level(&self, session: &Session, partitions: usize, op: usize) -> Sample {
        let class = self.class(op);
        let start = Instant::now();
        let (ns, ok) = match expression(class) {
            Some(text) => {
                let expr = parse_expr(text).expect("class expressions parse");
                let mut evaluator = Evaluator::new(&session.db, Limits::default());
                evaluator.set_parallel_threads(partitions);
                let result = evaluator.eval_bag(&expr);
                (
                    start.elapsed().as_nanos() as u64,
                    self.shape_ok(class, &result),
                )
            }
            None => {
                route(SQL_JOIN);
                let reply = execute_read(&session.snap, SQL_JOIN);
                (
                    start.elapsed().as_nanos() as u64,
                    reply == self.sql_expected,
                )
            }
        };
        Sample {
            class: class as u8,
            ns,
            ok,
        }
    }

    fn staged(&self, tracer: &mut Tracer, schema: &Schema, session: &Session, op: usize) -> Sample {
        let class = self.class(op);
        let start = Instant::now();
        let (ns, ok) = match expression(class) {
            Some(text) => {
                tracer.enter("op", op);
                let expr = tracer
                    .span("core.parse.parse_expr", op, || parse_expr(text))
                    .expect("class expressions parse");
                // Not on the evaluation path (the REPL analyzes on
                // request); timed so a regression there is on record.
                let facts = tracer.span("core.analyze.analyze", op, || analyze(&expr, schema));
                let result = tracer.span("core.eval.eval", op, || {
                    let mut evaluator = Evaluator::new(&session.db, Limits::default());
                    evaluator.set_parallel_threads(1);
                    evaluator.eval_bag(&expr)
                });
                let ns = tracer.exit();
                (ns, facts.is_ok() && self.shape_ok(class, &result))
            }
            None => {
                let reply = staged::read(tracer, op, &session.snap, SQL_JOIN);
                (
                    start.elapsed().as_nanos() as u64,
                    reply == self.sql_expected,
                )
            }
        };
        Sample {
            class: class as u8,
            ns,
            ok,
        }
    }
}

fn schema() -> Schema {
    let pairs = Type::bag(Type::atom_tuple(2));
    Schema::new()
        .with("G", pairs.clone())
        .with("K", pairs.clone())
        .with("H", pairs.clone())
        .with("E", pairs)
        .with("P", Type::bag(Type::atom_tuple(1)))
}

pub fn run(cfg: &Config) -> Measured {
    let inputs = Inputs::new(cfg.seed);
    end_to_end(
        cfg,
        &VOLUMES,
        || inputs.session(),
        |session, op| inputs.top_level(session, 1, op),
        |_, _| (0, 0),
    )
}

pub fn trace(cfg: &Config, layers: &mut Layers) -> Measured {
    let inputs = Inputs::new(cfg.seed);
    let plain = phase(
        cfg,
        &VOLUMES,
        cfg.seconds / 2.0,
        &mut || inputs.session(),
        &mut |session, op| inputs.top_level(session, 1, op),
    );
    let (session, untraced) = (plain.session, plain.samples);
    class_layers(&untraced, &LARGE_CLASSES, layers);

    // At least one whole round, in smoke mode too.
    let ops = cfg.ops(TRACED_OPS).max(8);
    let first = cfg.ops(VOLUMES.warmup);
    let schema = schema();
    let mut window = TraceWindow::open(ops, 10);
    let traced = window.run(first, &mut |tracer, op| {
        inputs.staged(tracer, &schema, &session, op)
    });
    window.close(cfg, NAME, VOLUMES.segment, &untraced, &traced, layers);

    // ROADMAP 1(d)/(e) on record: the same ops at the host's default
    // partition count against the pinned-serial medians above.
    let default = balg_core::pool::default_parallelism();
    let before = window.registry.snapshot();
    let parallel = run_ops(first, ops, &mut |op| {
        inputs.top_level(&session, default, op)
    });
    let after = window.registry.snapshot();
    for class in LARGE_CLASSES {
        let serial = percentile(&untraced.sorted_class(class as u8), 0.5);
        let wide = percentile(&parallel.sorted_class(class as u8), 0.5);
        layers.insert(
            format!("core.par.default_vs_serial.{}", class.name()),
            ns_to_ms(wide) / ns_to_ms(serial).max(f64::MIN_POSITIVE),
        );
    }
    layers.insert(
        "core.par.partitions_per_op".into(),
        after.since(&before, "balg_par_partitions_total") / ops as f64,
    );
    layers.insert(
        "core.par.serial_fallbacks".into(),
        after.since(&before, "balg_par_serial_fallbacks_total"),
    );
    Measured {
        setup_s: plain.setup_s,
        peak_rss_mb: plain.peak_rss_mb,
        samples: untraced,
        segment_ops: VOLUMES.segment,
        other_failed: plain.warm.failed + traced.failed + parallel.failed,
        other_attempted: plain.warm.attempted() + traced.attempted() + parallel.attempted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;

    #[test]
    fn every_class_matches_its_naive_shape_and_a_wrong_shape_fails() {
        let mut inputs = Inputs::new(2);
        let session = inputs.session();
        let mut samples = Samples::with_capacity(0);
        samples.run_count(&mut 0, 8, &mut |op| inputs.top_level(&session, 1, op));
        assert_eq!((samples.attempted(), samples.failed), (8, 0));
        // The default partition count computes the same bags.
        samples.run_count(&mut 0, 8, &mut |op| inputs.top_level(&session, 2, op));
        assert_eq!(samples.failed, 0);
        inputs.shapes[1].1 += 1;
        samples.run_count(&mut 0, 8, &mut |op| inputs.top_level(&session, 1, op));
        assert_eq!(
            samples.failed, 1,
            "only equi_join disagrees with the corrupted oracle"
        );
    }
}
