//! The observability layer's inertness gate: metrics recording and the
//! span profiler must be **provably inert** — for hundreds of random
//! expressions, evaluating with the global registry installed and
//! profiling enabled produces exactly the same results, errors, and
//! metrics (step charges included) as a vanilla evaluation. SQL through
//! the statement cache and its hit/miss counters replies the same too.
//!
//! The off-phase necessarily runs first: [`balg_obs::install_global`] is
//! first-wins for the whole process, so this differential lives in its
//! own integration-test binary where nothing else can install a registry
//! underneath it.

use balg_core::bag::Bag;
use balg_core::eval::{Evaluator, Limits, Metrics};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;

fn limits() -> Limits {
    Limits {
        max_bag_elements: 1 << 10,
        max_multiplicity_bits: 1 << 9,
        max_steps: 1_000_000,
        max_ifp_iterations: 32,
    }
}

fn unary(v: i64) -> Value {
    Value::tuple([Value::int(v)])
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// A fixed database with real duplicate multiplicities, so fast paths
/// (indexed joins, hoisted `⊑` references) actually fire.
fn db() -> Database {
    Database::new()
        .with(
            "R",
            Bag::from_counted([
                (unary(0), Natural::from(2u64)),
                (unary(1), 1u64.into()),
                (unary(2), 3u64.into()),
            ]),
        )
        .with("S", Bag::from_values([unary(1), unary(2), unary(3)]))
        .with(
            "G",
            Bag::from_values([pair(0, 1), pair(1, 2), pair(0, 1), pair(2, 3), pair(3, 0)]),
        )
}

/// The same splitmix64-seeded expression generator the analyzer
/// differential uses: expression shape is a pure function of the seed,
/// spanning every operator, both arities, and doomed shapes whose
/// errors must also be identical across the two runs.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn leaf(&mut self, arity: usize) -> Expr {
        match arity {
            1 => {
                if self.below(2) == 0 {
                    Expr::var("R")
                } else {
                    Expr::var("S")
                }
            }
            _ => Expr::var("G"),
        }
    }

    fn pred(&mut self, arity: usize) -> Pred {
        let x = || Expr::var("x");
        match self.below(5) {
            0 if arity >= 2 => Pred::eq(x().attr(1), x().attr(2)),
            1 => Pred::lt(x().attr(1), Expr::lit(Value::int(self.below(4) as i64))),
            2 => Pred::Member(
                x().attr(1),
                Expr::lit(Value::Bag(Bag::from_values(
                    (0..self.below(3)).map(|v| Value::int(v as i64)),
                ))),
            ),
            3 if arity == 1 => Pred::SubBag(x().singleton(), Expr::var("R")),
            _ => Pred::eq(x().attr(1), Expr::lit(Value::int(self.below(4) as i64))).not(),
        }
    }

    fn expr(&mut self, depth: usize, arity: usize) -> Expr {
        if depth == 0 {
            return self.leaf(arity);
        }
        match self.below(16) {
            0 => self
                .expr(depth - 1, arity)
                .additive_union(self.expr(depth - 1, arity)),
            1 => self
                .expr(depth - 1, arity)
                .subtract(self.expr(depth - 1, arity)),
            2 => self
                .expr(depth - 1, arity)
                .max_union(self.expr(depth - 1, arity)),
            3 => self
                .expr(depth - 1, arity)
                .intersect(self.expr(depth - 1, arity)),
            4 => self.expr(depth - 1, arity).dedup(),
            5 => {
                let pred = self.pred(arity);
                self.expr(depth - 1, arity).select("x", pred)
            }
            6 => {
                let body = if arity == 1 {
                    Expr::tuple([Expr::var("x").attr(1), Expr::var("x").attr(1)])
                } else {
                    Expr::tuple([Expr::var("x").attr(2), Expr::var("x").attr(1)])
                };
                let input_arity = if arity == 1 { 1 } else { 2 };
                let out = self.expr(depth - 1, input_arity).map("x", body);
                if arity == 1 {
                    out.project(&[1])
                } else {
                    out
                }
            }
            7 => {
                if arity == 2 {
                    self.expr(depth - 1, 1).product(self.expr(depth - 1, 1))
                } else {
                    let ix = 1 + self.below(2) as usize;
                    self.expr(depth - 1, 2).project(&[ix])
                }
            }
            8 if arity == 1 => self.expr(depth - 1, 1).dedup().powerset().destroy(),
            9 if arity == 1 => self.expr(depth - 1, 1).dedup().powerbag().destroy(),
            10 if arity == 1 => self
                .expr(depth - 1, 2)
                .nest(&[1])
                .map("g", Expr::tuple([Expr::var("g").attr(1)])),
            11 if arity == 2 => {
                let step = Expr::var("T")
                    .product(Expr::var("G"))
                    .select(
                        "x",
                        Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                    )
                    .project(&[1, 4])
                    .dedup();
                Expr::var("G").ifp("T", step)
            }
            12 => {
                let constant = Expr::Singleton(Box::new(Expr::Tuple(
                    (0..arity)
                        .map(|_| Expr::lit(Value::int(self.below(4) as i64)))
                        .collect(),
                )));
                self.expr(depth - 1, arity).max_union(constant)
            }
            13 => self.expr(depth - 1, arity).map("x", Expr::var("x").attr(0)),
            14 => self
                .expr(depth - 1, arity)
                .map("x", Expr::var("x").attr(9))
                .project(&[1]),
            _ => self.expr(depth - 1, arity),
        }
    }
}

/// How many statements the differential covers. The nightly
/// `PROPTEST_CASES=1024` job widens it through the same variable.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(300, |n: u64| n.max(300))
}

fn fingerprint(metrics: &Metrics) -> String {
    format!("{metrics:?}")
}

/// SQL through the statement cache: reads repeated around writes, and
/// errors, each reply rendered: six evaluations, 4 hits, 6 misses.
const SQL: [&str; 10] = [
    "SELECT customer, qty FROM orders WHERE qty >= 2",
    "SELECT customer, qty FROM orders WHERE qty >= 2",
    "INSERT INTO orders VALUES ('ann', 3)",
    "SELECT customer, qty FROM orders WHERE qty >= 2",
    "SELECT SUM(qty) FROM orders",
    "SELECT nope FROM orders",
    "SELECT nope FROM orders",
    "SELECT SUM(qty) FROM orders",
    "DELETE FROM orders VALUES ('ann', 3)",
    "SELECT SUM(qty) FROM orders",
];

fn sql_replies() -> Vec<String> {
    use balg_sql::prelude::{database_from_rows, Catalog, SqlRuntime, SqlValue};
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
    let rows = vec![vec![SqlValue::Str("bob".into()), SqlValue::Int(5)]];
    let db = database_from_rows(&catalog, &[("orders", rows)]).unwrap();
    let mut rt = SqlRuntime::with_limits(catalog, db, limits());
    SQL.iter()
        .map(|line| match rt.execute(line) {
            Ok(response) => response.to_string(),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

/// One test on purpose: the vanilla pass must complete before the
/// registry exists, and nothing else in this binary may install one.
#[test]
fn metrics_and_profiling_are_inert() {
    assert!(
        balg_obs::global().is_none(),
        "another test installed the global registry before the off-phase ran"
    );
    let db = db();
    let case = |seed: u64| {
        let depth = 1 + (seed % 4) as usize;
        let arity = 1 + (seed % 2) as usize;
        Gen::new(seed / 8).expr(depth, arity)
    };

    // Off-phase: vanilla evaluation, no registry, no profiler.
    let total = cases();
    let mut vanilla = Vec::new();
    for seed in 0..total {
        let expr = case(seed);
        let mut ev = Evaluator::new(&db, limits());
        let result = ev.eval(&expr);
        vanilla.push((expr, result, fingerprint(ev.metrics())));
    }
    let vanilla_sql = sql_replies();

    // On-phase: registry installed, profiler enabled — every observable
    // outcome must be bit-identical.
    assert!(balg_obs::install_global(balg_obs::MetricsRegistry::new()));
    for (expr, expected, expected_metrics) in vanilla {
        let mut ev = Evaluator::new(&db, limits());
        ev.enable_profiling();
        let result = ev.eval(&expr);
        assert_eq!(expected, result, "result drifted under metrics for {expr}");
        assert_eq!(
            expected_metrics,
            fingerprint(ev.metrics()),
            "step charges drifted under metrics for {expr}"
        );
        let profiler = ev.take_profiler().expect("profiling was enabled");
        assert!(
            !profiler.frames().is_empty(),
            "the on-phase never actually profiled {expr}"
        );
    }

    assert_eq!(
        vanilla_sql,
        sql_replies(),
        "SQL replies drifted under metrics"
    );

    // The on-phase really recorded: the registry saw every evaluation,
    // and every statement was one cache hit or one miss.
    let rendered = balg_obs::global()
        .expect("installed above")
        .render_prometheus();
    for line in [
        format!("balg_eval_total {}", total + 6),
        "balg_sql_statement_cache_hits_total 4".to_owned(),
        "balg_sql_statement_cache_misses_total 6".to_owned(),
    ] {
        assert!(rendered.contains(&line), "{line} missing from {rendered}");
    }
}
