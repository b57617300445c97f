//! Differential check of the static analyzer's linearity certificate
//! against the incremental engine's instrumentation: for random
//! (query, update-stream) pairs, whenever every base touched by a batch
//! is classified ≤ [`Linearity::Bilinear`] by
//! [`balg_core::analyze::base_linearity`], the maintenance pass must run
//! entirely in delta form — zero operator re-derivations and zero scalar
//! recomputes.
//!
//! The property is **one-directional**. A batch over a non-linear base
//! is *allowed* to avoid fallbacks (its delta can cancel inside a
//! subtree before reaching the non-linear operator), so the converse is
//! never asserted.

use std::collections::BTreeSet;

use balg_core::analyze::{base_linearity, Linearity};
use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::expr::{Expr, Pred, Var};
use balg_core::value::Value;
use balg_core::zbag::ZInt;
use balg_incremental::{UpdateBatch, ViewRuntime, ViewStats};
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

fn unary(v: i64) -> Value {
    Value::tuple([Value::int(v)])
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

fn base_db() -> Vec<(&'static str, Bag)> {
    vec![
        (
            "R",
            Bag::from_counted([(unary(0), 2u64.into()), (unary(1), 1u64.into())]),
        ),
        ("S", Bag::from_values([unary(1), unary(2), unary(2)])),
        (
            "G",
            Bag::from_values([pair(0, 1), pair(1, 2), pair(0, 1), pair(2, 0)]),
        ),
    ]
}

/// A seeded query generator biased toward *mixed* linearity: subtrees
/// where one base flows through delta rules while another is trapped
/// under a non-linear operator, so batches restricted to the former must
/// certify fallback-freedom while batches touching the latter need not.
struct QueryGen {
    rng: StdRng,
}

impl QueryGen {
    fn new(seed: u64) -> QueryGen {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn leaf(&mut self, arity: usize) -> Expr {
        match arity {
            1 => {
                if self.rng.gen_bool(0.5) {
                    Expr::var("R")
                } else {
                    Expr::var("S")
                }
            }
            _ => Expr::var("G"),
        }
    }

    fn expr(&mut self, depth: usize, arity: usize) -> Expr {
        if depth == 0 {
            return self.leaf(arity);
        }
        match self.rng.gen_range(0..10u8) {
            0 => self
                .expr(depth - 1, arity)
                .additive_union(self.expr(depth - 1, arity)),
            // Non-linear set operators: trap both operands.
            1 => self
                .expr(depth - 1, arity)
                .subtract(self.expr(depth - 1, arity)),
            2 => self
                .expr(depth - 1, arity)
                .max_union(self.expr(depth - 1, arity)),
            3 => self.expr(depth - 1, arity).dedup(),
            // Linear σ (the predicate reads only the bound tuple).
            4 => self.expr(depth - 1, arity).select(
                "x",
                Pred::lt(
                    Expr::var("x").attr(1),
                    Expr::lit(Value::int(self.rng.gen_range(0..4))),
                ),
            ),
            // Non-linear σ: the λ body reads base R.
            5 if arity == 1 => self.expr(depth - 1, arity).select(
                "x",
                Pred::SubBag(Expr::var("x").singleton(), Expr::var("R")),
            ),
            // Linear restructuring MAP.
            6 => {
                let body = if arity == 1 {
                    Expr::tuple([Expr::var("x").attr(1)])
                } else {
                    Expr::tuple([Expr::var("x").attr(2), Expr::var("x").attr(1)])
                };
                self.expr(depth - 1, arity).map("x", body)
            }
            // Bilinear product / linear projection.
            7 => {
                if arity == 2 {
                    self.expr(depth - 1, 1).product(self.expr(depth - 1, 1))
                } else {
                    let ix = self.rng.gen_range(1..=2);
                    self.expr(depth - 1, 2).project(&[ix])
                }
            }
            // Fused equi-join over uniform binary tuples — bilinear.
            8 if arity == 2 => {
                let q = self
                    .expr(depth - 1, 2)
                    .product(self.expr(depth - 1, 2))
                    .select(
                        "x",
                        Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                    );
                let (i, j) = (self.rng.gen_range(1..=4), self.rng.gen_range(1..=4));
                q.project(&[i, j])
            }
            _ => self.expr(depth - 1, arity),
        }
    }
}

/// One legal random update to `name` against the runtime's state.
fn random_update(rng: &mut StdRng, runtime: &ViewRuntime, batch: &mut UpdateBatch, name: &str) {
    let arity = if name == "G" { 2 } else { 1 };
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
    if rng.gen_bool(0.5) && !deletable.is_empty() {
        let victim = deletable[rng.gen_range(0..deletable.len())].clone();
        batch.delete(name, victim);
    } else {
        let value = if arity == 1 {
            unary(rng.gen_range(0..4))
        } else {
            pair(rng.gen_range(0..4), rng.gen_range(0..4))
        };
        batch.insert(name, value);
    }
}

/// Stream batches at a view; whenever a batch touches only ≤-bilinear
/// bases, the fallback and scalar counters must not move.
fn run_case(seed: u64, depth: usize, arity: usize, batches: usize) {
    let mut generator = QueryGen::new(seed);
    let expr = generator.expr(depth, arity);
    let facts = base_linearity(&expr);
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    if runtime.create_view("v", expr.clone()).is_err() {
        return; // over budget — not this suite's concern
    }
    // The registered view's stored facts are exactly the analyzer's.
    let (_, view) = runtime.views().next().expect("registered above");
    assert_eq!(view.linearity(), &facts);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x11bea7);
    let mut before = ViewStats::default();
    for _ in 0..batches {
        // Pick the batch's base set first so entire batches land on
        // delta-friendly bases often enough to exercise the property.
        let names: &[&str] = match rng.gen_range(0..4u8) {
            0 => &["R"],
            1 => &["S"],
            2 => &["G"],
            _ => &["R", "S", "G"],
        };
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=3) {
            let name = names[rng.gen_range(0..names.len())];
            random_update(&mut rng, &runtime, &mut batch, name);
        }
        let touched: BTreeSet<Var> = batch
            .iter()
            .filter(|(_, delta)| !delta.is_empty())
            .map(|(name, _)| name.clone())
            .collect();
        if runtime.apply(&batch).is_err() {
            return; // budget blow-up mid-stream; view was dropped
        }
        let after = runtime.stats().views;
        let all_linearish = touched.iter().all(|base| {
            facts.get(base).copied().unwrap_or(Linearity::Unread) <= Linearity::Bilinear
        });
        if all_linearish {
            assert_eq!(
                (after.fallback_recomputes, after.scalar_recomputes),
                (before.fallback_recomputes, before.scalar_recomputes),
                "a ≤-bilinear batch over {touched:?} re-derived an operator \
                 for seed {seed}: {expr} with facts {facts:?}"
            );
        }
        before = after;
        assert!(runtime.verify("v").unwrap(), "view drifted: {expr}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 random (query, update-stream) pairs: the linearity
    /// certificate is never contradicted by the maintenance counters.
    #[test]
    fn bilinear_certificates_mean_zero_fallbacks(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
        arity in 1usize..3,
        batches in 2usize..6,
    ) {
        run_case(seed, depth, arity, batches);
    }
}

/// Deterministic spot checks of the certificate against hand-picked
/// views: a linear chain, a bilinear join, a mixed view where only one
/// base's updates are certified fallback-free, and a `nest`.
#[test]
fn certificates_match_hand_classified_views() {
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    // π(σ(G)) — linear in G.
    runtime
        .create_view(
            "chain",
            Expr::var("G")
                .select(
                    "x",
                    Pred::lt(Expr::var("x").attr(1), Expr::lit(Value::int(3))),
                )
                .project(&[2, 1]),
        )
        .unwrap();
    // R − S is non-linear in both; R ∪⁺ (R − S) keeps R non-linear.
    runtime
        .create_view(
            "mixed",
            Expr::var("R").additive_union(Expr::var("R").subtract(Expr::var("S"))),
        )
        .unwrap();
    // nest(R) is non-linear in R and keeps re-derivation.
    runtime
        .create_view("groups", Expr::var("R").nest(&[1]))
        .unwrap();
    let chain_facts: Vec<(String, Linearity)> = runtime
        .views()
        .find(|(name, _)| *name == "chain")
        .map(|(_, v)| {
            v.linearity()
                .iter()
                .map(|(k, l)| (k.to_string(), *l))
                .collect()
        })
        .unwrap();
    assert_eq!(chain_facts, vec![("G".to_owned(), Linearity::Linear)]);
    let mixed = runtime
        .views()
        .find(|(name, _)| *name == "mixed")
        .map(|(_, v)| v.linearity().clone())
        .unwrap();
    assert_eq!(mixed.get(&Var::from("R")), Some(&Linearity::NonLinear));
    assert_eq!(mixed.get(&Var::from("S")), Some(&Linearity::NonLinear));

    // A G-only batch is certified: only the linear chain reads G.
    let mut batch = UpdateBatch::new();
    batch.insert("G", pair(1, 1));
    runtime.apply(&batch).unwrap();
    let stats = runtime.stats().views;
    assert_eq!(stats.fallback_recomputes, 0, "{stats:?}");
    assert_eq!(stats.scalar_recomputes, 0, "{stats:?}");
    assert!(stats.linear_delta_ops > 0, "{stats:?}");

    // An R batch hits the non-linear views: the monus takes the
    // pointwise rule, and `nest` re-derives.
    let mut batch = UpdateBatch::new();
    batch.insert("R", unary(3));
    runtime.apply(&batch).unwrap();
    let stats = runtime.stats().views;
    assert_eq!(stats.pointwise_delta_ops, 1, "{stats:?}");
    assert_eq!(stats.fallback_recomputes, 1, "{stats:?}");
    assert!(runtime.verify_all().unwrap());
}
