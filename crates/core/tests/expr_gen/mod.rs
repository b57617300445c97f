//! The random-expression generator shared by `analyze_differential`,
//! `step_limit_props`, `fast_path_differential` and the optimizer suite:
//! expressions over two unary relations `R`, `S` and one binary relation
//! `G` that reach every operator, both arities, `∈` and `⊑` predicates,
//! λs binding `x` or `y`, a nested λ reading its outer binder, a `MAP_x`
//! inside a `MAP_x` body, and deliberately doomed shapes; and random
//! databases conforming to that schema.
//!
//! `shapes.rs` beside it adds one strategy per evaluator fast path, for
//! `fast_path_differential`.

use balg_core::bag::Bag;
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::prelude::*;

pub fn unary(v: i64) -> Value {
    Value::tuple([Value::int(v)])
}

pub fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// A random database over `R`, `S` (unary) and `G` (binary), with real
/// duplicate multiplicities so set-ness claims are actually at stake.
pub fn db_strategy() -> impl Strategy<Value = Database> {
    let unary_bag = || {
        proptest::collection::btree_map(0i64..4, 1u64..4, 0..4).prop_map(|entries| {
            Bag::from_counted(
                entries
                    .into_iter()
                    .map(|(v, m)| (unary(v), Natural::from(m))),
            )
        })
    };
    let pair_bag =
        proptest::collection::btree_map((0i64..4, 0i64..4), 1u64..3, 0..5).prop_map(|entries| {
            Bag::from_counted(
                entries
                    .into_iter()
                    .map(|((a, b), m)| (pair(a, b), Natural::from(m))),
            )
        });
    (unary_bag(), unary_bag(), pair_bag)
        .prop_map(|(r, s, g)| Database::new().with("R", r).with("S", s).with("G", g))
}

/// A tiny deterministic generator (splitmix64) so expression shape is a
/// pure function of the proptest-supplied seed.
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
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

    /// A λ variable: mostly `x`, sometimes `y`, so that fusing two λs
    /// has to rename one.
    fn binder(&mut self) -> &'static str {
        if self.below(4) == 0 {
            "y"
        } else {
            "x"
        }
    }

    fn pred(&mut self, arity: usize, var: &str) -> Pred {
        let x = || Expr::var(var);
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

    pub fn expr(&mut self, depth: usize, arity: usize) -> Expr {
        if depth == 0 {
            return self.leaf(arity);
        }
        match self.below(18) {
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
                let var = self.binder();
                let pred = self.pred(arity, var);
                self.expr(depth - 1, arity).select(var, pred)
            }
            6 => {
                let var = self.binder();
                let x = || Expr::var(var);
                let body = if arity == 1 {
                    Expr::tuple([x().attr(1), x().attr(1)])
                } else {
                    Expr::tuple([x().attr(2), x().attr(1)])
                };
                let input_arity = if arity == 1 { 1 } else { 2 };
                let out = self.expr(depth - 1, input_arity).map(var, body);
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
                // A constant β(τ(…)) branch — duplicate-free by
                // construction, keeps ∪⁺ honest about losing the
                // certificate.
                let constant = Expr::Singleton(Box::new(Expr::Tuple(
                    (0..arity)
                        .map(|_| Expr::lit(Value::int(self.below(4) as i64)))
                        .collect(),
                )));
                self.expr(depth - 1, arity).max_union(constant)
            }
            // Deliberately doomed shapes — the analyzer must reject these,
            // and the case then asserts nothing (conservatism is allowed).
            13 => self.expr(depth - 1, arity).map("x", Expr::var("x").attr(0)),
            14 => self
                .expr(depth - 1, arity)
                .map("x", Expr::var("x").attr(9))
                .project(&[1]),
            // A nested λ reading its outer binder:
            // δ(MAP_x[σ_y[α₁(y) = αₖ(x)](G)](e)), the rows of G that
            // continue a row of `e` (k its last attribute).
            15 => {
                let step = Expr::var("G").select(
                    "y",
                    Pred::eq(Expr::var("y").attr(1), Expr::var("x").attr(arity)),
                );
                let out = self.expr(depth - 1, arity).map("x", step).destroy();
                if arity == 1 {
                    out.project(&[2])
                } else {
                    out
                }
            }
            // A `MAP_x` inside a `MAP_x` body: the inner λ rebinds `x` to a
            // row of G, whose σ input still reads the outer `x`:
            // δ(MAP_x[MAP_x[τ(α₂(x), …)](σ_y[α₁(y) = αₖ(x)](G))](e)).
            16 => {
                let fields = (0..arity).map(|i| Expr::var("x").attr(2 - i));
                let inner = Expr::var("G")
                    .select(
                        "y",
                        Pred::eq(Expr::var("y").attr(1), Expr::var("x").attr(arity)),
                    )
                    .map("x", Expr::tuple(fields));
                self.expr(depth - 1, arity).map("x", inner).destroy()
            }
            _ => self.expr(depth - 1, arity),
        }
    }
}
