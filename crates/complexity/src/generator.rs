//! Workload generators: random bag databases and a BALG¹ expression zoo.
//!
//! The zoo is the sample space for the fragment-wide experiments (E9
//! polynomiality, E10 translation equivalence, E11 LOGSPACE counters):
//! fixed representative queries plus seeded random expression generation,
//! so runs are reproducible.

use balg_core::bag::{Bag, BagBuilder};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random multigraph: `edges` directed edges over `nodes` vertices,
/// each with multiplicity in `1..=max_mult`.
pub fn random_multigraph(seed: u64, nodes: u32, edges: u32, max_mult: u64) -> Bag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bag = BagBuilder::with_capacity(edges as usize);
    for _ in 0..edges {
        let from = rng.gen_range(0..nodes) as i64;
        let to = rng.gen_range(0..nodes) as i64;
        let mult = rng.gen_range(1..=max_mult);
        bag.push(
            Value::tuple([Value::int(from), Value::int(to)]),
            Natural::from(mult),
        );
    }
    bag.build()
}

/// A random unary bag over `domain` values with multiplicities up to
/// `max_mult`.
pub fn random_unary_bag(seed: u64, domain: u32, max_mult: u64) -> Bag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bag = BagBuilder::new();
    for v in 0..domain {
        if rng.gen_bool(0.6) {
            // In-order pushes (ascending v) append directly.
            bag.push(
                Value::tuple([Value::int(v as i64)]),
                Natural::from(rng.gen_range(1..=max_mult)),
            );
        }
    }
    bag.build()
}

/// A database with a binary bag `G` and two unary bags `R`, `S`.
pub fn random_database(seed: u64, size: u32, max_mult: u64) -> Database {
    Database::new()
        .with(
            "G",
            random_multigraph(seed, size.max(2), size * 2, max_mult),
        )
        .with(
            "R",
            random_unary_bag(seed.wrapping_add(1), size.max(1), max_mult),
        )
        .with(
            "S",
            random_unary_bag(seed.wrapping_add(2), size.max(1), max_mult),
        )
}

/// The input `Bₙ` of Propositions 4.1/4.5: `n` occurrences of the single
/// unary tuple `[a]`.
pub fn b_n(n: u64) -> Database {
    Database::new().with("B", Bag::repeated(Value::tuple([Value::sym("a")]), n))
}

/// Fixed representative BALG¹ queries over the schema
/// `{G: ⟦U²⟧, R: ⟦U¹⟧, S: ⟦U¹⟧}` (all subtraction-free except where
/// noted by the name).
pub fn zoo() -> Vec<(&'static str, Expr)> {
    let g = || Expr::var("G");
    let r = || Expr::var("R");
    let s = || Expr::var("S");
    vec![
        ("identity", g()),
        ("reverse", g().project(&[2, 1])),
        (
            "two-step-paths",
            g().product(g())
                .select(
                    "x",
                    Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                )
                .project(&[1, 4]),
        ),
        ("self-union", g().additive_union(g())),
        ("max-self-union", g().max_union(g())),
        ("self-intersect", g().intersect(g())),
        ("dedup", g().dedup()),
        ("r-times-s", r().product(s())),
        (
            "loops",
            g().select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::var("x").attr(2)),
            ),
        ),
        ("r-minus-s (uses −)", r().subtract(s())),
        (
            "endpoints",
            g().project(&[1]).additive_union(g().project(&[2])),
        ),
        (
            "tag-and-merge",
            r().map("x", Expr::tuple([Expr::var("x").attr(1)])),
        ),
    ]
}

/// A seeded random generator of subtraction-free BALG¹ expressions over
/// the unary input `B` (the Proposition 4.5 setting).
pub struct ExprZoo {
    rng: StdRng,
}

impl ExprZoo {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        ExprZoo {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate an expression of roughly the given AST depth, producing a
    /// flat bag of tuples from the unary input `B`.
    pub fn unary_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::var("B");
        }
        match self.rng.gen_range(0..6u8) {
            0 => self
                .unary_expr(depth - 1)
                .additive_union(self.unary_expr(depth - 1)),
            1 => self
                .unary_expr(depth - 1)
                .max_union(self.unary_expr(depth - 1)),
            2 => self
                .unary_expr(depth - 1)
                .intersect(self.unary_expr(depth - 1)),
            3 => {
                // Product then project back to arity 1 keeps the zoo flat.
                self.unary_expr(depth - 1)
                    .product(self.unary_expr(depth - 1))
                    .project(&[1])
            }
            4 => self.unary_expr(depth - 1).dedup(),
            _ => self.unary_expr(depth - 1).select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::sym("a"))),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::analyze::analyze;
    use balg_core::eval::eval_bag;
    use balg_core::schema::Schema;
    use balg_core::types::Type;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            random_multigraph(7, 5, 10, 3),
            random_multigraph(7, 5, 10, 3)
        );
        assert_eq!(random_unary_bag(7, 5, 3), random_unary_bag(7, 5, 3));
    }

    #[test]
    fn zoo_queries_type_check_as_balg1() {
        let schema = Schema::new()
            .with("G", Type::relation(2))
            .with("R", Type::relation(1))
            .with("S", Type::relation(1));
        for (name, expr) in zoo() {
            let analysis = analyze(&expr, &schema).expect(name);
            assert_eq!(analysis.balg_level(), 1, "{name} is not BALG¹");
            assert!(analysis.is_core_balg(), "{name} uses extensions");
        }
    }

    #[test]
    fn zoo_queries_evaluate_on_random_databases() {
        let db = random_database(3, 6, 4);
        for (name, expr) in zoo() {
            eval_bag(&expr, &db).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        }
    }

    #[test]
    fn random_exprs_type_check_and_run() {
        let schema = Schema::new().with("B", Type::relation(1));
        let mut zoo = ExprZoo::new(11);
        for i in 0..20 {
            let expr = zoo.unary_expr(3);
            let analysis = analyze(&expr, &schema).unwrap_or_else(|e| panic!("expr {i}: {e}"));
            assert_eq!(analysis.balg_level(), 1);
            assert!(!analysis.uses_subtract);
            eval_bag(&expr, &b_n(4)).unwrap_or_else(|e| panic!("expr {i} eval: {e}"));
        }
    }
}
