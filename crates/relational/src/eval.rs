//! Direct set-semantics evaluation of RALG expressions — the reference
//! the Proposition 4.2 embedding is checked against.
//!
//! Every node is evaluated on its own through [`Relation`]'s operators,
//! so intermediate results are nested *sets* exactly as in
//! \[AB87\]/\[HS91\]: `MAP` and `σ` evaluate their input and then bind
//! each element, and `×` is [`Relation::product`], built in full before a
//! `σ` over it filters. Database bags are read through `DB′`
//! ([`dedup_database`]), built once per evaluator. Budgets reuse
//! [`balg_core::eval::Limits`].
//!
//! There is no fast path here. The fast route for a RALG query is the
//! BALG engine: `rewrite::optimize(&ralg_to_balg(q), schema)` evaluated by
//! [`balg_core::eval::Evaluator`], whose fused join the typed optimizer
//! unblocks.
//!
//! [`dedup_database`]: crate::translate::dedup_database

use balg_core::bag::{attr_field, BagError};
use balg_core::eval::{EvalError, Limits};
use balg_core::expr::Var;
use balg_core::schema::Database;
use balg_core::value::Value;

use crate::expr::{RalgExpr, RalgPred};
use crate::relation::Relation;
use crate::translate::dedup_database;

/// A reusable RALG evaluator over one database, whose bags it views as
/// relations by deep duplicate elimination — the `DB′` of
/// Proposition 4.2.
pub struct RalgEvaluator {
    db: Database,
    limits: Limits,
    env: Vec<(Var, Value)>,
    steps_left: u64,
}

impl RalgEvaluator {
    /// Create an evaluator with the given budgets.
    pub fn new(db: &Database, limits: Limits) -> Self {
        RalgEvaluator {
            db: dedup_database(db),
            steps_left: limits.max_steps,
            limits,
            env: Vec::new(),
        }
    }

    /// Evaluate a closed expression.
    pub fn eval(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        debug_assert!(self.env.is_empty());
        self.eval_inner(expr)
    }

    /// Evaluate, requiring a relation result.
    pub fn eval_relation(&mut self, expr: &RalgExpr) -> Result<Relation, EvalError> {
        expect_relation(self.eval(expr)?)
    }

    fn step(&mut self) -> Result<(), EvalError> {
        match self.steps_left.checked_sub(1) {
            Some(rest) => {
                self.steps_left = rest;
                Ok(())
            }
            None => Err(EvalError::StepLimit(self.limits.max_steps)),
        }
    }

    /// Enforce the distinct-element budget on an operator's result.
    fn checked(&self, rel: Relation) -> Result<Value, EvalError> {
        let count = rel.len() as u64;
        if count > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: count,
                limit: self.limits.max_bag_elements,
            });
        }
        Ok(Value::Bag(rel.into_bag()))
    }

    fn lookup(&self, name: &Var) -> Result<Value, EvalError> {
        if let Some((_, value)) = self.env.iter().rev().find(|(bound, _)| bound == name) {
            return Ok(value.clone());
        }
        self.db
            .get(name)
            .map(|bag| Value::Bag(bag.clone()))
            .ok_or_else(|| EvalError::UnboundVariable(name.clone()))
    }

    /// Run `f` with `var` bound to `value`.
    fn bind<T>(
        &mut self,
        var: &Var,
        value: &Value,
        f: impl FnOnce(&mut Self) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        self.env.push((var.clone(), value.clone()));
        let out = f(self);
        self.env.pop();
        out
    }

    fn eval_relation_inner(&mut self, expr: &RalgExpr) -> Result<Relation, EvalError> {
        expect_relation(self.eval_inner(expr)?)
    }

    fn eval_inner(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        self.step()?;
        match expr {
            RalgExpr::Var(name) => self.lookup(name),
            RalgExpr::Lit(value) => Ok(crate::relation::deep_dedup(value)),
            RalgExpr::Union(a, b) => self.eval_binary(a, b, |x, y| Ok(x.union(y))),
            RalgExpr::Intersect(a, b) => self.eval_binary(a, b, |x, y| Ok(x.intersect(y))),
            RalgExpr::Difference(a, b) => self.eval_binary(a, b, |x, y| Ok(x.difference(y))),
            RalgExpr::Product(a, b) => {
                let max = self.limits.max_bag_elements;
                self.eval_binary(a, b, |x, y| x.product(y, max))
            }
            RalgExpr::Powerset(e) => {
                let out = self
                    .eval_relation_inner(e)?
                    .powerset(self.limits.max_bag_elements)?;
                self.checked(out)
            }
            RalgExpr::Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for field in fields {
                    out.push(self.eval_inner(field)?);
                }
                Ok(Value::Tuple(out.into()))
            }
            RalgExpr::Singleton(e) => {
                let value = self.eval_inner(e)?;
                // The operand is already set-shaped; a singleton of it is
                // too (no re-dedup needed).
                Ok(Value::Bag(balg_core::bag::Bag::singleton(value)))
            }
            RalgExpr::Attr(e, index) => {
                let value = self.eval_inner(e)?;
                match &value {
                    Value::Tuple(fields) => {
                        attr_field(fields, *index).cloned().map_err(EvalError::Bag)
                    }
                    other => Err(EvalError::Shape {
                        expected: "a tuple",
                        found: other.to_string(),
                    }),
                }
            }
            RalgExpr::Flatten(e) => {
                let out = self.eval_relation_inner(e)?.flatten()?;
                self.checked(out)
            }
            RalgExpr::Map { var, body, input } => {
                let rel = self.eval_relation_inner(input)?;
                let out = rel.map(|value| self.bind(var, value, |ev| ev.eval_inner(body)))?;
                self.checked(out)
            }
            RalgExpr::Select { var, pred, input } => {
                let rel = self.eval_relation_inner(input)?;
                let out = rel.select(|value| self.bind(var, value, |ev| ev.eval_pred(pred)))?;
                self.checked(out)
            }
        }
    }

    fn eval_binary(
        &mut self,
        a: &RalgExpr,
        b: &RalgExpr,
        op: impl FnOnce(&Relation, &Relation) -> Result<Relation, BagError>,
    ) -> Result<Value, EvalError> {
        let left = self.eval_relation_inner(a)?;
        let right = self.eval_relation_inner(b)?;
        let out = op(&left, &right)?;
        self.checked(out)
    }

    fn eval_pred(&mut self, pred: &RalgPred) -> Result<bool, EvalError> {
        self.step()?;
        match pred {
            RalgPred::True => Ok(true),
            RalgPred::Eq(a, b) => Ok(self.eval_inner(a)? == self.eval_inner(b)?),
            RalgPred::Member(a, b) => {
                let elem = self.eval_inner(a)?;
                Ok(self.eval_relation_inner(b)?.contains(&elem))
            }
            RalgPred::Subset(a, b) => {
                let left = self.eval_relation_inner(a)?;
                let right = self.eval_relation_inner(b)?;
                Ok(left.is_subset_of(&right))
            }
            RalgPred::Not(p) => Ok(!self.eval_pred(p)?),
            RalgPred::And(a, b) => Ok(self.eval_pred(a)? && self.eval_pred(b)?),
            RalgPred::Or(a, b) => Ok(self.eval_pred(a)? || self.eval_pred(b)?),
        }
    }
}

/// Re-wrap an evaluator-produced value as a relation. The evaluator only
/// ever produces set-shaped values (`DB′` is deduplicated in
/// [`RalgEvaluator::new`], literals at evaluation, and every operator
/// preserves the invariant), so no re-deduplication runs here — debug
/// builds verify.
fn expect_relation(value: Value) -> Result<Relation, EvalError> {
    match value {
        Value::Bag(bag) => Ok(Relation::from_set_bag_unchecked(bag)),
        other => Err(EvalError::Shape {
            expected: "a relation",
            found: other.to_string(),
        }),
    }
}

/// Evaluate with default limits.
pub fn eval(expr: &RalgExpr, db: &Database) -> Result<Value, EvalError> {
    RalgEvaluator::new(db, Limits::default()).eval(expr)
}

/// Evaluate with default limits, requiring a relation.
pub fn eval_relation(expr: &RalgExpr, db: &Database) -> Result<Relation, EvalError> {
    RalgEvaluator::new(db, Limits::default()).eval_relation(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::bag::Bag;
    use balg_core::natural::Natural;

    fn unary(elems: &[&str]) -> Bag {
        Bag::from_values(elems.iter().map(|e| Value::tuple([Value::sym(e)])))
    }

    #[test]
    fn database_bags_are_viewed_as_sets() {
        let mut bag = Bag::new();
        bag.insert_with_multiplicity(Value::tuple([Value::sym("a")]), Natural::from(5u64));
        let db = Database::new().with("R", bag);
        let rel = eval_relation(&RalgExpr::var("R"), &db).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn union_difference_set_semantics() {
        let db = Database::new()
            .with("R", unary(&["a", "b"]))
            .with("S", unary(&["b", "c"]));
        let u = eval_relation(&RalgExpr::var("R").union(RalgExpr::var("S")), &db).unwrap();
        assert_eq!(u.len(), 3);
        let d = eval_relation(&RalgExpr::var("R").difference(RalgExpr::var("S")), &db).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn map_dedups_images() {
        let db = Database::new().with("R", unary(&["a", "b", "c"]));
        // project everything to a constant: set semantics → one element.
        let q = RalgExpr::var("R").map("x", RalgExpr::tuple([RalgExpr::lit(Value::sym("k"))]));
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn powerset_and_flatten_roundtrip() {
        let db = Database::new().with("R", unary(&["a", "b"]));
        let q = RalgExpr::var("R").powerset().flatten();
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 2); // ⋃(P(R)) = R
    }

    #[test]
    fn select_with_membership() {
        let db = Database::new().with("R", unary(&["a", "b"]));
        let q = RalgExpr::var("R").powerset().select(
            "s",
            RalgPred::Member(
                RalgExpr::lit(Value::tuple([Value::sym("a")])),
                RalgExpr::var("s"),
            ),
        );
        let rel = eval_relation(&q, &db).unwrap();
        assert_eq!(rel.len(), 2); // {a} and {a,b}
    }

    #[test]
    fn budget_enforced() {
        let db = Database::new().with("R", unary(&["a", "b", "c", "d", "e"]));
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let mut ev = RalgEvaluator::new(&db, limits);
        assert!(ev.eval(&RalgExpr::var("R").powerset()).is_err());
    }

    #[test]
    fn attr_index_zero_is_rejected_explicitly() {
        // Regression: `α₀` used to wrap to usize::MAX and surface as a
        // misleading BadArity { index: 0, arity: n }.
        let db = Database::new().with("R", unary(&["a"]));
        let q = RalgExpr::var("R").map("x", RalgExpr::var("x").attr(0));
        match eval(&q, &db) {
            Err(EvalError::Bag(BagError::AttrIndexZero)) => {}
            other => panic!("expected AttrIndexZero, got {other:?}"),
        }
        // Positive out-of-range indices still report the arity.
        let q = RalgExpr::var("R").map("x", RalgExpr::var("x").attr(5));
        assert!(matches!(
            eval(&q, &db),
            Err(EvalError::Bag(BagError::BadArity { index: 5, arity: 1 }))
        ));
    }

    #[test]
    fn attr_index_zero_in_a_product_predicate_is_rejected() {
        // σ_{α₀=α₂}(G × G), either way round, directly on the product and
        // behind a union with ∅: `α₀` is no attribute, so every shape
        // raises AttrIndexZero, as the BALG evaluator's twin does.
        let db = Database::new().with(
            "G",
            Bag::from_values([Value::tuple([Value::sym("a"), Value::sym("b")])]),
        );
        for (i, j) in [(0, 2), (2, 0)] {
            let pred = || RalgPred::Eq(RalgExpr::var("x").attr(i), RalgExpr::var("x").attr(j));
            let product = || RalgExpr::var("G").product(RalgExpr::var("G"));
            let direct = product().select("x", pred());
            let detour = product()
                .union(RalgExpr::lit(Value::empty_bag()))
                .select("x", pred());
            for q in [direct, detour] {
                match eval(&q, &db) {
                    Err(EvalError::Bag(BagError::AttrIndexZero)) => {}
                    other => panic!("α{i} = α{j}: expected AttrIndexZero, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn product_enforces_element_limit() {
        // |R × R| = 100 distinct tuples against a budget of 8: the product
        // refuses before the MAP over it runs.
        let db = Database::new().with(
            "R",
            Bag::from_values((0..10).map(|i| Value::tuple([Value::int(i)]))),
        );
        let q = RalgExpr::var("R")
            .product(RalgExpr::var("R"))
            .map("t", RalgExpr::var("t"));
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let mut ev = RalgEvaluator::new(&db, limits);
        assert!(matches!(
            ev.eval(&q),
            Err(EvalError::Bag(BagError::TooLarge { limit: 8, .. }))
        ));
    }
}
