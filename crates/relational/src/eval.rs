//! Direct set-semantics evaluation of RALG expressions.
//!
//! Every operator re-establishes the set invariant, so intermediate
//! results are nested *sets* exactly as in \[AB87\]/\[HS91\]. Budgets reuse
//! [`balg_core::eval::Limits`].
//!
//! The evaluator mirrors the throughput work done on the BALG side:
//!
//! * database bags are deduplicated into their `DB′` views **once** per
//!   name and cached (cloning a cached view is an `Arc` bump);
//! * every value the evaluator itself produces is set-shaped by
//!   construction, so intermediates are re-wrapped without the deep
//!   re-deduplication the old evaluator paid after every operator;
//! * adjacent `MAP`/`σ` stages stream each element through the whole
//!   chain in one pass, `MAP` directly over a product streams the pairs
//!   without materializing the product, and `σ_{αᵢ=αⱼ}(e × e′)` with the
//!   equality crossing the product boundary evaluates as a hash join —
//!   through [`balg_core::join`], the pair loop the BALG engines share.

use std::collections::HashMap;

use balg_core::bag::{attr_field, BagBuilder, BagError};
use balg_core::eval::{EvalError, Limits};
use balg_core::expr::Var;
use balg_core::index::IndexCache;
use balg_core::join;
use balg_core::schema::Database;
use balg_core::value::Value;

use crate::expr::{RalgExpr, RalgPred};
use crate::relation::Relation;

/// A reusable RALG evaluator bound to one database (whose bags are viewed
/// as relations via deep duplicate elimination — the `DB′` of
/// Proposition 4.2).
pub struct RalgEvaluator<'a> {
    db: &'a Database,
    limits: Limits,
    env: Vec<(Var, Value)>,
    steps_left: u64,
    /// Deduplicated `DB′` views, computed once per database name. The old
    /// evaluator re-ran the deep dedup on every variable lookup.
    db_views: HashMap<Var, Value>,
    /// Per-key join indexes over operand relations, shared with the BALG
    /// side's [`IndexCache`] machinery; entries pin the slice they
    /// describe, so repeated joins against a cached `DB′` view probe
    /// instead of rebuilding a hash table.
    indexes: IndexCache,
}

/// Always-on per-evaluation counters for the RALG baseline, resolved
/// lazily from the installed [`balg_obs`] registry (recorded once per
/// top-level [`RalgEvaluator::eval`], like the BALG side).
struct RalgObs {
    total: balg_obs::Counter,
    errors: balg_obs::Counter,
    duration: balg_obs::Histogram,
}

static RALG_OBS: std::sync::OnceLock<RalgObs> = std::sync::OnceLock::new();

fn ralg_obs() -> Option<&'static RalgObs> {
    if let Some(obs) = RALG_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = RALG_OBS.set(RalgObs {
        total: registry.counter("balg_ralg_eval_total", "Top-level RALG evaluations"),
        errors: registry.counter(
            "balg_ralg_eval_errors_total",
            "Top-level RALG evaluations that returned an error",
        ),
        duration: registry.histogram(
            "balg_ralg_eval_duration_ns",
            "Wall time per top-level RALG evaluation",
        ),
    });
    RALG_OBS.get()
}

impl<'a> RalgEvaluator<'a> {
    /// Create an evaluator with the given budgets.
    pub fn new(db: &'a Database, limits: Limits) -> Self {
        let steps_left = limits.max_steps;
        RalgEvaluator {
            db,
            limits,
            env: Vec::new(),
            steps_left,
            db_views: HashMap::new(),
            indexes: IndexCache::new(),
        }
    }

    /// Evaluate a closed expression.
    pub fn eval(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        debug_assert!(self.env.is_empty());
        let Some(obs) = ralg_obs() else {
            return self.eval_inner(expr);
        };
        let start = std::time::Instant::now();
        let result = self.eval_inner(expr);
        obs.total.inc();
        if result.is_err() {
            obs.errors.inc();
        }
        obs.duration
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        result
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

    fn check_size(&self, rel: &Relation) -> Result<(), EvalError> {
        let count = rel.len() as u64;
        if count > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: count,
                limit: self.limits.max_bag_elements,
            });
        }
        Ok(())
    }

    /// Incremental distinct-element guard for the streaming loops.
    fn check_builder_limit(&self, builder: &mut BagBuilder) -> Result<(), EvalError> {
        builder
            .ensure_distinct_within(self.limits.max_bag_elements)
            .map_err(|observed| EvalError::ElementLimit {
                observed,
                limit: self.limits.max_bag_elements,
            })
    }

    fn lookup(&mut self, name: &Var) -> Result<Value, EvalError> {
        for (bound, value) in self.env.iter().rev() {
            if bound == name {
                return Ok(value.clone());
            }
        }
        if let Some(view) = self.db_views.get(name) {
            return Ok(view.clone());
        }
        let view = self
            .db
            .get(name)
            .map(|bag| Relation::from_bag(bag).to_value())
            .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
        self.db_views.insert(name.clone(), view.clone());
        Ok(view)
    }

    fn eval_inner(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        self.step()?;
        match expr {
            RalgExpr::Var(name) => self.lookup(name),
            RalgExpr::Lit(value) => Ok(crate::relation::deep_dedup(value)),
            RalgExpr::Union(a, b) => self.eval_binary(a, b, |x, y| Ok(x.union(y))),
            RalgExpr::Intersect(a, b) => self.eval_binary(a, b, |x, y| Ok(x.intersect(y))),
            RalgExpr::Difference(a, b) => self.eval_binary(a, b, |x, y| Ok(x.difference(y))),
            RalgExpr::Product(a, b) => match self.eval_product(a, b, None)? {
                ProductOutcome::Joined(rel) | ProductOutcome::Materialized(rel) => {
                    Ok(rel.to_value())
                }
            },
            RalgExpr::Powerset(e) => {
                let rel = expect_relation(self.eval_inner(e)?)?;
                let out = rel.powerset(self.limits.max_bag_elements)?;
                self.check_size(&out)?;
                Ok(out.to_value())
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
                let rel = expect_relation(self.eval_inner(e)?)?;
                let out = rel.flatten()?;
                self.check_size(&out)?;
                Ok(out.to_value())
            }
            RalgExpr::Map { .. } | RalgExpr::Select { .. } => self.eval_stage_chain(expr),
        }
    }

    /// Fused evaluation of a `MAP`/`σ` spine, mirroring the BALG
    /// evaluator: each element streams through every stage in one pass and
    /// only the chain's final relation is materialized. A `MAP` directly
    /// over a product streams the concatenated pairs; a join-shaped `σ`
    /// directly over a product becomes a hash join.
    ///
    /// Entered from [`RalgEvaluator::eval_inner`], which has already
    /// charged the step for the outermost spine node.
    fn eval_stage_chain(&mut self, expr: &RalgExpr) -> Result<Value, EvalError> {
        let mut stages: Vec<Stage<'_>> = Vec::new();
        let mut cur = expr;
        loop {
            match cur {
                RalgExpr::Map { var, body, input } => {
                    stages.push(Stage::Map { var, body });
                    cur = input;
                }
                RalgExpr::Select { var, pred, input } => {
                    stages.push(Stage::Filter { var, pred });
                    cur = input;
                }
                _ => break,
            }
        }
        stages.reverse();
        for _ in 1..stages.len() {
            self.step()?; // the inner spine nodes the fusion skips
        }

        let mut first_stage = 0;
        let base = match (cur, stages.first()) {
            (RalgExpr::Product(a, b), Some(Stage::Filter { var, pred }))
                if equi_join_attrs(pred, var).is_some() =>
            {
                let (i, j) = equi_join_attrs(pred, var).expect("just matched");
                self.step()?; // the Product node, as eval_inner would charge it
                match self.eval_product(a, b, Some((i, j)))? {
                    ProductOutcome::Joined(rel) => {
                        first_stage = 1; // the filter became the join
                        ChainBase::Rel(rel)
                    }
                    ProductOutcome::Materialized(rel) => ChainBase::Rel(rel),
                }
            }
            (RalgExpr::Product(a, b), Some(Stage::Map { .. })) => {
                self.step()?; // the Product node
                let left = expect_relation(self.eval_inner(a)?)?;
                let right = expect_relation(self.eval_inner(b)?)?;
                ChainBase::Pairs(left, right)
            }
            _ => ChainBase::Rel(expect_relation(self.eval_inner(cur)?)?),
        };
        let stages = &stages[first_stage..];
        if stages.is_empty() {
            // The hash join consumed the only stage: its relation is the
            // chain's result, no re-streaming needed.
            if let ChainBase::Rel(rel) = base {
                self.check_size(&rel)?;
                return Ok(rel.to_value());
            }
        }

        let mut out = BagBuilder::new();
        match &base {
            ChainBase::Rel(rel) => {
                for value in rel.iter() {
                    self.run_stages(value.clone(), stages, &mut out)?;
                }
            }
            ChainBase::Pairs(left, right) => {
                for lv in left.iter() {
                    let left_fields = lv
                        .as_tuple()
                        .ok_or_else(|| BagError::NotATuple(lv.clone()))?;
                    for rv in right.iter() {
                        let right_fields = rv
                            .as_tuple()
                            .ok_or_else(|| BagError::NotATuple(rv.clone()))?;
                        self.run_stages(
                            Value::concat_tuples(left_fields, right_fields),
                            stages,
                            &mut out,
                        )?;
                    }
                }
            }
        }
        // Stage outputs are set-shaped values, so clamping the collected
        // multiplicities restores the set invariant without a deep pass.
        let rel = Relation::from_set_bag_unchecked(out.build_set());
        self.check_size(&rel)?;
        Ok(rel.to_value())
    }

    /// Push one element through every stage; survivors land in `out`.
    fn run_stages(
        &mut self,
        value: Value,
        stages: &[Stage<'_>],
        out: &mut BagBuilder,
    ) -> Result<(), EvalError> {
        let mut current = value;
        for stage in stages {
            match stage {
                Stage::Map { var, body } => {
                    self.env.push(((*var).clone(), current));
                    let image = self.eval_inner(body);
                    self.env.pop();
                    current = image?;
                }
                Stage::Filter { var, pred } => {
                    self.env.push(((*var).clone(), current));
                    let keep = self.eval_pred(pred);
                    let (_, value_back) = self.env.pop().expect("balanced λ environment");
                    if !keep? {
                        return Ok(());
                    }
                    current = value_back;
                }
            }
        }
        out.push_one(current);
        self.check_builder_limit(out)
    }

    /// Evaluate `a × b`, optionally under an equi-join filter `αᵢ = αⱼ`
    /// crossing the product boundary. With the shape guards satisfied
    /// ([`join::classify`]) the right operand probes a cached index on
    /// the left through [`join::probe`] and the product is never built;
    /// this adapter supplies only the policy — a step and a set insertion
    /// per surviving pair. Otherwise the materializing path runs and the
    /// caller must still apply the filter.
    fn eval_product(
        &mut self,
        a: &RalgExpr,
        b: &RalgExpr,
        join_attrs: Option<(usize, usize)>,
    ) -> Result<ProductOutcome, EvalError> {
        let left = expect_relation(self.eval_inner(a)?)?;
        let right = expect_relation(self.eval_inner(b)?)?;

        let (left_rows, right_rows) = (left.as_bag().pairs(), right.as_bag().pairs());
        if let Some((li, rj)) =
            join_attrs.and_then(|(i, j)| join::classify(i, j, left_rows, right_rows))
        {
            // Cached per-key index on the left operand: repeated joins
            // against the same `DB′` view (or the same subquery result
            // representation) probe instead of rebuilding the hash table
            // per query. A non-empty uniform-arity side with `li` in
            // range always indexes.
            if let Some(cached) = self.indexes.get_or_build(left.as_bag(), li) {
                let mut out = BagBuilder::new();
                join::probe(
                    right_rows,
                    &cached,
                    rj,
                    false,
                    |left_fields, right_fields, _, _| {
                        self.step()?; // one per surviving pair, like the filter
                        out.push_one(Value::concat_tuples(left_fields, right_fields));
                        self.check_builder_limit(&mut out)
                    },
                )?;
                let rel = Relation::from_set_bag_unchecked(out.build_set());
                return Ok(ProductOutcome::Joined(rel));
            }
        }

        let out = left.product(&right, self.limits.max_bag_elements)?;
        self.check_size(&out)?;
        Ok(ProductOutcome::Materialized(out))
    }

    fn eval_binary(
        &mut self,
        a: &RalgExpr,
        b: &RalgExpr,
        op: impl FnOnce(&Relation, &Relation) -> Result<Relation, BagError>,
    ) -> Result<Value, EvalError> {
        let left = expect_relation(self.eval_inner(a)?)?;
        let right = expect_relation(self.eval_inner(b)?)?;
        let out = op(&left, &right)?;
        self.check_size(&out)?;
        Ok(out.to_value())
    }

    fn eval_pred(&mut self, pred: &RalgPred) -> Result<bool, EvalError> {
        self.step()?;
        match pred {
            RalgPred::True => Ok(true),
            RalgPred::Eq(a, b) => Ok(self.eval_inner(a)? == self.eval_inner(b)?),
            RalgPred::Member(a, b) => {
                let elem = self.eval_inner(a)?;
                let rel = expect_relation(self.eval_inner(b)?)?;
                Ok(rel.contains(&elem))
            }
            RalgPred::Subset(a, b) => {
                let left = expect_relation(self.eval_inner(a)?)?;
                let right = expect_relation(self.eval_inner(b)?)?;
                Ok(left.is_subset_of(&right))
            }
            RalgPred::Not(p) => Ok(!self.eval_pred(p)?),
            RalgPred::And(a, b) => Ok(self.eval_pred(a)? && self.eval_pred(b)?),
            RalgPred::Or(a, b) => Ok(self.eval_pred(a)? || self.eval_pred(b)?),
        }
    }
}

/// One node of a `MAP`/`σ` spine, borrowed from the expression tree.
enum Stage<'e> {
    Map { var: &'e Var, body: &'e RalgExpr },
    Filter { var: &'e Var, pred: &'e RalgPred },
}

/// What a stage chain streams over: an evaluated relation, or the
/// unmaterialized pairs of a product feeding a `MAP` stage.
enum ChainBase {
    Rel(Relation),
    Pairs(Relation, Relation),
}

/// How [`RalgEvaluator::eval_product`] produced its relation.
enum ProductOutcome {
    /// Hash join: the equi-join filter is already applied.
    Joined(Relation),
    /// Full Cartesian product: any filter still needs to run.
    Materialized(Relation),
}

/// Recognize `αᵢ(x) = αⱼ(x)` over the σ-bound variable `x`, in the
/// [`join::equi_attrs`] normal form the BALG recogniser shares.
fn equi_join_attrs(pred: &RalgPred, var: &Var) -> Option<(usize, usize)> {
    let attr_of = |e: &RalgExpr| match e {
        RalgExpr::Attr(inner, ix) => match inner.as_ref() {
            RalgExpr::Var(name) if name == var => Some(*ix),
            _ => None,
        },
        _ => None,
    };
    match pred {
        RalgPred::Eq(a, b) => join::equi_attrs(attr_of(a)?, attr_of(b)?),
        _ => None,
    }
}

/// Re-wrap an evaluator-produced value as a relation. The evaluator only
/// ever produces set-shaped values (database views are deduplicated at
/// lookup, literals at evaluation, and every operator preserves the
/// invariant), so no re-deduplication runs here — debug builds verify.
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
    fn attr_index_zero_in_a_join_predicate_stays_unfused() {
        // σ_{α₀=α₂}(G × G), either way round: `α₀` is not a join key, so
        // the σ must not fuse — the fused shape and the same σ over a
        // detour (a union with ∅, which no recogniser sees through) raise
        // the same AttrIndexZero, as the BALG evaluator's twin does.
        let db = Database::new().with(
            "G",
            Bag::from_values([Value::tuple([Value::sym("a"), Value::sym("b")])]),
        );
        for (i, j) in [(0, 2), (2, 0)] {
            let pred = || RalgPred::Eq(RalgExpr::var("x").attr(i), RalgExpr::var("x").attr(j));
            assert_eq!(equi_join_attrs(&pred(), &Var::from("x")), None);
            let product = || RalgExpr::var("G").product(RalgExpr::var("G"));
            let fused = product().select("x", pred());
            let detour = product()
                .union(RalgExpr::lit(Value::empty_bag()))
                .select("x", pred());
            for q in [fused, detour] {
                match eval(&q, &db) {
                    Err(EvalError::Bag(BagError::AttrIndexZero)) => {}
                    other => panic!("α{i} = α{j}: expected AttrIndexZero, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fused_join_matches_materialized_select() {
        // σ_{α₂=α₃}(G×G) through the hash join vs the same query shaped so
        // the join fusion cannot fire (filter not directly over product).
        let edges: Vec<Value> = [("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")]
            .iter()
            .map(|(x, y)| Value::tuple([Value::sym(x), Value::sym(y)]))
            .collect();
        let db = Database::new().with("G", Bag::from_values(edges));
        let join = RalgExpr::var("G").product(RalgExpr::var("G")).select(
            "x",
            RalgPred::Eq(RalgExpr::var("x").attr(2), RalgExpr::var("x").attr(3)),
        );
        let joined = eval_relation(&join, &db).unwrap();
        // Same σ, but over a union with the empty relation so the base of
        // the chain is not a Product node.
        let detour = RalgExpr::var("G")
            .product(RalgExpr::var("G"))
            .union(RalgExpr::lit(Value::empty_bag()))
            .select(
                "x",
                RalgPred::Eq(RalgExpr::var("x").attr(2), RalgExpr::var("x").attr(3)),
            );
        let materialized = eval_relation(&detour, &db).unwrap();
        assert_eq!(joined, materialized);
        assert!(joined.contains(&Value::tuple([
            Value::sym("a"),
            Value::sym("b"),
            Value::sym("b"),
            Value::sym("c"),
        ])));
    }

    #[test]
    fn streamed_map_over_product_matches_materialized() {
        let db = Database::new()
            .with("R", unary(&["a", "b", "c"]))
            .with("S", unary(&["x", "y"]));
        let fused = RalgExpr::var("R")
            .product(RalgExpr::var("S"))
            .map("t", RalgExpr::tuple([RalgExpr::var("t").attr(2)]));
        let detour = RalgExpr::var("R")
            .product(RalgExpr::var("S"))
            .union(RalgExpr::lit(Value::empty_bag()))
            .map("t", RalgExpr::tuple([RalgExpr::var("t").attr(2)]));
        let a = eval_relation(&fused, &db).unwrap();
        let b = eval_relation(&detour, &db).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2); // set semantics collapse to the S side
    }

    #[test]
    fn fused_chain_enforces_element_limit_incrementally() {
        // Every pair survives the σ, so the streamed product would emit
        // |R|² = 100 tuples; a budget of 8 must stop the loop early.
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
            Err(EvalError::ElementLimit { limit: 8, .. })
        ));
    }
}
