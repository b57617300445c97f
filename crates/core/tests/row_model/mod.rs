//! The stage chain re-derived outside the evaluator, against which
//! `fast_path_differential` holds the reference side of `σ`/`π` chains:
//! every base row is pushed through the chain's stages one by one, each
//! `σ` through the public tree walk [`Evaluator::eval_pred_open`], each
//! general `MAP` body through [`Evaluator::eval_open`], into a
//! `BagBuilder` — charging the spine, product and projection steps the
//! chain loop documents, checking the element budget after every push as
//! the chain loop does, and observing each bag the evaluator observes (a
//! chain's result, an `ε`, a fixpoint's accumulator every round) for the
//! maxima and budgets of [`Metrics`]. Its evaluator runs on the reference
//! ([`Evaluator::set_reference`]), and a chain's own predicates never sit
//! under a `Select` node it evaluates, so no fast path is reached.

use balg_core::bag::{attr_field, Bag, BagBuilder, BagError};
use balg_core::eval::{EvalError, Evaluator, Limits, Metrics};
use balg_core::expr::{Expr, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;

/// The stage chain, row by row, over the tree-walk entry points of one
/// evaluator (which accumulates the steps and enforces the step budget).
pub struct Model<'a> {
    ev: Evaluator<'a>,
    limits: Limits,
    /// The maxima and rounds of what the model itself observed.
    observed: Metrics,
}

type Env = Vec<(Var, Value)>;

fn bound(env: &Env, var: &Var, row: Value) -> Env {
    let mut env = env.clone();
    env.push((var.clone(), row));
    env
}

/// `[α_{i₁}(var), …]` — the body shape the chain runs as a projection.
fn projection(body: &Expr, var: &Var) -> Option<Vec<usize>> {
    let Expr::Tuple(fields) = body else {
        return None;
    };
    if fields.is_empty() {
        return None;
    }
    fields
        .iter()
        .map(|field| match field {
            Expr::Attr(inner, ix) if matches!(inner.as_ref(), Expr::Var(v) if v == var) => {
                Some(*ix)
            }
            _ => None,
        })
        .collect()
}

impl<'a> Model<'a> {
    pub fn new(db: &'a Database, limits: &Limits) -> Model<'a> {
        let mut ev = Evaluator::new(db, limits.clone());
        ev.set_reference(true);
        Model {
            ev,
            limits: limits.clone(),
            observed: Metrics::default(),
        }
    }

    /// The evaluator's metrics, with the maxima and rounds of the bags the
    /// model observed itself.
    pub fn metrics(&self) -> Metrics {
        let (ev, own) = (self.ev.metrics(), &self.observed);
        Metrics {
            max_distinct_elements: ev.max_distinct_elements.max(own.max_distinct_elements),
            max_multiplicity: ev
                .max_multiplicity
                .clone()
                .max(own.max_multiplicity.clone()),
            max_cardinality: ev.max_cardinality.clone().max(own.max_cardinality.clone()),
            ifp_iterations: ev.ifp_iterations + own.ifp_iterations,
            ..ev.clone()
        }
    }

    /// Record a bag the evaluator observes, under its budgets.
    fn observe(&mut self, bag: Bag) -> Result<Bag, EvalError> {
        let distinct = bag.distinct_count() as u64;
        if distinct > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: distinct,
                limit: self.limits.max_bag_elements,
            });
        }
        let max_mult = bag.max_multiplicity();
        if max_mult.bits() > self.limits.max_multiplicity_bits {
            return Err(EvalError::MultiplicityLimit {
                observed_bits: max_mult.bits(),
                limit_bits: self.limits.max_multiplicity_bits,
            });
        }
        let m = &mut self.observed;
        m.max_distinct_elements = m.max_distinct_elements.max(distinct);
        m.max_multiplicity = m.max_multiplicity.clone().max(max_mult);
        m.max_cardinality = m.max_cardinality.clone().max(bag.cardinality());
        Ok(bag)
    }

    /// Charge exactly one step (a literal is one node).
    fn tick(&mut self) -> Result<(), EvalError> {
        self.ev.eval_open(&Expr::empty_bag(), &[]).map(drop)
    }

    /// Evaluate the closed expression `expr`.
    pub fn eval(&mut self, expr: &Expr) -> Result<Bag, EvalError> {
        self.bag(expr, &Env::new())
    }

    fn bag(&mut self, expr: &Expr, env: &Env) -> Result<Bag, EvalError> {
        match expr {
            Expr::Map { .. } | Expr::Select { .. } => self.chain(expr, env),
            Expr::Dedup(inner) => {
                self.tick()?;
                let deduped = self.bag(inner, env)?.dedup();
                self.observe(deduped)
            }
            Expr::Ifp { var, body, input } => {
                self.tick()?;
                // The reference's loop: every round binds the whole
                // accumulator.
                let mut current = self.bag(input, env)?;
                for _ in 0..self.limits.max_ifp_iterations {
                    self.observed.ifp_iterations += 1;
                    let inner = bound(env, var, Value::Bag(current.clone()));
                    let fresh = self.bag(body, &inner)?.subtract(&current);
                    let next = self.observe(current.additive_union(&fresh))?;
                    if fresh.is_empty() {
                        return Ok(current);
                    }
                    current = next;
                }
                Err(EvalError::IfpLimit(self.limits.max_ifp_iterations))
            }
            _ => Ok(self
                .ev
                .eval_open(expr, env)?
                .into_bag()
                .expect("generated bases are bags")),
        }
    }

    fn chain(&mut self, expr: &Expr, env: &Env) -> Result<Bag, EvalError> {
        let mut spine = Vec::new();
        let mut node = expr;
        while let Expr::Map { input, .. } | Expr::Select { input, .. } = node {
            spine.push(node);
            node = input;
        }
        spine.reverse();
        for _ in &spine {
            self.tick()?;
        }
        let mut out = BagBuilder::new();
        match node {
            // A `MAP` directly over `×` streams the pairs.
            Expr::Product(a, b) if matches!(spine[0], Expr::Map { .. }) => {
                self.tick()?;
                let (left, right) = (self.bag(a, env)?, self.bag(b, env)?);
                for (lv, lm) in left.iter() {
                    let lf = lv
                        .as_tuple()
                        .ok_or_else(|| BagError::NotATuple(lv.clone()))?;
                    for (rv, rm) in right.iter() {
                        let rf = rv
                            .as_tuple()
                            .ok_or_else(|| BagError::NotATuple(rv.clone()))?;
                        let pair = Value::concat_tuples(lf, rf);
                        self.row(&spine, env, pair, lm * rm, &mut out)?;
                    }
                }
            }
            _ => {
                for (value, mult) in self.bag(node, env)?.iter() {
                    self.row(&spine, env, value.clone(), mult.clone(), &mut out)?;
                }
            }
        }
        self.observe(out.build())
    }

    fn row(
        &mut self,
        spine: &[&Expr],
        env: &Env,
        value: Value,
        mult: Natural,
        out: &mut BagBuilder,
    ) -> Result<(), EvalError> {
        let mut current = value;
        for stage in spine {
            match stage {
                Expr::Select { var, pred, .. } => {
                    let env = bound(env, var, current.clone());
                    if !self.ev.eval_pred_open(pred, &env)? {
                        return Ok(());
                    }
                }
                Expr::Map { var, body, .. } => {
                    current = if let Some(indices) = projection(body, var) {
                        self.tick()?;
                        let fields = current.as_tuple().ok_or_else(|| EvalError::Shape {
                            expected: "a tuple",
                            found: current.to_string(),
                        })?;
                        let picked: Result<Vec<Value>, BagError> = indices
                            .iter()
                            .map(|&ix| attr_field(fields, ix).cloned())
                            .collect();
                        Value::tuple(picked?)
                    } else if matches!(**body, Expr::Map { .. } | Expr::Select { .. }) {
                        Value::Bag(self.chain(body, &bound(env, var, current))?)
                    } else {
                        self.ev.eval_open(body, &bound(env, var, current))?
                    };
                }
                _ => unreachable!("spine nodes are Map or Select"),
            }
        }
        out.push(current, mult);
        out.ensure_distinct_within(self.limits.max_bag_elements)
            .map_err(|observed| EvalError::ElementLimit {
                observed,
                limit: self.limits.max_bag_elements,
            })
    }
}
