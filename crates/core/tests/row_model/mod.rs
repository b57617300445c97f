//! The stage chain re-derived outside the evaluator, shared by the
//! `row_filter_props` and `seek_props` differentials: every base row is
//! pushed through the chain's stages one by one, each `σ` through the
//! public tree walk [`Evaluator::eval_pred_open`], each general `MAP` body
//! through [`Evaluator::eval_open`], into a `BagBuilder` — charging the
//! spine, product and projection steps the fused loop documents, and
//! checking the element budget after every push as the fused loop does.
//! Nothing in it can reach the in-place walker or the seek, because the
//! predicate never sits under a `Select` node the reference evaluates.

use balg_core::analyze::ifp_delta_form;
use balg_core::bag::{attr_field, Bag, BagBuilder, BagError};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;

/// The stage chain, row by row, over the tree-walk entry points of one
/// evaluator (which accumulates the steps and enforces the step budget).
pub struct Model<'a> {
    pub ev: Evaluator<'a>,
    max_bag_elements: u64,
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
        Model {
            ev: Evaluator::new(db, limits.clone()),
            max_bag_elements: limits.max_bag_elements,
        }
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
                Ok(self.bag(inner, env)?.dedup())
            }
            Expr::Ifp { var, body, input } => {
                self.tick()?;
                // The evaluator's loop: a delta-form body (form 3 with a
                // predicate that does not read `T`) sees only the rows
                // the last round added, and is charged for those.
                let delta_form = ifp_delta_form(var, body);
                let mut current = self.bag(input, env)?;
                let mut fresh = current.clone();
                loop {
                    let seen = if delta_form { fresh } else { current.clone() };
                    let inner = bound(env, var, Value::Bag(seen));
                    fresh = self.bag(body, &inner)?.subtract(&current);
                    if fresh.is_empty() {
                        return Ok(current);
                    }
                    current = current.additive_union(&fresh);
                }
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
        Ok(out.build())
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
        out.ensure_distinct_within(self.max_bag_elements)
            .map_err(|observed| EvalError::ElementLimit {
                observed,
                limit: self.max_bag_elements,
            })
    }
}
