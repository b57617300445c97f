//! One maintained view: a BALG expression compiled to a tree of
//! snapshot-carrying nodes, each with a maintenance rule.
//!
//! Each node memoizes its current value under the runtime's database and
//! holds its operator as a *probe*: the operator applied to fresh input
//! variables, one per child. The evaluator runs every probe, so a node
//! computes exactly what a one-shot evaluation of its operator computes,
//! under the same budgets, and its work is charged to the same step
//! meter. An update pass walks the tree once: subtrees whose free
//! database names are untouched by the batch return immediately. Then,
//! by rule:
//!
//! * `∪⁺` adds its children's deltas;
//! * `MAP`, `σ` and `δ` (linear in their one input) run their probe on
//!   the positive and negative parts of the input's delta,
//!   `F(δ) = F(δ⁺) ⊖ F(δ⁻)`;
//! * `×` and the fused equi-join `σ_{αᵢ=αⱼ}(×)` (bilinear) run their
//!   probe on the three terms of
//!   `δ(A ⋈ B) = δA ⋈ B_new ⊕ A_new ⋈ δB ⊖ δA ⋈ δB`, each delta split
//!   the same way — the evaluator's join probes `B_new`'s index from the
//!   runtime's one patched cache, so a one-row delta against a large base
//!   touches only the matching rows;
//! * `ε`, `∸`, `∪` and `∩` are pointwise in the multiplicity,
//!   `out(x) = f(m₁(x), m₂(x))` with `f` one of `[m > 0]`, monus, `max`
//!   and `min`, so their output moves only at keys their children's deltas
//!   hold: [`Bag::pointwise`] reads each such key's new multiplicities off
//!   the children's refreshed values by binary search, takes the old ones
//!   by subtracting the deltas, and emits `f(new) − f(old)`
//!   (`O(|δ| log n)`, no old snapshot kept). This rule applies `f` itself
//!   and runs no probe, so it charges no evaluation steps; it checks the
//!   element and multiplicity budgets a re-derivation would have on the
//!   patched value;
//! * every other node (`P`, `P_b`, `nest`, `IFP`, and any node with a
//!   scalar child that changed wholesale) re-derives **one operator
//!   application** over its children's refreshed snapshots and hands the
//!   pointwise difference to its parent as a delta.
//!
//! Every image is an `ℕ`-bag the evaluator computed; only their signed
//! sum is a ℤ-bag. The result is that work concentrates where the update
//! actually lands.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use balg_core::analyze::{base_linearity, Linearity};
use balg_core::bag::{Bag, MergeOp};
use balg_core::eval::{equi_join_attrs, EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_core::zbag::{Spare, ZInt};

/// The fresh variable a probe binds its `k`-th child's value to (not
/// expressible in the surface syntax, so it can never collide with a user
/// name).
fn input_var(k: usize) -> Var {
    Var::from(format!("·Δ{k}"))
}

/// Instrumentation counters for one view — which maintenance path ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Linear derivative-rule applications (`∪⁺`, `MAP`/`σ` with an
    /// unaffected body, the bilinear `×` rule, destroy).
    pub linear_delta_ops: u64,
    /// Pointwise delta-rule applications: an `ε`, `∸`, `∪` or `∩` node
    /// patched at the keys its children's deltas hold, without running
    /// its operator.
    pub pointwise_delta_ops: u64,
    /// Non-linear fallbacks: one operator re-derived over memoized child
    /// snapshots (`nest`, `P`/`P_b`, `IFP`, `MAP`/`σ` whose λ body reads
    /// an updated bag, and a pointwise node whose scalar child changed
    /// wholesale).
    pub fallback_recomputes: u64,
    /// Scalar construct re-derivations (`τ`, `β`, `αᵢ` over a changed
    /// child value) — constant-size work, counted separately.
    pub scalar_recomputes: u64,
    /// Full view re-derivations (degraded path after a maintenance
    /// error, or an explicit rebase).
    pub full_reinits: u64,
    /// Fused `σ_{αᵢ=αⱼ}(×)` deltas whose probes the evaluator answered
    /// by probing a per-key index — only rows keyed by the delta's join
    /// values were touched (`O(matches)`).
    pub indexed_join_ops: u64,
    /// Fused equi-join deltas that probed no index (`O(|other side|)`):
    /// the runtime set to its reference, the pair of attributes does not
    /// span the product boundary, or an operand's rows are not of one
    /// arity.
    pub scanned_join_ops: u64,
}

impl ViewStats {
    /// Pointwise sum of two counters (used by the runtime aggregate).
    pub fn merged(&self, other: &ViewStats) -> ViewStats {
        ViewStats {
            linear_delta_ops: self.linear_delta_ops + other.linear_delta_ops,
            pointwise_delta_ops: self.pointwise_delta_ops + other.pointwise_delta_ops,
            fallback_recomputes: self.fallback_recomputes + other.fallback_recomputes,
            scalar_recomputes: self.scalar_recomputes + other.scalar_recomputes,
            full_reinits: self.full_reinits + other.full_reinits,
            indexed_join_ops: self.indexed_join_ops + other.indexed_join_ops,
            scanned_join_ops: self.scanned_join_ops + other.scanned_join_ops,
        }
    }
}

/// A maintenance failure inside one view's update pass.
#[derive(Debug, Clone)]
pub(crate) enum MaintainError {
    /// Evaluation failed (budget, shape, unbound name).
    Eval(EvalError),
    /// An internal invariant broke — a delta drove a snapshot
    /// multiplicity negative. The runtime degrades to a full re-init.
    Internal(String),
}

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintainError::Eval(e) => write!(f, "{e}"),
            MaintainError::Internal(what) => write!(f, "internal maintenance error: {what}"),
        }
    }
}

impl From<EvalError> for MaintainError {
    fn from(e: EvalError) -> Self {
        MaintainError::Eval(e)
    }
}

/// What an updated node reports to its parent.
enum Delta {
    /// Nothing changed.
    None,
    /// The node is bag-valued and changed by exactly this delta.
    Bag(Bag<ZInt>),
    /// The node's value was replaced wholesale (scalar constructs).
    Opaque,
}

impl Delta {
    /// The bag delta, zero for `None`. Only for a delta known not to be
    /// `Opaque`.
    fn into_zbag(self) -> Bag<ZInt> {
        match self {
            Delta::Bag(delta) => delta,
            Delta::None | Delta::Opaque => Bag::<ZInt>::new(),
        }
    }
}

/// How one compiled node turns its children's deltas into its own. The
/// operator itself is the node's probe; every rule that cannot take a
/// delta re-derives the node by running it.
#[derive(Clone, Debug)]
enum Rule {
    /// A database bag: its delta is the batch's.
    Base(Var),
    /// A literal: never changes.
    Const,
    /// `∪⁺`: the children's deltas add.
    Sum,
    /// `×`: the bilinear rule in post-update form, each term a probe.
    Product,
    /// `σ_{αᵢ=αⱼ}(A × B)` fused at compile time (children are the two
    /// product operands): the bilinear rule with the fused join as the
    /// probe, so a term keyed across the product boundary touches only
    /// the rows the delta's join values key in the other operand's index.
    EquiJoin,
    /// `MAP`, `σ` and `δ`: linear in their one input, so the probe maps
    /// a delta's positive and negative parts — while the λ body reads no
    /// updated bag.
    Linear,
    /// `ε` (`None`) and the merges `∸`, `∪`, `∩` (`Some(op)`): pointwise
    /// in the multiplicity, so the node's delta is `f(new) − f(old)` at
    /// the keys its children's deltas hold ([`Bag::pointwise`]), `f` being
    /// `[m > 0]` or [`MergeOp::combine`]. A child that changed wholesale
    /// sends the node to re-derivation.
    Pointwise(Option<MergeOp>),
    /// `P`, `P_b`, `nest` and `IFP`: re-derived whenever an input, or a
    /// bag the λ body reads, moved.
    Rederive,
    /// `τ`, `β`, `αᵢ`: constant-size re-derivation.
    Scalar,
}

/// One compiled node: rule, probe, children, free-name analysis, and the
/// memoized snapshot.
#[derive(Clone, Debug)]
struct Node {
    rule: Rule,
    /// The node's operator with each child replaced by its input
    /// variable (λ bodies stay inside): what the evaluator runs over the
    /// children's values, or over the delta parts of a linear node's
    /// input or a bilinear node's terms.
    probe: Expr,
    /// The probe's input variables, one per child, in child order.
    inputs: Vec<Var>,
    children: Vec<Node>,
    /// Database names this subtree reads, λ bodies included — the key for
    /// skipping untouched subtrees.
    reads: BTreeSet<Var>,
    /// Names read by the λ body/pred alone (empty for non-λ nodes): when
    /// an update touches these, the linear rule is unsound and the node
    /// falls back.
    body_reads: BTreeSet<Var>,
    /// Whether this node materializes its value. Demanded top-down by
    /// [`mark_snapshots`]: the root, every node a parent may re-derive
    /// from, and every node that can itself fall back. Purely-linear
    /// interior nodes (e.g. the product under a clean equi-join σ) skip
    /// materialization entirely — their deltas stream through, so a
    /// single-tuple update never touches an `O(|A|·|B|)` intermediate.
    keep_snapshot: bool,
    /// The node's own sub-expression — what [`Node::init`] evaluates
    /// (through the fused evaluator, so a skipped-product chain never
    /// materializes the product even at registration).
    expr: Expr,
    /// The node's current value under the runtime's database
    /// (a placeholder when `keep_snapshot` is false; `Var` nodes read
    /// through to the database instead of holding a second reference, and
    /// literals hold their value from compilation on).
    snapshot: Value,
    /// The snapshot's previous version, for [`Bag::patch`]. Only view
    /// roots are published, so in practice only a root's spare ever holds
    /// a buffer.
    spare: Spare,
}

/// Everything an update pass threads through the tree.
struct UpdateCtx<'a, 'e> {
    deltas: &'e BTreeMap<Var, Bag<ZInt>>,
    affected: &'e BTreeSet<Var>,
    db: &'a Database,
    ev: &'e mut Evaluator<'a>,
    stats: &'e mut ViewStats,
}

/// Free database names of a λ body, excluding the bound variable.
fn body_free_vars(body: &Expr, var: &Var) -> BTreeSet<Var> {
    body.free_vars().into_iter().filter(|v| v != var).collect()
}

/// Free database names mentioned by a predicate, excluding the bound
/// variable.
fn pred_free_vars(pred: &Pred, var: &Var) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    pred.visit_exprs(&mut |e| out.extend(e.free_vars()));
    out.remove(var);
    out
}

fn compile(expr: Expr) -> Node {
    // `σ_{αᵢ=αⱼ}(A × B)` fuses into one join node whose children are A
    // and B: the σ must intercept *before* the product's bilinear rule,
    // or every delta would pay the full `δA × B` intermediate only to
    // filter it down to the matches.
    let join = match &expr {
        Expr::Select { var, pred, input } if matches!(**input, Expr::Product(..)) => {
            equi_join_attrs(pred, var)
        }
        _ => None,
    };
    let rule = if join.is_some() {
        Rule::EquiJoin
    } else {
        match &expr {
            Expr::Var(name) => Rule::Base(name.clone()),
            Expr::Lit(_) => Rule::Const,
            Expr::AdditiveUnion(..) => Rule::Sum,
            Expr::Product(..) => Rule::Product,
            Expr::Map { .. } | Expr::Select { .. } | Expr::Destroy(_) => Rule::Linear,
            Expr::Tuple(_) | Expr::Singleton(_) | Expr::Attr(..) => Rule::Scalar,
            Expr::Dedup(_) => Rule::Pointwise(None),
            Expr::Subtract(..) => Rule::Pointwise(Some(MergeOp::Monus)),
            Expr::MaxUnion(..) => Rule::Pointwise(Some(MergeOp::Max)),
            Expr::Intersect(..) => Rule::Pointwise(Some(MergeOp::Min)),
            Expr::Powerset(_) | Expr::Powerbag(_) | Expr::Nest { .. } | Expr::Ifp { .. } => {
                Rule::Rederive
            }
        }
    };
    // The fused join's pred reads only attributes of the bound tuple, so
    // its `body_reads` come out empty.
    let body_reads = match &expr {
        Expr::Map { var, body, .. } | Expr::Ifp { var, body, .. } => body_free_vars(body, var),
        Expr::Select { var, pred, .. } => pred_free_vars(pred, var),
        _ => BTreeSet::new(),
    };
    // Each operand — a child outside every λ; a λ body runs inside the
    // probe — compiles into a child node and leaves an input variable in
    // its place.
    let mut probe = expr.clone();
    let (mut inputs, mut children) = (Vec::new(), Vec::new());
    let compile_operand = |operand: &mut Expr, var: Option<&Var>| {
        if var.is_none() {
            let input = input_var(inputs.len());
            children.push(compile(std::mem::replace(
                operand,
                Expr::Var(input.clone()),
            )));
            inputs.push(input);
        }
    };
    match &mut probe {
        Expr::Select { input, .. } if join.is_some() => input.for_each_child_mut(compile_operand),
        other => other.for_each_child_mut(compile_operand),
    }
    let mut reads: BTreeSet<Var> = body_reads.clone();
    if let Rule::Base(name) = &rule {
        reads.insert(name.clone());
    }
    for child in &children {
        reads.extend(child.reads.iter().cloned());
    }
    let snapshot = match &expr {
        Expr::Lit(value) => value.clone(),
        _ => Value::empty_bag(),
    };
    Node {
        rule,
        probe,
        inputs,
        children,
        reads,
        body_reads,
        keep_snapshot: true,
        expr,
        snapshot,
        spare: Spare::default(),
    }
}

/// Can this node's update pass take the re-derivation path? (If so it
/// reads its own old snapshot — for the delta diff — and its children's
/// fresh values.) `Opaque` child deltas, the other fallback trigger, can
/// only originate from direct `τ`/`αᵢ` children: every other node
/// reports `None` or a bag delta, and a node that absorbs an `Opaque` by
/// re-deriving emits a bag delta itself. A pointwise node counts as one
/// too: its budget check reads its own patched value.
fn can_fall_back(node: &Node) -> bool {
    let opaque_child = || {
        node.children
            .iter()
            .any(|c| matches!(c.probe, Expr::Tuple(_) | Expr::Attr(..)))
    };
    match &node.rule {
        Rule::Rederive | Rule::Pointwise(_) | Rule::Scalar => true,
        Rule::Linear | Rule::Sum | Rule::Product | Rule::EquiJoin => {
            !node.body_reads.is_empty() || opaque_child()
        }
        Rule::Base(_) | Rule::Const => false,
    }
}

/// Decide which nodes materialize snapshots. `demanded` means the parent
/// may read this node's value (re-derivation input, scalar recompute, or
/// the root result). `Var` nodes never materialize — readers go through
/// [`Node::current_value`] to the database.
fn mark_snapshots(node: &mut Node, demanded: bool) {
    node.keep_snapshot = match node.rule {
        Rule::Base(_) | Rule::Const => false,
        _ => demanded || can_fall_back(node),
    };
    let demands_children = match &node.rule {
        // Re-derivation reads every child; the bilinear and pointwise
        // rules read every operand's fresh value.
        Rule::Rederive | Rule::Pointwise(_) | Rule::Scalar | Rule::Product | Rule::EquiJoin => true,
        Rule::Linear | Rule::Sum => can_fall_back(node),
        Rule::Base(_) | Rule::Const => false,
    };
    for child in &mut node.children {
        mark_snapshots(child, demands_children);
    }
}

fn expect_bag(value: &Value) -> Result<&Bag, EvalError> {
    value.as_bag().ok_or_else(|| EvalError::Shape {
        expected: "a bag",
        found: value.to_string(),
    })
}

/// A delta's non-empty `ℕ`-bag halves, `δ = δ⁺ ⊖ δ⁻`, each with whether
/// it is the positive one.
fn halves(delta: &Bag<ZInt>) -> Vec<(Value, bool)> {
    let (plus, minus) = delta.split();
    [(plus, true), (minus, false)]
        .into_iter()
        .filter(|(half, _)| !half.is_empty())
        .map(|(half, sign)| (Value::Bag(half), sign))
        .collect()
}

/// Classify a replaced value for the parent: unchanged, a bag delta, or an
/// opaque scalar change.
fn replaced(old: &Value, new: &Value) -> Delta {
    if old == new {
        return Delta::None;
    }
    if let (Value::Bag(o), Value::Bag(n)) = (old, new) {
        return Delta::Bag(Bag::<ZInt>::diff(n, o));
    }
    Delta::Opaque
}

impl Node {
    /// The node's current value, cloned (a probe binding): materialized
    /// nodes answer from their snapshot, `Var` nodes read through to the
    /// (post-update) database so base bags never carry a second reference
    /// (which would force copy-on-write on every in-place base patch).
    fn current_value(&self, db: &Database) -> Result<Value, EvalError> {
        match &self.rule {
            Rule::Base(_) if !self.keep_snapshot => self.current_bag(db).cloned().map(Value::Bag),
            _ => Ok(self.snapshot.clone()),
        }
    }

    /// The node's current value as a borrowed bag: [`Node::current_value`]
    /// without the clone.
    fn current_bag<'v>(&'v self, db: &'v Database) -> Result<&'v Bag, EvalError> {
        match &self.rule {
            Rule::Base(name) if !self.keep_snapshot => db
                .get(name)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
            _ => expect_bag(&self.snapshot),
        }
    }

    /// Run the probe with `values` bound to its inputs, in order.
    fn run_probe(
        &self,
        ev: &mut Evaluator<'_>,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<Value, EvalError> {
        let bindings: Vec<(Var, Value)> = self.inputs.iter().cloned().zip(values).collect();
        ev.eval_open(&self.probe, &bindings)
    }

    /// Re-derive this node's value from its children's current values
    /// (one operator application — children are *not* re-evaluated).
    fn derive(&self, db: &Database, ev: &mut Evaluator<'_>) -> Result<Value, EvalError> {
        let values = self
            .children
            .iter()
            .map(|child| child.current_value(db))
            .collect::<Result<Vec<_>, _>>()?;
        self.run_probe(ev, values)
    }

    /// A linear node's delta: the probe maps the delta's positive and
    /// negative parts, two ℕ-bags, and the images subtract —
    /// `F(δ⁺ ⊖ δ⁻) = F(δ⁺) ⊖ F(δ⁻)`.
    fn linear_delta(
        &self,
        ev: &mut Evaluator<'_>,
        delta: &Bag<ZInt>,
    ) -> Result<Bag<ZInt>, EvalError> {
        self.signed_images(ev, halves(delta).into_iter().map(|(x, sign)| ([x], sign)))
    }

    /// A bilinear node's delta (`×`, or the fused `σ_{αᵢ=αⱼ}(×)`) in
    /// post-update form — only fresh operand values are needed, so no old
    /// snapshots are captured: `δ(A ⋈ B) = δA ⋈ B_new ⊕ A_new ⋈ δB ⊖
    /// δA ⋈ δB`, `⋈` the node's probe. Each delta splits into its halves,
    /// so a term is up to four probes, each image signed by its halves.
    fn bilinear_delta(
        &self,
        db: &Database,
        ev: &mut Evaluator<'_>,
        delta_a: &Bag<ZInt>,
        delta_b: &Bag<ZInt>,
    ) -> Result<Bag<ZInt>, EvalError> {
        let a = self.children[0].current_value(db)?;
        let b = self.children[1].current_value(db)?;
        let (a_halves, b_halves) = (halves(delta_a), halves(delta_b));
        let mut terms = Vec::new();
        for (x, sign) in &a_halves {
            terms.push(([x.clone(), b.clone()], *sign));
        }
        for (y, sign) in &b_halves {
            terms.push(([a.clone(), y.clone()], *sign));
        }
        for (x, x_sign) in &a_halves {
            for (y, y_sign) in &b_halves {
                terms.push(([x.clone(), y.clone()], x_sign != y_sign));
            }
        }
        self.signed_images(ev, terms)
    }

    /// A pointwise node's delta: `f` at the keys the children's `deltas`
    /// hold, read off their refreshed values ([`Bag::pointwise`]). `op`
    /// is the node's merge, `None` for `ε`.
    fn pointwise_delta(
        &self,
        db: &Database,
        op: Option<MergeOp>,
        deltas: &[Bag<ZInt>],
    ) -> Result<Bag<ZInt>, MaintainError> {
        let news = self
            .children
            .iter()
            .map(|child| child.current_bag(db))
            .collect::<Result<Vec<_>, _>>()?;
        let delta = match op {
            None => Bag::<ZInt>::pointwise([news[0]], [&deltas[0]], |[m]| {
                Natural::from(u64::from(!m.is_zero()))
            }),
            Some(op) => {
                Bag::<ZInt>::pointwise([news[0], news[1]], [&deltas[0], &deltas[1]], |[p, q]| {
                    op.combine(p, q)
                })
            }
        };
        delta.map_err(|e| MaintainError::Internal(e.to_string()))
    }

    /// The budgets a re-derivation's evaluation would have enforced on a
    /// materialized node's patched value: its distinct count, and the
    /// width of every multiplicity `delta` raised. The others are as they
    /// were when last checked, at registration or by an earlier patch.
    fn check_budget(&self, limits: &Limits, delta: &Bag<ZInt>) -> Result<(), EvalError> {
        let value = expect_bag(&self.snapshot)?;
        let observed = value.distinct_count() as u64;
        if observed > limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed,
                limit: limits.max_bag_elements,
            });
        }
        let widest = delta
            .iter()
            .filter(|(_, step)| !step.is_negative())
            .map(|(key, _)| value.multiplicity(key).bits())
            .max()
            .unwrap_or(0);
        if widest > limits.max_multiplicity_bits {
            return Err(EvalError::MultiplicityLimit {
                observed_bits: widest,
                limit_bits: limits.max_multiplicity_bits,
            });
        }
        Ok(())
    }

    /// The signed sum of the probe's images over `terms`, each a binding
    /// of the inputs (in order) and whether its image adds or subtracts.
    /// The images are `ℕ`-bags, summed per sign and subtracted once. A
    /// term with an empty input is zero — every probe here is linear in
    /// each input — and is skipped. The delta is an intermediate bag like
    /// any other, so it obeys the distinct-element budget.
    fn signed_images<const N: usize>(
        &self,
        ev: &mut Evaluator<'_>,
        terms: impl IntoIterator<Item = ([Value; N], bool)>,
    ) -> Result<Bag<ZInt>, EvalError> {
        let (mut plus, mut minus) = (Bag::new(), Bag::new());
        for (values, adds) in terms {
            if values.iter().any(|v| v.as_bag().is_some_and(Bag::is_empty)) {
                continue;
            }
            let image = expect_bag(&self.run_probe(ev, values)?)?.clone();
            let sum = if adds { &mut plus } else { &mut minus };
            *sum = if sum.is_empty() {
                image
            } else {
                sum.additive_union(&image)
            };
        }
        let delta = Bag::<ZInt>::diff(&plus, &minus);
        let (observed, limit) = (delta.distinct_count() as u64, ev.limits().max_bag_elements);
        if observed > limit {
            return Err(EvalError::ElementLimit { observed, limit });
        }
        Ok(delta)
    }

    /// Fill in the materialized snapshots. A kept node whose children all
    /// have usable current values (materialized, a base bag, or a literal)
    /// derives its value with **one** operator application over them;
    /// only kept nodes above a non-materialized (purely linear) child
    /// re-evaluate their sub-expression through the fused evaluator — so
    /// stacked non-linear operators don't re-evaluate shared subtrees, and
    /// a skipped product under a clean σ is never materialized even at
    /// registration.
    fn init(&mut self, db: &Database, ev: &mut Evaluator<'_>) -> Result<(), EvalError> {
        for child in &mut self.children {
            child.init(db, ev)?;
        }
        if self.keep_snapshot {
            let ready = |c: &Node| c.keep_snapshot || matches!(c.rule, Rule::Base(_) | Rule::Const);
            self.snapshot = if self.children.iter().all(ready) {
                self.derive(db, ev)?
            } else {
                ev.eval_open(&self.expr, &[])?
            };
        }
        Ok(())
    }

    /// Re-derivation: one operator application over the children's
    /// refreshed values, re-expressed as a delta for the parent and
    /// counted as a scalar recompute or a fallback. Re-deriving nodes
    /// always materialize (see [`mark_snapshots`]), so `self.snapshot` is
    /// the valid pre-update value here.
    fn rederive(&mut self, ctx: &mut UpdateCtx<'_, '_>) -> Result<Delta, MaintainError> {
        let new = self.derive(ctx.db, ctx.ev)?;
        if matches!(self.rule, Rule::Scalar) {
            ctx.stats.scalar_recomputes += 1;
        } else {
            ctx.stats.fallback_recomputes += 1;
        }
        let delta = replaced(&self.snapshot, &new);
        self.snapshot = new;
        Ok(delta)
    }

    /// Apply a bag delta to this node's snapshot (in place when uniquely
    /// owned, through the node's spare when a published snapshot shares
    /// it; skipped entirely for non-materialized nodes) and normalize the
    /// report. The patched value is held to the budgets a re-derivation
    /// would have enforced on it ([`Node::check_budget`]), whichever rule
    /// computed the delta.
    fn apply_bag_delta(
        &mut self,
        limits: &Limits,
        delta: Bag<ZInt>,
    ) -> Result<Delta, MaintainError> {
        if delta.is_empty() {
            return Ok(Delta::None);
        }
        if !self.keep_snapshot {
            return Ok(Delta::Bag(delta));
        }
        let owned = std::mem::replace(&mut self.snapshot, Value::empty_bag());
        let Value::Bag(old) = owned else {
            return Err(MaintainError::Internal(
                "bag delta for a non-bag snapshot".to_owned(),
            ));
        };
        let new = delta
            .patch(old, &mut self.spare)
            .map_err(|e| MaintainError::Internal(e.to_string()))?;
        self.snapshot = Value::Bag(new);
        self.check_budget(limits, &delta)?;
        Ok(Delta::Bag(delta))
    }

    /// The update pass. Returns what changed, with `self.snapshot`
    /// refreshed to the post-update value.
    fn update(&mut self, ctx: &mut UpdateCtx<'_, '_>) -> Result<Delta, MaintainError> {
        if self.reads.is_disjoint(ctx.affected) {
            return Ok(Delta::None);
        }
        let body_affected = !self.body_reads.is_disjoint(ctx.affected);
        match &self.rule {
            Rule::Base(name) => {
                let name = name.clone();
                // The runtime has already committed the new base bag;
                // readers go through `current_value` to the database, so
                // only a demanded-as-root Var refreshes a snapshot.
                if self.keep_snapshot {
                    let bag = ctx.db.get(&name);
                    let bag = bag.ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
                    self.snapshot = Value::Bag(bag.clone());
                }
                match ctx.deltas.get(&name) {
                    Some(delta) if !delta.is_empty() => Ok(Delta::Bag(delta.clone())),
                    _ => Ok(Delta::None),
                }
            }
            Rule::Const => Ok(Delta::None),
            Rule::Sum | Rule::Product | Rule::EquiJoin => {
                let left = self.children[0].update(ctx)?;
                let right = self.children[1].update(ctx)?;
                let (da, db) = match (left, right) {
                    (Delta::Opaque, _) | (_, Delta::Opaque) => return self.rederive(ctx),
                    (Delta::None, Delta::None) => return Ok(Delta::None),
                    (left, right) => (left.into_zbag(), right.into_zbag()),
                };
                let delta = if let Rule::Sum = self.rule {
                    da.add(&db)
                } else {
                    let probed = ctx.ev.indexed_joins();
                    let delta = self.bilinear_delta(ctx.db, ctx.ev, &da, &db)?;
                    if let Rule::EquiJoin = self.rule {
                        if ctx.ev.indexed_joins() > probed {
                            ctx.stats.indexed_join_ops += 1;
                        } else {
                            ctx.stats.scanned_join_ops += 1;
                        }
                    }
                    delta
                };
                ctx.stats.linear_delta_ops += 1;
                self.apply_bag_delta(ctx.ev.limits(), delta)
            }
            Rule::Linear => match self.children[0].update(ctx)? {
                _ if body_affected => self.rederive(ctx),
                Delta::Opaque => self.rederive(ctx),
                Delta::None => Ok(Delta::None),
                Delta::Bag(d) => {
                    let delta = self.linear_delta(ctx.ev, &d)?;
                    ctx.stats.linear_delta_ops += 1;
                    self.apply_bag_delta(ctx.ev.limits(), delta)
                }
            },
            // Refresh every child, then patch in `f`'s change at the keys
            // their deltas hold.
            Rule::Pointwise(op) => {
                let op = *op;
                let mut deltas = Vec::with_capacity(self.children.len());
                for child in &mut self.children {
                    deltas.push(child.update(ctx)?);
                }
                if deltas.iter().any(|d| matches!(d, Delta::Opaque)) {
                    return self.rederive(ctx);
                }
                if deltas.iter().all(|d| matches!(d, Delta::None)) {
                    return Ok(Delta::None);
                }
                let deltas: Vec<Bag<ZInt>> = deltas.into_iter().map(Delta::into_zbag).collect();
                let delta = self.pointwise_delta(ctx.db, op, &deltas)?;
                ctx.stats.pointwise_delta_ops += 1;
                self.apply_bag_delta(ctx.ev.limits(), delta)
            }
            // Refresh every child, then re-derive this single operator
            // over their snapshots if anything it reads moved.
            Rule::Rederive | Rule::Scalar => {
                let mut moved = body_affected;
                for child in &mut self.children {
                    moved |= !matches!(child.update(ctx)?, Delta::None);
                }
                if !moved {
                    return Ok(Delta::None);
                }
                self.rederive(ctx)
            }
        }
    }
}

/// A registered, incrementally maintained view.
#[derive(Clone, Debug)]
pub struct View {
    /// The compiled tree; its root's `expr` is the view's expression.
    root: Node,
    stats: ViewStats,
    /// Per-base linearity facts from the static analyzer
    /// ([`balg_core::analyze::base_linearity`]), computed once at
    /// registration. Debug builds assert the certificate against the
    /// instrumentation counters on every maintenance pass: a batch that
    /// touches only ≤-bilinear bases must run entirely in delta form.
    linearity: BTreeMap<Var, Linearity>,
}

impl View {
    /// Compile and fully evaluate a view over the current database `db`,
    /// on the runtime's evaluator `ev` over it. The expression must be
    /// bag-valued and closed over database names.
    pub(crate) fn new(
        expr: Expr,
        db: &Database,
        ev: &mut Evaluator<'_>,
    ) -> Result<View, EvalError> {
        let linearity = base_linearity(&expr);
        let mut root = compile(expr);
        mark_snapshots(&mut root, true);
        // Even a bare `Var`/`Lit` root materializes: `result()` reads it.
        root.keep_snapshot = true;
        root.init(db, ev)?;
        if root.snapshot.as_bag().is_none() {
            return Err(EvalError::Shape {
                expected: "a bag-valued view",
                found: root.snapshot.to_string(),
            });
        }
        Ok(View {
            root,
            stats: ViewStats::default(),
            linearity,
        })
    }

    /// The maintained result.
    pub fn result(&self) -> &Bag {
        self.root
            .snapshot
            .as_bag()
            .expect("view results are bags — enforced at registration")
    }

    /// The view's defining expression.
    pub fn expr(&self) -> &Expr {
        &self.root.expr
    }

    /// The database names the view reads.
    pub fn reads(&self) -> &BTreeSet<Var> {
        &self.root.reads
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &ViewStats {
        &self.stats
    }

    /// The static analyzer's per-base linearity classification of the
    /// view's expression (bases absent from the map are unread). A base
    /// at [`Linearity::Linear`]/[`Linearity::Bilinear`] propagates
    /// through delta rules; anything higher can force an operator
    /// re-derivation when it changes.
    pub fn linearity(&self) -> &BTreeMap<Var, Linearity> {
        &self.linearity
    }

    /// One maintenance pass for a committed update batch. `db` is the
    /// **post-update** database and `ev` the runtime's evaluator over it,
    /// holding the runtime's index cache (base indexes in it have already
    /// been patched for this batch); `affected` names the bases whose
    /// deltas are nonzero.
    pub(crate) fn maintain<'a>(
        &mut self,
        deltas: &BTreeMap<Var, Bag<ZInt>>,
        affected: &BTreeSet<Var>,
        db: &'a Database,
        ev: &mut Evaluator<'a>,
    ) -> Result<(), MaintainError> {
        let counters_before = (self.stats.fallback_recomputes, self.stats.scalar_recomputes);
        let mut ctx = UpdateCtx {
            deltas,
            affected,
            db,
            ev,
            stats: &mut self.stats,
        };
        self.root.update(&mut ctx)?;
        // The analyzer's certificate, checked against reality: when every
        // updated base is ≤ bilinear, the whole pass must have stayed in
        // delta form. The converse is *not* asserted — a non-linear base
        // can still get lucky (e.g. its subtree delta cancels to zero).
        debug_assert!(
            {
                let all_linearish = affected.iter().all(|base| {
                    self.linearity
                        .get(base)
                        .copied()
                        .unwrap_or(Linearity::Unread)
                        <= Linearity::Bilinear
                });
                !all_linearish
                    || (self.stats.fallback_recomputes == counters_before.0
                        && self.stats.scalar_recomputes == counters_before.1)
            },
            "a batch over ≤-bilinear bases re-derived an operator despite the \
             linearity certificate: {:?} affected={affected:?}",
            self.linearity,
        );
        Ok(())
    }

    /// Re-derive every snapshot from scratch on the runtime's evaluator
    /// `ev` over `db` — the degraded path after a maintenance error, and
    /// the rebase path after [`super::runtime::ViewRuntime::load_base`].
    pub(crate) fn reinit(
        &mut self,
        db: &Database,
        ev: &mut Evaluator<'_>,
    ) -> Result<(), EvalError> {
        self.root.init(db, ev)?;
        self.stats.full_reinits += 1;
        Ok(())
    }
}
