//! One maintained view: a BALG expression compiled to a tree of
//! snapshot-carrying nodes with per-operator derivative rules.
//!
//! Each node memoizes its current value under the runtime's database.
//! An update pass walks the tree once: subtrees whose free database names
//! are untouched by the batch return immediately; linear operators combine
//! their children's deltas algebraically; non-linear operators re-derive
//! **one operator application** over their children's refreshed snapshots
//! and hand the pointwise difference to their parent as a delta. The
//! result is that work concentrates where the update actually lands.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use balg_core::analyze::{base_linearity, Linearity};
use balg_core::bag::{attr_field, Bag, MergeOp};
use balg_core::eval::{equi_join_attrs, EvalError, Evaluator};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::index::{BagIndex, IndexCache};
use balg_core::join;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_core::zbag::{ZBag, ZBagBuilder, ZInt};

/// The fresh variable the fallback probes bind the memoized child
/// snapshot to (not expressible in the surface syntax, so it can never
/// collide with a user name).
const DELTA_INPUT: &str = "·Δinput";

/// The two fresh variables the fused equi-join's re-derivation probe
/// binds its operand snapshots to.
const DELTA_INPUT_LEFT: &str = "·ΔinputL";
const DELTA_INPUT_RIGHT: &str = "·ΔinputR";

/// Instrumentation counters for one view — which maintenance path ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Linear derivative-rule applications (`∪⁺`, `MAP`/`σ` with an
    /// unaffected body, the bilinear `×` rule, destroy).
    pub linear_delta_ops: u64,
    /// Non-linear fallbacks: one operator re-derived over memoized child
    /// snapshots (monus, `ε`, `∪`, `∩`, `nest`, `P`/`P_b`, `IFP`, and
    /// `MAP`/`σ` whose λ body reads an updated bag).
    pub fallback_recomputes: u64,
    /// Scalar construct re-derivations (`τ`, `β`, `αᵢ` over a changed
    /// child value) — constant-size work, counted separately.
    pub scalar_recomputes: u64,
    /// Full view re-derivations (degraded path after a maintenance
    /// error, or an explicit rebase).
    pub full_reinits: u64,
    /// Fused `σ_{αᵢ=αⱼ}(×)` deltas propagated by probing a per-key
    /// [`IndexCache`] index — only rows keyed by the delta's join values
    /// were touched (`O(matches)`).
    pub indexed_join_ops: u64,
    /// Fused equi-join deltas propagated by scanning the unchanged
    /// operand (`O(|other side|)`): indexing disabled, or the pair of
    /// attributes does not key a single side.
    pub scanned_join_ops: u64,
}

impl ViewStats {
    /// Pointwise sum of two counters (used by the runtime aggregate).
    pub fn merged(&self, other: &ViewStats) -> ViewStats {
        ViewStats {
            linear_delta_ops: self.linear_delta_ops + other.linear_delta_ops,
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
    Bag(ZBag),
    /// The node's value was replaced wholesale (scalar constructs).
    Opaque,
}

/// The operator of one compiled node. `Map`/`Select`/`Ifp` keep their λ
/// bodies as raw expressions (applied per delta element through
/// [`Evaluator::eval_open`]) plus a pre-built probe expression that
/// re-derives the whole operator over a bound child snapshot.
#[derive(Clone, Debug)]
enum Kind {
    Var(Var),
    Lit(Value),
    /// `∪⁺`, `−`, `∪` or `∩`: linear for `∪⁺`, re-derived for the rest.
    Merge(MergeOp),
    Tuple,
    Singleton,
    Product,
    Powerset,
    Powerbag,
    Attr(usize),
    Destroy,
    Dedup,
    Map {
        var: Var,
        body: Expr,
        probe: Expr,
    },
    Select {
        var: Var,
        pred: Pred,
        probe: Expr,
    },
    /// `σ_{αᵢ=αⱼ}(A × B)` fused at compile time (children are the two
    /// product operands). When the equality spans the product boundary
    /// the delta touches only the rows keyed by the delta's join values
    /// — probed from a per-key index, or scanned when indexing is off;
    /// otherwise the bilinear terms run with the general pair filter.
    /// `probe` re-derives the whole `σ(×)` over bound operand snapshots
    /// for the shapes the fused rule cannot take (mixed arities).
    EquiJoin {
        i: usize,
        j: usize,
        probe: Expr,
    },
    Ifp {
        probe: Expr,
    },
    Nest(Vec<usize>),
}

/// One compiled node: operator, children, free-name analysis, and the
/// memoized snapshot.
#[derive(Clone, Debug)]
struct Node {
    kind: Kind,
    children: Vec<Node>,
    /// Database names this subtree reads, λ bodies included — the key for
    /// skipping untouched subtrees.
    reads: BTreeSet<Var>,
    /// Names read by the λ body/pred alone (empty for non-λ nodes): when
    /// an update touches these, the linear per-element rule is unsound and
    /// the node falls back.
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
    /// through to the database instead of holding a second reference).
    snapshot: Value,
}

/// Everything an update pass threads through the tree.
struct UpdateCtx<'a, 'e> {
    deltas: &'e BTreeMap<Var, ZBag>,
    affected: &'e BTreeSet<Var>,
    db: &'a Database,
    max_elements: u64,
    ev: &'e mut Evaluator<'a>,
    stats: &'e mut ViewStats,
    /// The runtime's persistent per-key index cache: base-bag indexes
    /// survive across batches (patched alongside the base on commit),
    /// snapshot indexes re-key naturally when a snapshot's
    /// representation changes.
    indexes: &'e mut IndexCache,
    /// Whether the fused equi-join may probe indexes (`false` forces the
    /// scan path the differential suite compares against).
    use_indexes: bool,
    /// Fallbacks forced by *data* irregularity in a fused equi-join
    /// (mixed arities, attributes past both sides) — a runtime property
    /// the syntactic linearity lattice cannot see, so these are exempt
    /// from the ≤-bilinear no-fallback assertion in [`View::maintain`].
    irregular_join_fallbacks: u64,
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

fn probe_var() -> Box<Expr> {
    Box::new(Expr::var(DELTA_INPUT))
}

fn compile(expr: &Expr) -> Node {
    let mut children = Vec::new();
    let mut body_reads = BTreeSet::new();
    let kind = match expr {
        Expr::Var(name) => Kind::Var(name.clone()),
        Expr::Lit(value) => Kind::Lit(value.clone()),
        Expr::AdditiveUnion(a, b)
        | Expr::Subtract(a, b)
        | Expr::MaxUnion(a, b)
        | Expr::Intersect(a, b) => {
            children = vec![compile(a), compile(b)];
            Kind::Merge(match expr {
                Expr::AdditiveUnion(..) => MergeOp::Add,
                Expr::Subtract(..) => MergeOp::Monus,
                Expr::MaxUnion(..) => MergeOp::Max,
                _ => MergeOp::Min,
            })
        }
        Expr::Product(a, b) => {
            children = vec![compile(a), compile(b)];
            Kind::Product
        }
        Expr::Tuple(fields) => {
            children = fields.iter().map(compile).collect();
            Kind::Tuple
        }
        Expr::Singleton(e) => {
            children = vec![compile(e)];
            Kind::Singleton
        }
        Expr::Powerset(e) => {
            children = vec![compile(e)];
            Kind::Powerset
        }
        Expr::Powerbag(e) => {
            children = vec![compile(e)];
            Kind::Powerbag
        }
        Expr::Attr(e, index) => {
            children = vec![compile(e)];
            Kind::Attr(*index)
        }
        Expr::Destroy(e) => {
            children = vec![compile(e)];
            Kind::Destroy
        }
        Expr::Dedup(e) => {
            children = vec![compile(e)];
            Kind::Dedup
        }
        Expr::Map { var, body, input } => {
            children = vec![compile(input)];
            body_reads = body_free_vars(body, var);
            Kind::Map {
                var: var.clone(),
                body: (**body).clone(),
                probe: Expr::Map {
                    var: var.clone(),
                    body: body.clone(),
                    input: probe_var(),
                },
            }
        }
        Expr::Select { var, pred, input } => {
            // `σ_{αᵢ=αⱼ}(A × B)` fuses into one join node: the σ must
            // intercept *before* the product's bilinear rule, or every
            // delta would pay the full `δA × B` intermediate only to
            // filter it down to the matches.
            if let (Expr::Product(a, b), Some((i, j))) =
                (input.as_ref(), equi_join_attrs(pred, var))
            {
                children = vec![compile(a), compile(b)];
                let probe = Expr::Select {
                    var: var.clone(),
                    pred: pred.clone(),
                    input: Box::new(Expr::Product(
                        Box::new(Expr::var(DELTA_INPUT_LEFT)),
                        Box::new(Expr::var(DELTA_INPUT_RIGHT)),
                    )),
                };
                // The pred reads only attributes of the bound tuple, so
                // `body_reads` stays empty (`pred_free_vars` agrees).
                debug_assert!(pred_free_vars(pred, var).is_empty());
                Kind::EquiJoin { i, j, probe }
            } else {
                children = vec![compile(input)];
                body_reads = pred_free_vars(pred, var);
                Kind::Select {
                    var: var.clone(),
                    pred: (**pred).clone(),
                    probe: Expr::Select {
                        var: var.clone(),
                        pred: pred.clone(),
                        input: probe_var(),
                    },
                }
            }
        }
        Expr::Ifp { var, body, input } => {
            children = vec![compile(input)];
            body_reads = body_free_vars(body, var);
            Kind::Ifp {
                probe: Expr::Ifp {
                    var: var.clone(),
                    body: body.clone(),
                    input: probe_var(),
                },
            }
        }
        Expr::Nest { group, input } => {
            children = vec![compile(input)];
            Kind::Nest(group.clone())
        }
    };
    let mut reads: BTreeSet<Var> = body_reads.clone();
    if let Kind::Var(name) = &kind {
        reads.insert(name.clone());
    }
    for child in &children {
        reads.extend(child.reads.iter().cloned());
    }
    Node {
        kind,
        children,
        reads,
        body_reads,
        keep_snapshot: true,
        expr: expr.clone(),
        snapshot: Value::empty_bag(),
    }
}

/// Can this node's update pass take the re-derivation path? (If so it
/// reads its own old snapshot — for the delta diff — and its children's
/// fresh values.) `Opaque` child deltas, the other fallback trigger, can
/// only originate from direct `Tuple`/`Attr` children: every other kind
/// reports `None` or a bag delta, and a node that absorbs an `Opaque` by
/// re-deriving emits a bag delta itself.
fn can_fall_back(node: &Node) -> bool {
    let opaque_child = || {
        node.children
            .iter()
            .any(|c| matches!(c.kind, Kind::Tuple | Kind::Attr(_)))
    };
    match &node.kind {
        Kind::Merge(MergeOp::Monus | MergeOp::Max | MergeOp::Min)
        | Kind::Dedup
        | Kind::Powerset
        | Kind::Powerbag
        | Kind::Nest(_)
        | Kind::Ifp { .. } => true,
        Kind::Tuple | Kind::Singleton | Kind::Attr(_) => true, // scalar re-derivation
        Kind::Map { .. } | Kind::Select { .. } => !node.body_reads.is_empty() || opaque_child(),
        // The fused join's linear rule needs uniform-arity operands — a
        // runtime property — so the node must be able to re-derive.
        Kind::EquiJoin { .. } => true,
        Kind::Merge(MergeOp::Add) | Kind::Product | Kind::Destroy => opaque_child(),
        Kind::Var(_) | Kind::Lit(_) => false,
    }
}

/// Decide which nodes materialize snapshots. `demanded` means the parent
/// may read this node's value (re-derivation input, scalar recompute, or
/// the root result). `Var` nodes never materialize — readers go through
/// [`Node::current_bag`] to the database — except when they *are* the
/// demanded value and a parent probe needs an owned copy, which
/// [`Node::child_value`] handles by cloning out of the database anyway.
fn mark_snapshots(node: &mut Node, demanded: bool) {
    node.keep_snapshot = match node.kind {
        Kind::Var(_) | Kind::Lit(_) => false,
        _ => demanded || can_fall_back(node),
    };
    let demands_children = match &node.kind {
        // Re-derivation reads every child; the bilinear product rule reads
        // both operands' fresh values.
        Kind::Merge(MergeOp::Monus | MergeOp::Max | MergeOp::Min)
        | Kind::Dedup
        | Kind::Powerset
        | Kind::Powerbag
        | Kind::Nest(_)
        | Kind::Ifp { .. }
        | Kind::Tuple
        | Kind::Singleton
        | Kind::Attr(_)
        | Kind::Product
        | Kind::EquiJoin { .. } => true,
        Kind::Map { .. } | Kind::Select { .. } | Kind::Merge(MergeOp::Add) | Kind::Destroy => {
            can_fall_back(node)
        }
        Kind::Var(_) | Kind::Lit(_) => false,
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

/// Classify one join operand. `preferred` is the attribute (in the
/// side's own 1-based numbering) the probe terms would key by, and
/// `want_index` says whether any term will actually probe this side (the
/// opposite delta is non-empty). `persistent` marks a base bag (`Var`
/// child): only those go through the runtime's [`IndexCache`] — it
/// patches base indexes across commits, so the `O(|bag|)` build
/// amortizes to `O(1)` per batch. A derived operand (a child node's
/// snapshot) gets a *transient* index instead: caching its owner clone
/// would force a copy-on-write of the snapshot on its next in-place
/// patch and churn the cache with dead entries every batch. Scan mode
/// establishes uniformity by scanning (its terms are `O(|bag|)` anyway).
///
/// Returns the side's uniform arity and, when indexing is enabled and
/// `preferred` falls on this side, its per-key index — or `None` for
/// mixed arities or non-tuple rows, where the fused linear rule is
/// unsound and the node re-derives instead. The caller has dealt with the
/// vacuous side (empty and untouched).
fn join_side(
    ctx: &mut UpdateCtx<'_, '_>,
    bag: &Bag,
    preferred: usize,
    delta: &ZBag,
    persistent: bool,
    want_index: bool,
) -> Option<(usize, Option<Arc<BagIndex>>)> {
    // Delta rows must share the operand's arity or the fixed split point
    // of the concatenated tuple is ill-defined.
    let delta_arity = join::uniform_arity(delta.pairs());
    if delta_arity.is_none() && !delta.is_empty() {
        return None;
    }
    if bag.is_empty() {
        return delta_arity.map(|arity| (arity, None));
    }
    let cached = ctx.use_indexes && persistent;
    let index = if cached {
        // Build (or hit) the cached base index even when this batch's
        // terms won't probe it: it is built at most once per (base,
        // attribute), patched thereafter, and doubles as an O(1) arity
        // witness for every later batch.
        ctx.indexes.get_or_build(bag, preferred)
    } else if ctx.use_indexes && want_index {
        BagIndex::build(bag, preferred).map(Arc::new)
    } else {
        None
    };
    let arity = match &index {
        Some(built) => Some(built.arity()),
        // The preferred attribute may simply be out of this side's range
        // (the equality reads one side twice); attribute 1 is in range
        // for every tuple, so it settles uniformity.
        None if cached => ctx.indexes.get_or_build(bag, 1).map(|w| w.arity()),
        None => join::uniform_arity(bag.pairs()),
    };
    arity
        .filter(|&arity| delta_arity.is_none_or(|d| d == arity))
        .map(|arity| (arity, index))
}

/// One `F(δX × Y_new)` term of a fused equi-join delta: the unchanged
/// operand `Y_new`, how its matching rows are reached, and which side of
/// the product the delta rows sit on.
struct SideTerm<'a> {
    other: &'a Bag,
    /// `Y_new`'s per-key index and the key's 1-based position within a
    /// delta row — set when the equality spans the product boundary and
    /// the side got an index; otherwise the term scans `Y_new`.
    probe: Option<(Arc<BagIndex>, usize)>,
    attrs: (usize, usize),
    delta_is_left: bool,
}

impl SideTerm<'_> {
    /// Hand every surviving pair of `rows × Y_new` to `push`, its
    /// multiplicity the δ-row's scaled by `Y`'s.
    fn run<E>(
        &self,
        rows: &[(Value, ZInt)],
        mut push: impl FnMut(Value, ZInt) -> Result<(), E>,
    ) -> Result<(), E> {
        let (attrs, left) = (self.attrs, self.delta_is_left);
        match &self.probe {
            Some((index, key)) => join::probe(rows, index, *key, left, |lf, rf, d, m| {
                push(Value::concat_tuples(lf, rf), d.scale(m))
            }),
            None => join::scan(rows, self.other.pairs(), attrs, left, |lf, rf, d, m| {
                push(Value::concat_tuples(lf, rf), d.scale(m))
            }),
        }
    }
}

/// A fused equi-join delta, classified: what [`Node::join_delta`] runs.
struct DeltaJoin<'a> {
    /// The `F(δA × B_new)` and `F(A_new × δB)` terms, each with its delta.
    sides: [(SideTerm<'a>, &'a ZBag); 2],
}

impl<'a> DeltaJoin<'a> {
    /// The side terms that are not zero (nothing on one side).
    fn live(&self) -> impl Iterator<Item = &(SideTerm<'a>, &'a ZBag)> {
        let live = |(term, delta): &&(SideTerm, &ZBag)| !delta.is_empty() && !term.other.is_empty();
        self.sides.iter().filter(live)
    }

    /// `⊖ F(δA × δB)` — both sides small, one pair-filter scan.
    fn cross_term<E>(&self, mut push: impl FnMut(Value, ZInt) -> Result<(), E>) -> Result<(), E> {
        let [(term, da), (_, db)] = &self.sides;
        join::scan(da.pairs(), db.pairs(), term.attrs, true, |lf, rf, l, r| {
            push(Value::concat_tuples(lf, rf), l.mul(r).neg())
        })
    }

    /// One builder across all three terms, the distinct-element budget
    /// enforced after every push.
    fn exact(&self, limit: u64) -> Result<ZBag, MaintainError> {
        let mut out = ZBagBuilder::new();
        let mut push = |value, change| {
            out.push(value, change);
            out.ensure_distinct_within(limit).map_err(|observed| {
                MaintainError::Eval(EvalError::ElementLimit { observed, limit })
            })
        };
        for (term, delta) in self.live() {
            term.run(delta.pairs(), &mut push)?;
        }
        self.cross_term(&mut push)?;
        Ok(out.build())
    }
}

/// Classify a replaced value for the parent: unchanged, a bag delta, or an
/// opaque scalar change.
fn replaced(old: &Value, new: &Value) -> Delta {
    if old == new {
        return Delta::None;
    }
    if let (Value::Bag(o), Value::Bag(n)) = (old, new) {
        return Delta::Bag(ZBag::diff(n, o));
    }
    Delta::Opaque
}

impl Node {
    /// The node's current bag value: materialized nodes answer from their
    /// snapshot, `Var` nodes read through to the (post-update) database so
    /// base bags never carry a second reference (which would force
    /// copy-on-write on every in-place base patch).
    fn current_bag<'x>(&'x self, db: &'x Database) -> Result<&'x Bag, EvalError> {
        match &self.kind {
            Kind::Var(name) if !self.keep_snapshot => db
                .get(name)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
            // Literals never materialize; their value lives in the kind.
            Kind::Lit(value) => expect_bag(value),
            _ => expect_bag(&self.snapshot),
        }
    }

    /// The node's current value, cloned (for probe bindings and scalar
    /// recomputes).
    fn current_value(&self, db: &Database) -> Result<Value, EvalError> {
        if let Kind::Var(name) = &self.kind {
            if !self.keep_snapshot {
                return db
                    .get(name)
                    .map(|bag| Value::Bag(bag.clone()))
                    .ok_or_else(|| EvalError::UnboundVariable(name.clone()));
            }
        }
        if let Kind::Lit(value) = &self.kind {
            return Ok(value.clone());
        }
        Ok(self.snapshot.clone())
    }

    /// Re-derive this node's value from its children's current values
    /// (one operator application — children are *not* re-evaluated).
    fn recompute(
        &self,
        db: &Database,
        ev: &mut Evaluator<'_>,
        max_elements: u64,
    ) -> Result<Value, EvalError> {
        let child_bag = |i: usize| -> Result<&Bag, EvalError> { self.children[i].current_bag(db) };
        Ok(match &self.kind {
            Kind::Var(name) => db
                .get(name)
                .map(|bag| Value::Bag(bag.clone()))
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
            Kind::Lit(value) => value.clone(),
            Kind::Merge(op) => Value::Bag(child_bag(0)?.merge(child_bag(1)?, *op)),
            Kind::Product => Value::Bag(child_bag(0)?.product(child_bag(1)?, max_elements)?),
            Kind::Tuple => Value::Tuple(
                self.children
                    .iter()
                    .map(|c| c.current_value(db))
                    .collect::<Result<Vec<_>, _>>()?
                    .into(),
            ),
            Kind::Singleton => Value::Bag(Bag::singleton(self.children[0].current_value(db)?)),
            Kind::Powerset => Value::Bag(child_bag(0)?.powerset(max_elements)?),
            Kind::Powerbag => Value::Bag(child_bag(0)?.powerbag(max_elements)?),
            Kind::Attr(index) => {
                let value = self.children[0].current_value(db)?;
                let fields = value.as_tuple().ok_or_else(|| EvalError::Shape {
                    expected: "a tuple",
                    found: value.to_string(),
                })?;
                attr_field(fields, *index)
                    .cloned()
                    .map_err(EvalError::Bag)?
            }
            Kind::Destroy => Value::Bag(child_bag(0)?.destroy()?),
            Kind::Dedup => Value::Bag(child_bag(0)?.dedup()),
            Kind::Nest(group) => Value::Bag(child_bag(0)?.nest(group)?),
            Kind::Map { probe, .. } | Kind::Select { probe, .. } | Kind::Ifp { probe } => {
                let input = self.children[0].current_value(db)?;
                ev.eval_open(probe, &[(Var::from(DELTA_INPUT), input)])?
            }
            Kind::EquiJoin { probe, .. } => {
                let left = self.children[0].current_value(db)?;
                let right = self.children[1].current_value(db)?;
                ev.eval_open(
                    probe,
                    &[
                        (Var::from(DELTA_INPUT_LEFT), left),
                        (Var::from(DELTA_INPUT_RIGHT), right),
                    ],
                )?
            }
        })
    }

    /// Fill in the materialized snapshots. A kept node whose children all
    /// have usable current values (materialized, `Var`, or `Lit`) derives
    /// its value with **one** operator application over them; only kept
    /// nodes above a non-materialized (purely linear) child re-evaluate
    /// their sub-expression through the fused evaluator — so stacked
    /// non-linear operators don't re-evaluate shared subtrees, and a
    /// skipped product under a clean σ is never materialized even at
    /// registration.
    fn init(
        &mut self,
        db: &Database,
        ev: &mut Evaluator<'_>,
        max_elements: u64,
    ) -> Result<(), EvalError> {
        for child in &mut self.children {
            child.init(db, ev, max_elements)?;
        }
        if self.keep_snapshot {
            let children_ready = self
                .children
                .iter()
                .all(|c| c.keep_snapshot || matches!(c.kind, Kind::Var(_) | Kind::Lit(_)));
            self.snapshot = if children_ready {
                self.recompute(db, ev, max_elements)?
            } else {
                ev.eval_open(&self.expr, &[])?
            };
        }
        Ok(())
    }

    /// Non-linear fallback: one operator re-derived over the children's
    /// refreshed values, re-expressed as a delta for the parent.
    /// Fallback-capable nodes always materialize (see [`mark_snapshots`]),
    /// so `self.snapshot` is the valid pre-update value here.
    fn fallback(&mut self, ctx: &mut UpdateCtx<'_, '_>) -> Result<Delta, MaintainError> {
        let new = self.recompute(ctx.db, ctx.ev, ctx.max_elements)?;
        ctx.stats.fallback_recomputes += 1;
        let delta = replaced(&self.snapshot, &new);
        self.snapshot = new;
        Ok(delta)
    }

    /// The fused equi-join's linear delta in post-update form:
    /// `δJ = F(δA × B_new) ⊕ F(A_new × δB) ⊖ F(δA × δB)` with
    /// `F = σ_{αᵢ=αⱼ}` — three calls into [`balg_core::join`], which owns
    /// the pair loops; this adapter classifies the operands and owns the
    /// sink, on the calling thread. When the equality spans the product
    /// boundary, each `F(δX × Y)` term probes `Y`'s per-key index — only
    /// the rows keyed by the delta's join values are touched,
    /// `O(|δ| · matches)`;
    /// otherwise the terms scan `Y` under the pair filter (still linear
    /// in `|Y|`, the shape of the unfused bilinear rule). Returns `None`
    /// when the operands do not admit the fused rule (mixed arities, an
    /// attribute past both sides) — the caller re-derives, which also
    /// reproduces any per-element `σ` error faithfully. The boolean
    /// reports whether an index was probed.
    fn join_delta(
        &self,
        ctx: &mut UpdateCtx<'_, '_>,
        i: usize,
        j: usize,
        da: &ZBag,
        db_: &ZBag,
    ) -> Result<Option<(ZBag, bool)>, MaintainError> {
        let db = ctx.db;
        let left_new = self.children[0]
            .current_bag(db)
            .map_err(MaintainError::Eval)?;
        let right_new = self.children[1]
            .current_bag(db)
            .map_err(MaintainError::Eval)?;
        let left_persistent = matches!(self.children[0].kind, Kind::Var(_));
        let right_persistent = matches!(self.children[1].kind, Kind::Var(_));
        // Only a non-empty opposite delta makes a side worth indexing:
        // F(A_new × δB) probes the left index, F(δA × B_new) the right.
        let (want_left, want_right) = (!db_.is_empty(), !da.is_empty());
        // An operand that is empty and untouched makes the join delta
        // zero. The left side's arity fixes the split point of the
        // concatenated tuple, so it resolves first.
        let zero = || Ok(Some((ZBag::new(), false)));
        if left_new.is_empty() && da.is_empty() {
            return zero();
        }
        let Some((la, left_index)) = join_side(ctx, left_new, i, da, left_persistent, want_left)
        else {
            return Ok(None);
        };
        if right_new.is_empty() && db_.is_empty() {
            return zero();
        }
        let right_preferred = if j > la { j - la } else { 1 };
        let Some((ra, right_index)) = join_side(
            ctx,
            right_new,
            right_preferred,
            db_,
            right_persistent,
            want_right,
        ) else {
            return Ok(None);
        };
        if i > la + ra || j > la + ra {
            return Ok(None); // σ errors on every pair — re-derive honestly
        }
        // A term probes only when the equality spans the boundary *and*
        // `join_side` indexed the operand it reads: F(δA × B_new) keys
        // B's index by αᵢ of a δA row, F(A_new × δB) keys A's by
        // α_{j−la} of a δB row. A term with nothing on one side is zero.
        let spanning = join::spanning_keys(i, j, la, ra);
        let side = |other, index: Option<Arc<BagIndex>>, key, delta_is_left| SideTerm {
            other,
            probe: index.zip(key),
            attrs: (i, j),
            delta_is_left,
        };
        let (left_key, right_key) = (spanning.map(|k| k.0), spanning.map(|k| k.1));
        let join = DeltaJoin {
            sides: [
                (side(right_new, right_index, left_key, true), da),
                (side(left_new, left_index, right_key, false), db_),
            ],
        };
        let used_index = join.live().any(|(term, _)| term.probe.is_some());
        Ok(Some((join.exact(ctx.max_elements)?, used_index)))
    }

    /// Apply a bag delta to this node's snapshot (in place when uniquely
    /// owned; skipped entirely for non-materialized nodes) and normalize
    /// the report.
    fn apply_bag_delta(&mut self, delta: ZBag) -> Result<Delta, MaintainError> {
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
            .apply_into(old)
            .map_err(|e| MaintainError::Internal(e.to_string()))?;
        self.snapshot = Value::Bag(new);
        Ok(Delta::Bag(delta))
    }

    /// The update pass. Returns what changed, with `self.snapshot`
    /// refreshed to the post-update value.
    fn update(&mut self, ctx: &mut UpdateCtx<'_, '_>) -> Result<Delta, MaintainError> {
        if self.reads.is_disjoint(ctx.affected) {
            return Ok(Delta::None);
        }
        match &self.kind {
            Kind::Var(name) => {
                let name = name.clone();
                // The runtime has already committed the new base bag;
                // readers go through `current_bag` to the database, so
                // only a demanded-as-root Var refreshes a snapshot.
                if self.keep_snapshot {
                    let bag = ctx
                        .db
                        .get(&name)
                        .ok_or_else(|| {
                            MaintainError::Eval(EvalError::UnboundVariable(name.clone()))
                        })?
                        .clone();
                    self.snapshot = Value::Bag(bag);
                }
                match ctx.deltas.get(&name) {
                    Some(delta) if !delta.is_empty() => Ok(Delta::Bag(delta.clone())),
                    _ => Ok(Delta::None),
                }
            }
            Kind::Lit(_) => Ok(Delta::None),
            Kind::Merge(MergeOp::Add) => {
                let da = self.children[0].update(ctx)?;
                let db = self.children[1].update(ctx)?;
                match (da, db) {
                    (Delta::Opaque, _) | (_, Delta::Opaque) => self.fallback(ctx),
                    (Delta::None, Delta::None) => Ok(Delta::None),
                    (a, b) => {
                        let mut delta = ZBag::new();
                        if let Delta::Bag(d) = a {
                            delta = delta.add(&d);
                        }
                        if let Delta::Bag(d) = b {
                            delta = delta.add(&d);
                        }
                        ctx.stats.linear_delta_ops += 1;
                        self.apply_bag_delta(delta)
                    }
                }
            }
            Kind::Product => {
                let da = self.children[0].update(ctx)?;
                let db = self.children[1].update(ctx)?;
                match (da, db) {
                    (Delta::Opaque, _) | (_, Delta::Opaque) => self.fallback(ctx),
                    (Delta::None, Delta::None) => Ok(Delta::None),
                    (a, b) => {
                        // Bilinear rule in post-update form — only fresh
                        // operand values are needed, so no old snapshots
                        // are captured:
                        // δ(A×B) = δA×B_new ⊕ A_new×δB ⊖ δA×δB.
                        let mut delta = ZBag::new();
                        if let Delta::Bag(d) = &a {
                            let right_new = self.children[1]
                                .current_bag(ctx.db)
                                .map_err(MaintainError::Eval)?;
                            delta = delta.add(
                                &d.product(&ZBag::from_bag(right_new), ctx.max_elements)
                                    .map_err(EvalError::Bag)?,
                            );
                        }
                        if let Delta::Bag(d) = &b {
                            let left_new = self.children[0]
                                .current_bag(ctx.db)
                                .map_err(MaintainError::Eval)?;
                            delta = delta.add(
                                &ZBag::from_bag(left_new)
                                    .product(d, ctx.max_elements)
                                    .map_err(EvalError::Bag)?,
                            );
                        }
                        if let (Delta::Bag(x), Delta::Bag(y)) = (&a, &b) {
                            delta = delta.add(
                                &x.product(y, ctx.max_elements)
                                    .map_err(EvalError::Bag)?
                                    .negate(),
                            );
                        }
                        ctx.stats.linear_delta_ops += 1;
                        self.apply_bag_delta(delta)
                    }
                }
            }
            Kind::EquiJoin { i, j, .. } => {
                let (i, j) = (*i, *j);
                let da = self.children[0].update(ctx)?;
                let db_ = self.children[1].update(ctx)?;
                match (da, db_) {
                    (Delta::Opaque, _) | (_, Delta::Opaque) => self.fallback(ctx),
                    (Delta::None, Delta::None) => Ok(Delta::None),
                    (a, b) => {
                        let zero = ZBag::new();
                        let da = match &a {
                            Delta::Bag(d) => d,
                            _ => &zero,
                        };
                        let db_ = match &b {
                            Delta::Bag(d) => d,
                            _ => &zero,
                        };
                        match self.join_delta(ctx, i, j, da, db_)? {
                            Some((delta, used_index)) => {
                                ctx.stats.linear_delta_ops += 1;
                                if used_index {
                                    ctx.stats.indexed_join_ops += 1;
                                } else {
                                    ctx.stats.scanned_join_ops += 1;
                                }
                                self.apply_bag_delta(delta)
                            }
                            None => {
                                ctx.irregular_join_fallbacks += 1;
                                self.fallback(ctx)
                            }
                        }
                    }
                }
            }
            Kind::Destroy => match self.children[0].update(ctx)? {
                Delta::None => Ok(Delta::None),
                Delta::Opaque => self.fallback(ctx),
                Delta::Bag(d) => {
                    let delta = d.destroy().map_err(EvalError::Bag)?;
                    ctx.stats.linear_delta_ops += 1;
                    self.apply_bag_delta(delta)
                }
            },
            Kind::Map { .. } => {
                let body_affected = !self.body_reads.is_disjoint(ctx.affected);
                let child = self.children[0].update(ctx)?;
                if body_affected || matches!(child, Delta::Opaque) {
                    return self.fallback(ctx);
                }
                match child {
                    Delta::None => Ok(Delta::None),
                    Delta::Bag(d) => {
                        // Linear per-element rule: MAP distributes over ∪⁺,
                        // so each delta element maps through the body with
                        // its signed multiplicity. The body is one stable
                        // tree across the loop, so after the first element
                        // clears the evaluator's pointer-keyed caches the
                        // rest reuse them.
                        let Kind::Map { var, body, .. } = &self.kind else {
                            unreachable!("matched above");
                        };
                        let mut out = ZBagBuilder::new();
                        for (i, (value, mult)) in d.iter().enumerate() {
                            let binding = [(var.clone(), value.clone())];
                            let image = if i == 0 {
                                ctx.ev.eval_open(body, &binding)?
                            } else {
                                ctx.ev.eval_open_cached(body, &binding)?
                            };
                            out.push(image, mult.clone());
                        }
                        ctx.stats.linear_delta_ops += 1;
                        self.apply_bag_delta(out.build())
                    }
                    Delta::Opaque => unreachable!("handled above"),
                }
            }
            Kind::Select { .. } => {
                let body_affected = !self.body_reads.is_disjoint(ctx.affected);
                let child = self.children[0].update(ctx)?;
                if body_affected || matches!(child, Delta::Opaque) {
                    return self.fallback(ctx);
                }
                match child {
                    Delta::None => Ok(Delta::None),
                    Delta::Bag(d) => {
                        let Kind::Select { var, pred, .. } = &self.kind else {
                            unreachable!("matched above");
                        };
                        let mut out = ZBagBuilder::new();
                        for (i, (value, mult)) in d.iter().enumerate() {
                            let binding = [(var.clone(), value.clone())];
                            let keep = if i == 0 {
                                ctx.ev.eval_pred_open(pred, &binding)?
                            } else {
                                ctx.ev.eval_pred_open_cached(pred, &binding)?
                            };
                            if keep {
                                out.push(value.clone(), mult.clone());
                            }
                        }
                        ctx.stats.linear_delta_ops += 1;
                        self.apply_bag_delta(out.build())
                    }
                    Delta::Opaque => unreachable!("handled above"),
                }
            }
            // Non-linear bag operators: refresh children, then re-derive
            // this single operator over their snapshots.
            Kind::Merge(_) => {
                let da = self.children[0].update(ctx)?;
                let db = self.children[1].update(ctx)?;
                if matches!((&da, &db), (Delta::None, Delta::None)) {
                    return Ok(Delta::None);
                }
                self.fallback(ctx)
            }
            Kind::Dedup | Kind::Powerset | Kind::Powerbag | Kind::Nest(_) => {
                match self.children[0].update(ctx)? {
                    Delta::None => Ok(Delta::None),
                    _ => self.fallback(ctx),
                }
            }
            Kind::Ifp { .. } => {
                let body_affected = !self.body_reads.is_disjoint(ctx.affected);
                let child = self.children[0].update(ctx)?;
                if !body_affected && matches!(child, Delta::None) {
                    return Ok(Delta::None);
                }
                self.fallback(ctx)
            }
            // Scalar constructs: constant-size re-derivation.
            Kind::Tuple | Kind::Singleton | Kind::Attr(_) => {
                let mut any = false;
                for child in &mut self.children {
                    any |= !matches!(child.update(ctx)?, Delta::None);
                }
                if !any {
                    return Ok(Delta::None);
                }
                let new = self.recompute(ctx.db, ctx.ev, ctx.max_elements)?;
                ctx.stats.scalar_recomputes += 1;
                let delta = replaced(&self.snapshot, &new);
                self.snapshot = new;
                Ok(delta)
            }
        }
    }
}

/// A registered, incrementally maintained view.
#[derive(Clone, Debug)]
pub struct View {
    expr: Expr,
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
        let mut root = compile(&expr);
        mark_snapshots(&mut root, true);
        // Even a bare `Var`/`Lit` root materializes: `result()` reads it.
        root.keep_snapshot = true;
        let max_elements = ev.limits().max_bag_elements;
        root.init(db, ev, max_elements)?;
        if root.snapshot.as_bag().is_none() {
            return Err(EvalError::Shape {
                expected: "a bag-valued view",
                found: root.snapshot.to_string(),
            });
        }
        let linearity = base_linearity(&expr);
        Ok(View {
            expr,
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
        &self.expr
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
    /// **post-update** database and `ev` the runtime's evaluator over it;
    /// `affected` names the bases whose deltas are nonzero. `indexes` is
    /// the runtime's persistent per-key index cache (base indexes in it
    /// have already been patched for this batch); `use_indexes` routes
    /// the fused equi-join between index probes and scans.
    pub(crate) fn maintain<'a>(
        &mut self,
        deltas: &BTreeMap<Var, ZBag>,
        affected: &BTreeSet<Var>,
        db: &'a Database,
        ev: &mut Evaluator<'a>,
        indexes: &mut IndexCache,
        use_indexes: bool,
    ) -> Result<(), MaintainError> {
        let counters_before = (self.stats.fallback_recomputes, self.stats.scalar_recomputes);
        let mut ctx = UpdateCtx {
            deltas,
            affected,
            db,
            max_elements: ev.limits().max_bag_elements,
            ev,
            stats: &mut self.stats,
            indexes,
            use_indexes,
            irregular_join_fallbacks: 0,
        };
        self.root.update(&mut ctx)?;
        let irregular = ctx.irregular_join_fallbacks;
        if irregular > 0 {
            if let Some(obs) = crate::obs::incr_obs() {
                obs.irregular_join_fallbacks.add(irregular);
            }
        }
        // The analyzer's certificate, checked against reality: when every
        // updated base is ≤ bilinear (and no fused join hit irregular
        // data), the whole pass must have stayed in delta form. The
        // converse is *not* asserted — a non-linear base can still get
        // lucky (e.g. its subtree delta cancels to zero).
        debug_assert!(
            {
                let all_linearish = affected.iter().all(|base| {
                    self.linearity
                        .get(base)
                        .copied()
                        .unwrap_or(Linearity::Unread)
                        <= Linearity::Bilinear
                });
                !(all_linearish && irregular == 0)
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
        let max_elements = ev.limits().max_bag_elements;
        self.root.init(db, ev, max_elements)?;
        self.stats.full_reinits += 1;
        Ok(())
    }
}
