//! Resource-limited evaluation of BALG expressions.
//!
//! Every evaluation runs under [`Limits`]: the powerset operator predicts
//! its exact output cardinality (`Π(mᵢ+1)`) *before* allocating, and every
//! intermediate bag is checked against element and multiplicity-width
//! budgets. This mirrors the paper's complexity analyses — Theorem 4.4
//! bounds multiplicity *bit-widths* logarithmically for BALG¹, Theorem 5.1
//! bounds them polynomially for BALG², and the [`Metrics`] collected here
//! are exactly those quantities, consumed by the `balg-complexity` crate's
//! experiments.
//!
//! Four fusions keep the hot paths from materializing intermediates:
//!
//! * adjacent `MAP`/`σ` (and hence `π`) stages stream each input element
//!   through the whole chain in one pass, so only the chain's final bag is
//!   ever built; a chain that is only `π_{1..k}` over a bag folds the
//!   bag's key runs instead ([`Bag::project_prefix`]), with one bulk charge
//!   equal to the per-row loop's and that loop as its fallback, and a
//!   chain of in-place `σ` stages ending in a `π` not led by `α₁` sums
//!   the surviving rows' multiplicities per distinct projection
//!   (`bag::KeyGroups`), one tuple allocated per group instead
//!   of one per row;
//! * a `σ` stage whose predicate only compares attributes of its own row
//!   with each other and with literals (`True`/`=`/`<`/`≤`/`¬`/`∧`/`∨` over
//!   `αᵢ(x)`, `i ≥ 1`, and constants — every single-table SQL `WHERE`) is
//!   decided on the borrowed row: no λ binding, no clone of a rejected
//!   row, and one bulk charge per row of exactly the steps the tree walk
//!   charges (1 per predicate node reached, 2 per `αᵢ(x)`, 1 per literal).
//!   A row the walk would fail on — not a tuple, a missing attribute, too
//!   few steps left — is handed to the tree walk, which fails on the same
//!   step with the same error and the same partial [`Metrics`];
//! * `σ_{αᵢ=αⱼ}(e × e′)` with the equality crossing the product boundary
//!   evaluates as a hash join — matching pairs are produced directly
//!   instead of building the full Cartesian product and filtering it. The
//!   pair loop itself is [`crate::join`]'s (its index probe, or its
//!   reference scan); this evaluator is its one caller and supplies which
//!   side is indexed and what a pair costs (the incremental view engine's
//!   join deltas run here too);
//! * an `IFP` whose body is `ε` of an expression that reads the fixpoint
//!   variable once, linearly ([`crate::analyze::ifp_delta_form`] — the
//!   transitive-closure shape), evaluates that body on the tuples the
//!   previous round added instead of on the whole accumulator: semi-naive
//!   iteration. Result bag, [`Metrics::ifp_iterations`], the `observe` of
//!   each round's accumulator and the round at which `IfpLimit` fires are
//!   those of the full-accumulator loop, which every other body still
//!   runs; a non-resource error surfaces in the same round with the same
//!   variant; [`Metrics::steps`] and the maxima over the body's
//!   intermediates charge the work done and can only fall — save where an
//!   operator picks its plan by operand size (`π` over `×` streams the
//!   pairs of a small product at a step each and projects one side of a
//!   large one for less).
//!
//! All four compute the same bag (the λ bodies are pure); what changes
//! is that skipped intermediates are no longer *observed*, so they don't
//! count against [`Limits::max_bag_elements`] and don't appear in
//! [`Metrics`]. That is the point: the budgets meter what the evaluator
//! actually materializes.
//!
//! # Fast paths and their references
//!
//! Seven fast paths each keep their reference as the fallback they take
//! when they do not apply, and [`Evaluator::set_reference`] sends every
//! one of them there. `:profile` tags the frame a fast path ran in with
//! every tag that fired there, in firing order (`[in-place, key-hash]`).
//!
//! | fast path | tag | reference | contract |
//! |---|---|---|---|
//! | `σ` decided on the borrowed row | `in-place` | the λ-binding tree walk | exact |
//! | leading `σ` on `α₁` literals, per run | `seek` | the row scan | exact |
//! | lone prefix `π` over a bag | `key-runs` | the per-row loop | exact |
//! | in-place `σ`s, then a `π` not led by `α₁` | `key-hash` | the per-row loop | exact |
//! | fused `σ_{αᵢ=αⱼ}(e × e′)` | `indexed-join` | [`join::scan`] (`scan-join`) | exact |
//! | `π` over `×` with every index on one side | `project-scale` | the streamed pairs | fewer |
//! | `IFP` in delta form | `semi-naive` | the full-accumulator loop | fewer |
//!
//! * *exact*: the same bag or error, the same [`Metrics`], and a
//!   `StepLimit` on the same step, at every budget;
//! * *fewer*: the same bag, [`Metrics::ifp_iterations`] and error
//!   variant, with [`Metrics::steps`] no more than the reference's (so a
//!   step budget fails later or not at all).
//!
//! The serial keywise merges consume their left operand
//! ([`Bag::merge_owned`]: a left operand nothing else holds is moved,
//! not cloned); that is not a tagged fast path, since it computes the one bag
//! the copying [`Bag::merge`] does and charges no step, but the reference
//! copies all the same.
//!
//! The seek only runs on an in-place `σ`, so the in-place switch is its
//! switch too; the grouping sink reads its rows from the seek or the scan,
//! whichever ran. `nest`'s `key-runs`/`key-hash` tags name [`Bag::nest`]'s
//! own branch — its key-run walk, or the grouping kernel the sink also
//! runs — which has no reference to switch to: both build the one bag a
//! group-by defines, and `tests/bag_model_props.rs` holds each to a naive
//! one. The `αᵢ(x)` shortcut
//! — the field read straight off the λ-bound tuple, charging the step of
//! the `Var` it skips — is not a fast path: it is always on, and exact.
//! `tests/fast_path_differential.rs` holds each fast path to its
//! reference at every step budget, and fails when a tag stops firing in
//! its share of the generated cases.

use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use balg_obs::profile::{Profiler, SpanId};

use crate::analyze::ifp_delta_form;
use crate::bag::{
    attr_field, is_key_prefix, key_fields, Bag, BagBuilder, BagError, KeyGroups, MergeOp,
};
use crate::expr::{Expr, Pred, Var};
use crate::index::{BagIndex, IndexCache};
use crate::join;
use crate::natural::Natural;
use crate::schema::Database;
use crate::value::Value;

/// Resource budgets for one evaluation.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Maximal number of *distinct* elements in any intermediate bag
    /// (powerset output is predicted exactly and rejected up front).
    pub max_bag_elements: u64,
    /// Maximal bit-width of any multiplicity in any intermediate bag.
    pub max_multiplicity_bits: u64,
    /// Maximal number of evaluation steps (AST nodes visited, counting one
    /// per element for MAP/σ bodies).
    pub max_steps: u64,
    /// Maximal number of inflationary-fixpoint iterations.
    pub max_ifp_iterations: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_bag_elements: 1 << 20,
            max_multiplicity_bits: 1 << 16,
            max_steps: 50_000_000,
            max_ifp_iterations: 100_000,
        }
    }
}

impl Limits {
    /// A small budget for exploratory evaluation of explosive expressions.
    pub fn small() -> Limits {
        Limits {
            max_bag_elements: 1 << 12,
            max_multiplicity_bits: 1 << 12,
            max_steps: 1_000_000,
            max_ifp_iterations: 1_000,
        }
    }
}

/// An evaluation error. The algebra is total on well-typed inputs within
/// budget; everything else surfaces here, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable is neither λ-bound nor a database bag.
    UnboundVariable(Var),
    /// A primitive bag operation failed (wrong element shape, powerset
    /// budget).
    Bag(BagError),
    /// An operator was applied to a value of the wrong shape.
    Shape {
        /// What the operator required.
        expected: &'static str,
        /// Rendering of what it got (truncated).
        found: String,
    },
    /// The step budget was exhausted.
    StepLimit(u64),
    /// An intermediate bag exceeded the distinct-element budget.
    ElementLimit {
        /// Observed distinct-element count.
        observed: u64,
        /// The budget.
        limit: u64,
    },
    /// A multiplicity exceeded the bit-width budget.
    MultiplicityLimit {
        /// Observed bit-width.
        observed_bits: u64,
        /// The budget in bits.
        limit_bits: u64,
    },
    /// The inflationary fixpoint did not converge within budget.
    IfpLimit(u64),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable {name}"),
            EvalError::Bag(e) => write!(f, "{e}"),
            EvalError::Shape { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            EvalError::StepLimit(n) => write!(f, "step budget of {n} exhausted"),
            EvalError::ElementLimit { observed, limit } => {
                write!(
                    f,
                    "bag with {observed} distinct elements exceeds limit {limit}"
                )
            }
            EvalError::MultiplicityLimit {
                observed_bits,
                limit_bits,
            } => write!(
                f,
                "multiplicity of {observed_bits} bits exceeds limit of {limit_bits} bits"
            ),
            EvalError::IfpLimit(n) => write!(f, "IFP did not converge within {n} iterations"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<BagError> for EvalError {
    fn from(e: BagError) -> Self {
        EvalError::Bag(e)
    }
}

/// Quantities observed during one evaluation — the measurables of the
/// paper's complexity theorems.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// AST-node evaluation steps.
    pub steps: u64,
    /// Maximal distinct-element count over all intermediate bags.
    pub max_distinct_elements: u64,
    /// Maximal multiplicity over all intermediate bags.
    pub max_multiplicity: Natural,
    /// Maximal total cardinality (Σ multiplicities) over intermediates.
    pub max_cardinality: Natural,
    /// Number of powerset/powerbag applications actually evaluated.
    pub powerset_calls: u64,
    /// Total inflationary-fixpoint iterations.
    pub ifp_iterations: u64,
}

impl Metrics {
    /// Bit-width of the largest multiplicity seen — the work-tape counter
    /// width of Theorem 4.4's LOGSPACE argument.
    pub fn max_multiplicity_bits(&self) -> u64 {
        self.max_multiplicity.bits()
    }
}

/// Hashes AST node addresses directly: the keys are already
/// well-distributed pointers, and the default SipHash costs more than the
/// probe it guards on the per-element memo lookups.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) ^ u64::from(b);
        }
    }

    fn write_usize(&mut self, n: usize) {
        // Fibonacci multiply spreads the (aligned, clustered) addresses
        // across the whole hash range.
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PtrMap<V> = HashMap<*const Expr, V, std::hash::BuildHasherDefault<PtrHasher>>;

/// An evaluator's join-index cache: its own, or one lent to it.
enum Indexes<'a> {
    Own(IndexCache),
    Lent(&'a mut IndexCache),
}

impl std::ops::Deref for Indexes<'_> {
    type Target = IndexCache;

    fn deref(&self) -> &IndexCache {
        match self {
            Indexes::Own(cache) => cache,
            Indexes::Lent(cache) => cache,
        }
    }
}

impl std::ops::DerefMut for Indexes<'_> {
    fn deref_mut(&mut self) -> &mut IndexCache {
        match self {
            Indexes::Own(cache) => cache,
            Indexes::Lent(cache) => cache,
        }
    }
}

/// A reusable evaluator bound to one database.
pub struct Evaluator<'a> {
    db: &'a Database,
    limits: Limits,
    metrics: Metrics,
    env: Vec<(Var, Value)>,
    steps_left: u64,
    /// Loop-invariant subexpressions registered by active stage chains,
    /// keyed by AST node identity. `None` until first use (lazy, so error
    /// behavior matches unmemoized evaluation), then the cached value.
    memo: PtrMap<Option<Value>>,
    /// Cached invariance analysis per chain head: which body
    /// subexpressions are loop-invariant. Node pointers are only valid for
    /// the expression tree of the current `eval` call, so [`Evaluator::eval`]
    /// clears this on entry.
    invariant_roots: PtrMap<Vec<*const Expr>>,
    /// Cached [`projection_spec`] results per `Map` node (same pointer
    /// lifetime caveat as `invariant_roots`). `Arc` so a hit is one clone,
    /// not a re-scan and re-allocation per loop iteration.
    projection_specs: PtrMap<Option<Arc<[usize]>>>,
    /// Per-key join indexes over operand bags, keyed by representation
    /// pointer: the evaluator's own, or one lent by an owner that
    /// outlives it ([`Evaluator::set_index_cache`]). Valid across `eval`
    /// calls: each entry pins the slice allocation it describes, so
    /// repeated joins against the same operand (IFP bodies, repeated
    /// queries, a view's join delta every commit) probe instead of
    /// rebuilding.
    indexes: Indexes<'a>,
    /// Whether every fast path takes its reference instead (module doc,
    /// *Fast paths and their references*).
    reference: bool,
    /// Fused equi-joins answered by an index probe so far.
    indexed_joins: u64,
    /// Per-operator span recording for `:profile`; `None` (the default)
    /// costs one branch per closed node. Frames are only opened for
    /// env-empty (top-level plan) nodes, so λ-body and IFP-body
    /// per-element evaluations collapse into their parent frame.
    profiler: Option<Profiler>,
    /// The fast-path tags noted since the innermost open profiled frame
    /// opened, each once, in firing order; that frame takes them when it
    /// closes. Only written while profiling — evaluation results never
    /// depend on it.
    fast_path: Vec<&'static str>,
}

/// Always-on per-evaluation counters, resolved lazily from the installed
/// [`balg_obs`] registry. Recording happens once per [`Evaluator::eval`]
/// call — query granularity, not operator granularity — so the overhead
/// stays in the noise of any real workload.
struct EvalObs {
    total: balg_obs::Counter,
    errors: balg_obs::Counter,
    steps: balg_obs::Counter,
    duration: balg_obs::Histogram,
}

static EVAL_OBS: std::sync::OnceLock<EvalObs> = std::sync::OnceLock::new();

fn eval_obs() -> Option<&'static EvalObs> {
    if let Some(obs) = EVAL_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = EVAL_OBS.set(EvalObs {
        total: registry.counter("balg_eval_total", "Top-level BALG evaluations"),
        errors: registry.counter(
            "balg_eval_errors_total",
            "Top-level BALG evaluations that returned an error",
        ),
        steps: registry.counter(
            "balg_eval_steps_total",
            "Evaluation steps charged across all BALG evaluations",
        ),
        duration: registry.histogram(
            "balg_eval_duration_ns",
            "Wall time per top-level BALG evaluation",
        ),
    });
    EVAL_OBS.get()
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over `db` with the given budgets.
    pub fn new(db: &'a Database, limits: Limits) -> Self {
        let steps_left = limits.max_steps;
        Evaluator {
            db,
            limits,
            metrics: Metrics::default(),
            env: Vec::new(),
            steps_left,
            memo: PtrMap::default(),
            invariant_roots: PtrMap::default(),
            projection_specs: PtrMap::default(),
            indexes: Indexes::Own(IndexCache::new()),
            reference: false,
            indexed_joins: 0,
            profiler: None,
            fast_path: Vec::new(),
        }
    }

    /// Start recording per-operator spans for `:profile`. The profiler
    /// observes — it never changes what is computed, how many steps are
    /// charged, or which errors surface.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// Take the recorded profile (if profiling was enabled).
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// Send every fast path to the reference it falls back to (`true`), or
    /// let each take its fast path where it applies (`false`, the
    /// default). Nothing else reads the switch; the module doc's table
    /// says what each fast path keeps equal to its reference.
    /// Switching on drops any cached indexes.
    pub fn set_reference(&mut self, on: bool) {
        self.reference = on;
        if on {
            self.indexes.clear();
        }
    }

    /// Use `cache` as this evaluator's join-index cache for the rest of
    /// its life, in place of its own: entries it finds there are probed,
    /// and indexes over operands that outlive the evaluation are left
    /// there for the owner's next evaluator.
    pub fn set_index_cache(&mut self, cache: &'a mut IndexCache) {
        self.indexes = Indexes::Lent(cache);
    }

    /// The join-index cache statistics `(hits, builds)` — exposed so
    /// tests can assert that repeated joins actually reuse an index.
    pub fn index_stats(&self) -> (u64, u64) {
        (self.indexes.hits(), self.indexes.builds())
    }

    /// Fused equi-joins this evaluator answered by probing an index
    /// (cached or built for the one join) — the rest ran
    /// [`join::scan`] or materialized the product.
    pub fn indexed_joins(&self) -> u64 {
        self.indexed_joins
    }

    /// Inert: ignores its argument, since every kernel is serial. Kept
    /// only because the frozen end-to-end benchmark (`benchmark/`) calls
    /// it; ROADMAP item 1(g) removes those calls and then this method.
    pub fn set_parallel_threads(&mut self, _n: usize) {}

    /// Evaluate a closed expression (free variables resolve to database
    /// bags).
    pub fn eval(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        debug_assert!(self.env.is_empty());
        // A prior `eval` call may have analyzed a different (since
        // dropped) tree whose node addresses could recur.
        self.invariant_roots.clear();
        self.projection_specs.clear();
        let Some(obs) = eval_obs() else {
            return self.eval_inner(expr);
        };
        let start = std::time::Instant::now();
        let steps_before = self.metrics.steps;
        let result = self.eval_inner(expr);
        obs.total.inc();
        if result.is_err() {
            obs.errors.inc();
        }
        obs.steps.add(self.metrics.steps - steps_before);
        obs.duration
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        result
    }

    /// Evaluate and require a bag result.
    pub fn eval_bag(&mut self, expr: &Expr) -> Result<Bag, EvalError> {
        expect_bag(self.eval(expr)?)
    }

    /// Evaluate an expression under additional λ-style bindings pushed on
    /// top of the environment — the entry point the incremental view
    /// engine runs each node's probe through: the node's operator over
    /// its children's values, or over a delta's positive or negative part,
    /// each bound to a fresh variable.
    ///
    /// The expression tree may differ from the one a previous call
    /// analyzed, so the pointer-keyed caches are cleared on entry, exactly
    /// as [`Evaluator::eval`] does.
    pub fn eval_open(
        &mut self,
        expr: &Expr,
        bindings: &[(Var, Value)],
    ) -> Result<Value, EvalError> {
        self.invariant_roots.clear();
        self.projection_specs.clear();
        let depth = self.env.len();
        self.env.extend(bindings.iter().cloned());
        let result = self.eval_inner(expr);
        self.env.truncate(depth);
        result
    }

    /// Evaluate a selection predicate under additional bindings — the σ
    /// counterpart of [`Evaluator::eval_open`]: the public tree walk a
    /// fused chain's row decisions are held to.
    pub fn eval_pred_open(
        &mut self,
        pred: &Pred,
        bindings: &[(Var, Value)],
    ) -> Result<bool, EvalError> {
        self.invariant_roots.clear();
        self.projection_specs.clear();
        let depth = self.env.len();
        self.env.extend(bindings.iter().cloned());
        let result = self.eval_pred(pred);
        self.env.truncate(depth);
        result
    }

    /// The budgets this evaluator enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn step(&mut self) -> Result<(), EvalError> {
        self.charge_steps(1)
    }

    /// Charge `n` evaluation steps at once (bulk fast paths charge one
    /// per produced element without a call per element).
    fn charge_steps(&mut self, n: u64) -> Result<(), EvalError> {
        self.metrics.steps += n;
        match self.steps_left.checked_sub(n) {
            Some(rest) => {
                self.steps_left = rest;
                Ok(())
            }
            None => Err(EvalError::StepLimit(self.limits.max_steps)),
        }
    }

    /// Incremental distinct-element guard for loops that build an output
    /// bag pair by pair through a [`BagBuilder`]: errors as soon as the
    /// builder's distinct count crosses the budget, so a fused product
    /// path cannot materialize far past the cap before the final
    /// [`Evaluator::observe`] would reject it.
    fn check_builder_limit(&self, builder: &mut BagBuilder) -> Result<(), EvalError> {
        builder
            .ensure_distinct_within(self.limits.max_bag_elements)
            .map_err(|observed| EvalError::ElementLimit {
                observed,
                limit: self.limits.max_bag_elements,
            })
    }

    /// Record a produced bag in the metrics and enforce limits. One scan
    /// collects the maximal multiplicity and the total cardinality
    /// together — observation runs after every operator, so it must not
    /// dominate the operators themselves.
    fn observe(&mut self, bag: &Bag) -> Result<(), EvalError> {
        let distinct = bag.distinct_count() as u64;
        if distinct > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: distinct,
                limit: self.limits.max_bag_elements,
            });
        }
        self.metrics.max_distinct_elements = self.metrics.max_distinct_elements.max(distinct);
        let mut card = Natural::zero();
        let mut max_mult: Option<&Natural> = None;
        for (_, mult) in bag.iter() {
            card += mult;
            if max_mult.is_none_or(|m| mult > m) {
                max_mult = Some(mult);
            }
        }
        let max_mult = max_mult.cloned().unwrap_or_default();
        if max_mult.bits() > self.limits.max_multiplicity_bits {
            return Err(EvalError::MultiplicityLimit {
                observed_bits: max_mult.bits(),
                limit_bits: self.limits.max_multiplicity_bits,
            });
        }
        if max_mult > self.metrics.max_multiplicity {
            self.metrics.max_multiplicity = max_mult;
        }
        if card > self.metrics.max_cardinality {
            self.metrics.max_cardinality = card;
        }
        Ok(())
    }

    fn lookup(&self, name: &Var) -> Result<Value, EvalError> {
        for (bound, value) in self.env.iter().rev() {
            if bound == name {
                return Ok(value.clone());
            }
        }
        self.db
            .get(name)
            .map(|bag| Value::Bag(bag.clone()))
            .ok_or_else(|| EvalError::UnboundVariable(name.clone()))
    }

    fn eval_inner(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        if self.profiler.is_some() && self.env.is_empty() {
            return self.eval_inner_profiled(expr);
        }
        self.eval_inner_plain(expr)
    }

    fn eval_inner_plain(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        self.step()?;
        // Only computing nodes are ever registered (see `worth_memoizing`),
        // so `Var`/`Lit` skip the probe entirely.
        if !self.memo.is_empty() && !matches!(expr, Expr::Var(_) | Expr::Lit(_)) {
            let key = expr as *const Expr;
            match self.memo.get(&key) {
                Some(Some(cached)) => return Ok(cached.clone()),
                Some(None) => {
                    let value = self.eval_node(expr)?;
                    self.memo.insert(key, Some(value.clone()));
                    return Ok(value);
                }
                None => {}
            }
        }
        self.eval_node(expr)
    }

    /// [`Evaluator::eval_inner_plain`] bracketed by a profiler frame:
    /// identical evaluation, plus the node's label, elapsed time, step
    /// delta, output cardinality, and any fast-path tag its operator set.
    fn eval_inner_profiled(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        let span = self.open_span(expr);
        // The enclosing frame's notes so far wait while this frame runs.
        let outer = std::mem::take(&mut self.fast_path);
        let steps_before = self.metrics.steps;
        let result = self.eval_inner_plain(expr);
        let steps = self.metrics.steps - steps_before;
        let rows = match &result {
            Ok(Value::Bag(bag)) => Some(bag.distinct_count() as u64),
            _ => None,
        };
        let mut tags = std::mem::replace(&mut self.fast_path, outer);
        // `nest` is tagged here rather than in `eval_node`: a branch there
        // measurably slowed every node of an unprofiled evaluation.
        if let Expr::Nest { group, .. } = expr {
            if result.is_ok() {
                tags.push(if is_key_prefix(group) {
                    "key-runs"
                } else {
                    "key-hash"
                });
            }
        }
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.finish(span, steps, rows, tags, result.is_err());
        }
        result
    }

    fn open_span(&mut self, expr: &Expr) -> SpanId {
        let label = node_label(expr);
        self.profiler
            .as_mut()
            .expect("checked by eval_inner")
            .start(label)
    }

    /// Record the fast path an operator took, for the enclosing profiled
    /// frame: once per frame, in firing order. A push behind an
    /// is-profiling branch — inert when profiling is off, and invisible to
    /// evaluation either way.
    fn note_fast_path(&mut self, tag: &'static str) {
        if self.profiler.is_some() && !self.fast_path.contains(&tag) {
            self.fast_path.push(tag);
        }
    }

    fn eval_node(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        match expr {
            Expr::Var(name) => self.lookup(name),
            Expr::Lit(value) => Ok(value.clone()),
            Expr::AdditiveUnion(a, b) => self.eval_binary(a, b, MergeOp::Add),
            Expr::Subtract(a, b) => self.eval_binary(a, b, MergeOp::Monus),
            Expr::MaxUnion(a, b) => self.eval_binary(a, b, MergeOp::Max),
            Expr::Intersect(a, b) => self.eval_binary(a, b, MergeOp::Min),
            Expr::Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for field in fields {
                    out.push(self.eval_inner(field)?);
                }
                Ok(Value::Tuple(out.into()))
            }
            Expr::Singleton(e) => {
                let value = self.eval_inner(e)?;
                let bag = Bag::singleton(value);
                self.observe(&bag)?;
                Ok(Value::Bag(bag))
            }
            Expr::Product(a, b) => match self.eval_product(a, b, None)? {
                ProductOutcome::Materialized(out) | ProductOutcome::Joined(out) => {
                    Ok(Value::Bag(out))
                }
            },
            Expr::Powerset(e) => {
                let bag = expect_bag(self.eval_inner(e)?)?;
                self.metrics.powerset_calls += 1;
                let out = bag.powerset(self.limits.max_bag_elements)?;
                self.observe(&out)?;
                Ok(Value::Bag(out))
            }
            Expr::Powerbag(e) => {
                let bag = expect_bag(self.eval_inner(e)?)?;
                self.metrics.powerset_calls += 1;
                let out = bag.powerbag(self.limits.max_bag_elements)?;
                self.observe(&out)?;
                Ok(Value::Bag(out))
            }
            Expr::Attr(e, index) => {
                // Fast path for the ubiquitous `αᵢ(x)`: project the field
                // straight out of the λ-bound tuple instead of cloning the
                // whole tuple first.
                if let Expr::Var(name) = e.as_ref() {
                    let bound = self.env.iter().rposition(|(bound, _)| bound == name);
                    if let Some(ix) = bound {
                        self.step()?; // the Var node, as the generic path charges it
                        let value = &self.env[ix].1;
                        let fields = value.as_tuple().ok_or_else(|| shape("a tuple", value))?;
                        return attr_field(fields, *index).cloned().map_err(EvalError::Bag);
                    }
                    // Not λ-bound (a database bag or an unbound name): the
                    // generic path below reports it.
                }
                let value = self.eval_inner(e)?;
                let fields = value.as_tuple().ok_or_else(|| shape("a tuple", &value))?;
                attr_field(fields, *index).cloned().map_err(EvalError::Bag)
            }
            Expr::Destroy(e) => {
                let bag = expect_bag(self.eval_inner(e)?)?;
                let out = bag.destroy()?;
                self.observe(&out)?;
                Ok(Value::Bag(out))
            }
            Expr::Map { .. } | Expr::Select { .. } => self.eval_stage_chain(expr),
            Expr::Dedup(e) => {
                let bag = expect_bag(self.eval_inner(e)?)?;
                let out = bag.dedup();
                self.observe(&out)?;
                Ok(Value::Bag(out))
            }
            // Least fixpoint of T(B) = body(B) ∪ B (maximal union keeps the
            // operator inflationary on bags: multiplicities never shrink).
            // Each round splits the union as B ∪⁺ fresh with fresh =
            // body(B) ∸ B, what the round added; the fixpoint is reached
            // when that is empty.
            //
            // A body in delta form ([`ifp_delta_form`]) is evaluated on
            // `fresh` instead of on B — semi-naive iteration; every other
            // body, and every body under the reference, binds B. Contract
            // between the two (module doc's *fewer*): result bag,
            // `Metrics::ifp_iterations`, the `observe` of each round's
            // accumulator and the round at which `IfpLimit` fires are
            // identical; steps and the maxima over the body's
            // intermediates can only fall, so a step, element or
            // multiplicity budget fails later or not at all; a
            // non-resource error (`BadArity`, a shape error,
            // `AttrIndexZero`) surfaces in the same round with the same
            // variant, because an element that fails the body fails it in
            // the first round that sees it — the round it is fresh.
            Expr::Ifp { var, body, input } => {
                let seed = expect_bag(self.eval_inner(input)?)?;
                let delta_form = !self.reference && ifp_delta_form(var, body);
                let result = self.inflate(var, body, seed, delta_form);
                // Noted after the body's own notes, and on a failed
                // fixpoint too, so the frame says which loop ran.
                if delta_form {
                    self.note_fast_path("semi-naive");
                }
                result.map(Value::Bag)
            }
            Expr::Nest { group, input } => {
                let bag = expect_bag(self.eval_inner(input)?)?;
                let out = bag.nest(group)?;
                self.observe(&out)?;
                Ok(Value::Bag(out))
            }
        }
    }

    /// The rounds of `IFP_var(body)` from `current`, the seed: the body
    /// binds the whole accumulator, or only what the last round added
    /// when `delta_form`.
    fn inflate(
        &mut self,
        var: &Var,
        body: &Expr,
        mut current: Bag,
        delta_form: bool,
    ) -> Result<Bag, EvalError> {
        let mut fresh = current.clone(); // round 1: the seed
        for _ in 0..self.limits.max_ifp_iterations {
            self.metrics.ifp_iterations += 1;
            let bound = if delta_form { fresh } else { current.clone() };
            self.env.push((var.clone(), Value::Bag(bound)));
            let stepped = self.eval_inner(body);
            self.env.pop();
            fresh = self.merge_bags(expect_bag(stepped?)?, &current, MergeOp::Monus);
            // With nothing fresh, the union is `current` itself.
            current = self.merge_bags(current, &fresh, MergeOp::Add);
            self.observe(&current)?;
            if fresh.is_empty() {
                return Ok(current);
            }
        }
        Err(EvalError::IfpLimit(self.limits.max_ifp_iterations))
    }

    /// Classify one spine node as a [`Stage`], consulting the cached
    /// projection analysis for `MAP` bodies.
    fn make_stage<'e>(&mut self, node: &'e Expr) -> Stage<'e> {
        match node {
            Expr::Map { var, body, .. } => {
                let spec = self
                    .projection_specs
                    .entry(node as *const Expr)
                    .or_insert_with(|| projection_spec(body, var).map(Arc::from))
                    .clone();
                match spec {
                    Some(indices) => Stage::Project { indices },
                    None => Stage::Map { var, body },
                }
            }
            Expr::Select { var, pred, .. } => Stage::Filter {
                var,
                pred,
                in_place: !self.reference && reads_row_in_place(pred, var),
            },
            _ => unreachable!("spine nodes are Map or Select"),
        }
    }

    /// Fused evaluation of a `MAP`/`σ` spine: each element of the base bag
    /// streams through every stage in one pass, so only the chain's final
    /// bag is materialized. When the innermost stage is an equi-join
    /// selection directly over a product (`σ_{αᵢ=αⱼ}(e × e′)` with `i` on
    /// the left side and `j` on the right), the base is produced by a hash
    /// join instead of product-then-filter.
    ///
    /// Entered from [`Evaluator::eval_inner`], which has already charged
    /// the step for the outermost spine node.
    fn eval_stage_chain(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        // Measure the spine first (no allocation), then collect it in
        // evaluation order — single-stage chains, the overwhelmingly
        // common case, live in a stack slot instead of a `Vec`.
        let mut depth = 0usize;
        let mut probe = expr;
        loop {
            probe = match probe {
                Expr::Map { input, .. } | Expr::Select { input, .. } => {
                    depth += 1;
                    input
                }
                _ => break,
            };
        }
        let cur = probe;
        let single_storage;
        let vec_storage;
        let stages: &[Stage<'_>] = if depth == 1 {
            single_storage = [self.make_stage(expr)];
            &single_storage
        } else {
            let mut collected = Vec::with_capacity(depth);
            let mut node = expr;
            while let Expr::Map { input, .. } | Expr::Select { input, .. } = node {
                collected.push(self.make_stage(node));
                node = input;
            }
            collected.reverse();
            vec_storage = collected;
            &vec_storage
        };
        for _ in 1..stages.len() {
            self.step()?; // the inner spine nodes the fusion skips
        }

        let mut first_stage = 0;
        let base = match (cur, stages.first()) {
            (Expr::Product(a, b), Some(Stage::Filter { var, pred, .. }))
                if equi_join_attrs(pred, var).is_some() =>
            {
                let (i, j) = equi_join_attrs(pred, var).expect("just matched");
                self.step()?; // the Product node, as eval_inner would charge it
                match self.eval_product(a, b, Some((i, j)))? {
                    ProductOutcome::Joined(bag) => {
                        first_stage = 1; // the filter became the join
                        ChainBase::Bag(bag)
                    }
                    ProductOutcome::Materialized(bag) => ChainBase::Bag(bag),
                }
            }
            // `π`/`MAP` directly over a product: stream the pairs through
            // the chain without materializing the product. (A non-join σ
            // over a product still materializes, keeping the rewrite
            // optimizer's σ-pushdown measurably useful.)
            (Expr::Product(a, b), Some(Stage::Map { .. } | Stage::Project { .. })) => {
                self.step()?; // the Product node
                let left = expect_bag(self.eval_inner(a)?)?;
                let right = expect_bag(self.eval_inner(b)?)?;
                match stages.first() {
                    // π over × with every index on one side: the other
                    // side contributes only a cardinality factor, so the
                    // pair loop collapses to project-and-scale (O(|L|+|R|)
                    // instead of O(|L|·|R|)).
                    // Only when the pair loop is actually bigger than the
                    // project-and-scale pass (tiny products are cheaper to
                    // stream directly).
                    Some(Stage::Project { indices })
                        if !self.reference
                            && left.distinct_count() * right.distinct_count()
                                > 2 * (left.distinct_count() + right.distinct_count()) =>
                    {
                        match one_sided_projection(&left, &right, indices)? {
                            // One step per produced element, in bulk, when
                            // the budget holds it; otherwise the pairs
                            // stream, to fail on their exact step.
                            Some(bag) if bag.distinct_count() as u64 <= self.steps_left => {
                                self.charge_steps(bag.distinct_count() as u64)
                                    .expect("checked against steps_left");
                                first_stage = 1; // the projection is done
                                self.note_fast_path("project-scale");
                                ChainBase::Bag(bag)
                            }
                            _ => ChainBase::Pairs(left, right),
                        }
                    }
                    _ => ChainBase::Pairs(left, right),
                }
            }
            _ => ChainBase::Bag(expect_bag(self.eval_inner(cur)?)?),
        };

        // Register loop-invariant subexpressions of the stage bodies for
        // lazy once-only evaluation. Only worthwhile when the loop runs
        // more than once. The analysis itself is cached per chain head
        // (the AST is immutable for the duration of one `eval`), so a
        // chain inside an IFP body or an outer λ pays for it once, not
        // once per iteration. Roots are collected over the full spine —
        // independent of whether the hash join consumed the first filter —
        // so the cached set is deterministic per node; entries for a
        // consumed filter simply go unused.
        let loop_len = match &base {
            ChainBase::Bag(bag) => bag.distinct_count(),
            ChainBase::Pairs(left, right) => left.distinct_count() * right.distinct_count(),
        };
        let mut registered: Vec<*const Expr> = Vec::new();
        if loop_len > 1 {
            let chain_key = expr as *const Expr;
            let keys = match self.invariant_roots.get(&chain_key) {
                Some(cached) => cached.clone(),
                None => {
                    let mut roots = Vec::new();
                    for stage in stages {
                        match stage {
                            Stage::Map { var, body } => {
                                collect_invariant_roots(body, &mut vec![*var], &mut roots);
                            }
                            // An in-place σ reads only its row and literals:
                            // nothing to hoist.
                            Stage::Filter { in_place: true, .. } => {}
                            Stage::Filter { var, pred, .. } => {
                                let mut blocked = vec![*var];
                                let _ = pred.try_for_each_expr(&mut |e| {
                                    collect_invariant_roots(e, &mut blocked, &mut roots);
                                    ControlFlow::<()>::Continue(())
                                });
                            }
                            // A projection has no subexpressions to hoist.
                            Stage::Project { .. } => {}
                        }
                    }
                    let keys: Vec<*const Expr> =
                        roots.into_iter().map(|root| root as *const Expr).collect();
                    self.invariant_roots.insert(chain_key, keys.clone());
                    keys
                }
            };
            for key in keys {
                if let std::collections::hash_map::Entry::Vacant(slot) = self.memo.entry(key) {
                    slot.insert(None);
                    registered.push(key);
                }
            }
        }
        let stages = &stages[first_stage..];

        // A hash join or one-sided projection may have consumed the only
        // stage: its bag already is the chain's result — don't re-stream
        // it through an empty pipeline (the observe below still runs).
        let result = match (&base, stages) {
            (ChainBase::Bag(bag), []) => Ok(bag.clone()),
            // A lone prefix `π` over a bag folds key runs; a chain the
            // kernel declines streams row by row.
            _ => {
                let runs = match (&base, stages) {
                    (ChainBase::Bag(bag), [Stage::Project { indices }]) => {
                        self.project_key_runs(bag, indices)
                    }
                    _ => None,
                };
                match runs {
                    Some(out) => Ok(out),
                    None => self.run_chain_loop(&base, stages),
                }
            }
        };
        for key in registered {
            self.memo.remove(&key);
        }
        let out = result?;
        self.observe(&out)?;
        Ok(Value::Bag(out))
    }

    /// The streaming loop of [`Evaluator::eval_stage_chain`], separated so
    /// the caller can unregister its memo entries on both the success and
    /// the error path.
    fn run_chain_loop(&mut self, base: &ChainBase, stages: &[Stage<'_>]) -> Result<Bag, EvalError> {
        // Once per chain, not per row; what the rows run (the seek, a
        // `MAP` body) notes after it.
        if self.profiler.is_some()
            && stages
                .iter()
                .any(|stage| matches!(stage, Stage::Filter { in_place: true, .. }))
        {
            self.note_fast_path("in-place");
        }
        match base {
            ChainBase::Bag(bag) => {
                let mut out = match key_hash_projection(stages) {
                    Some(indices) if !self.reference => {
                        self.note_fast_path("key-hash");
                        Sink::Groups(KeyGroups::new(indices))
                    }
                    _ => Sink::Rows(BagBuilder::new()),
                };
                // A leading in-place σ that compares `α₁` with literals
                // seeks the runs its verdict is constant on; any other
                // chain scans the rows.
                let lead = match stages.first() {
                    Some(Stage::Filter {
                        pred,
                        in_place: true,
                        ..
                    }) => Some(*pred),
                    _ => None,
                };
                let mut literals = Vec::new();
                if let Some(pred) = lead {
                    lead_literals(pred, &mut literals);
                }
                let cuts = if literals.is_empty() {
                    None
                } else {
                    bag.lead_runs(&literals)
                };
                match (lead, cuts) {
                    (Some(pred), Some(cuts)) => {
                        self.seek_runs(bag.pairs(), &cuts, pred, stages, &mut out)?;
                    }
                    _ => self.scan_rows(bag.pairs(), lead, stages, &mut out)?,
                }
                Ok(out.build())
            }
            ChainBase::Pairs(left, right) => {
                let mut out = BagBuilder::new();
                // A leading projection picks its fields straight off the
                // two sides, skipping the concatenated-tuple allocation.
                let (project, rest) = match stages.first() {
                    Some(Stage::Project { indices }) => (Some(&indices[..]), &stages[1..]),
                    _ => (None, stages),
                };
                for (lv, lm) in left.iter() {
                    let left_fields = lv
                        .as_tuple()
                        .ok_or_else(|| BagError::NotATuple(lv.clone()))?;
                    for (rv, rm) in right.iter() {
                        let right_fields = rv
                            .as_tuple()
                            .ok_or_else(|| BagError::NotATuple(rv.clone()))?;
                        let first = match project {
                            Some(indices) => {
                                self.step()?; // the projection application
                                project_pair(left_fields, right_fields, indices)?
                            }
                            None => Value::concat_tuples(left_fields, right_fields),
                        };
                        self.run_stages(first, lm * rm, rest, &mut out)?;
                    }
                }
                Ok(out.build())
            }
        }
    }

    /// Push `rows` of a bag base through the chain one by one. A leading
    /// in-place σ (`lead`) decides on the borrowed row, so a rejected row
    /// is never cloned; a row it declines enters the chain at that stage's
    /// tree walk.
    fn scan_rows<'r>(
        &mut self,
        rows: &'r [(Value, Natural)],
        lead: Option<&Pred>,
        stages: &[Stage<'_>],
        out: &mut Sink<'r>,
    ) -> Result<(), EvalError> {
        for (value, mult) in rows {
            let from = match lead.and_then(|pred| self.filter_in_place(pred, value)) {
                Some(false) => continue,
                Some(true) => 1,
                None => 0,
            };
            match out {
                Sink::Rows(out) => {
                    self.run_stages(value.clone(), mult.clone(), &stages[from..], out)?;
                }
                Sink::Groups(groups) => self.group_row(value, mult, &stages[from..], groups)?,
            }
        }
        Ok(())
    }

    /// [`Evaluator::run_stages`] for a `key-hash` chain
    /// ([`key_hash_projection`]): the same filters, charges and errors on
    /// the borrowed row, in the same order, then its multiplicity is added
    /// to its projection's group instead of a projected tuple being built
    /// and pushed. The element budget fails on the row that opens one
    /// group too many, with the count the builder would report.
    fn group_row<'r>(
        &mut self,
        row: &'r Value,
        mult: &Natural,
        stages: &[Stage<'_>],
        groups: &mut KeyGroups<'r, Natural>,
    ) -> Result<(), EvalError> {
        let Some((Stage::Project { indices }, filters)) = stages.split_last() else {
            unreachable!("a key-hash chain ends in its projection");
        };
        for stage in filters {
            let Stage::Filter { var, pred, .. } = stage else {
                unreachable!("a key-hash chain filters in place");
            };
            let keep = match self.filter_in_place(pred, row) {
                Some(keep) => keep,
                None => {
                    // Declined: the tree walk, on a clone as `run_stages`
                    // binds it.
                    self.env.push(((*var).clone(), row.clone()));
                    let keep = self.eval_pred(pred);
                    self.env.pop();
                    keep?
                }
            };
            if !keep {
                return Ok(());
            }
        }
        self.step()?; // the projection application
        let fields = row.as_tuple().ok_or_else(|| shape("a tuple", row))?;
        for &ix in indices.iter() {
            attr_field(fields, ix).map_err(EvalError::Bag)?;
        }
        *groups.entry(fields, Natural::zero) += mult;
        let observed = groups.len() as u64;
        if observed > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed,
                limit: self.limits.max_bag_elements,
            });
        }
        Ok(())
    }

    /// [`Evaluator::scan_rows`] for a leading in-place σ `pred` over the
    /// runs [`Bag::lead_runs`] cut at its `α₁` literals. Each run's first
    /// row is walked cut down to its `α₁`: a verdict means the walk read
    /// nothing else, so the verdict and its charge hold for every row of
    /// the run. A false run is charged in bulk and skipped; every other
    /// run — true, reading past `α₁`, or with a bulk charge over the steps
    /// left — is scanned: the same bags, errors and [`Metrics`] at every
    /// budget.
    fn seek_runs<'r>(
        &mut self,
        rows: &'r [(Value, Natural)],
        cuts: &[usize],
        pred: &Pred,
        stages: &[Stage<'_>],
        out: &mut Sink<'r>,
    ) -> Result<(), EvalError> {
        let mut skipped = false;
        let mut outcome = Ok(());
        for run in cuts.windows(2).map(|cut| &rows[cut[0]..cut[1]]) {
            let mut steps = 0;
            let verdict = run[0]
                .0
                .as_tuple()
                .and_then(|fields| fields.get(..1))
                .and_then(|lead| row_verdict(pred, lead, &mut steps));
            let bulk = steps.saturating_mul(run.len() as u64);
            if verdict == Some(false) && bulk <= self.steps_left {
                self.charge_steps(bulk).expect("checked against steps_left");
                skipped = true;
            } else {
                outcome = self.scan_rows(run, Some(pred), stages, out);
                if outcome.is_err() {
                    break;
                }
            }
        }
        // Noted last, so the tag lands on this chain's frame rather than on
        // a frame the later stages evaluate, and also when a later run fails.
        if skipped {
            self.note_fast_path("seek");
        }
        outcome
    }

    /// Decide an in-place σ ([`reads_row_in_place`]) on a borrowed row:
    /// no λ binding, no clone, one bulk charge of exactly what
    /// [`Evaluator::eval_pred`] charges for this row. `None` — and nothing
    /// charged — when the tree walk has to run instead because it would
    /// fail: the row is not a tuple, the walk reaches an attribute the row
    /// lacks, or the charge exceeds the remaining step budget (the walk
    /// then stops on the exact step with the exact partial metrics).
    fn filter_in_place(&mut self, pred: &Pred, row: &Value) -> Option<bool> {
        let mut steps = 0;
        let keep = row_verdict(pred, row.as_tuple()?, &mut steps)?;
        if steps > self.steps_left {
            return None;
        }
        self.charge_steps(steps)
            .expect("checked against steps_left");
        Some(keep)
    }

    /// A chain that is only a prefix `π_{1..k}` over a bag, by
    /// [`Bag::project_prefix`]: one bulk charge of the one step per row the
    /// per-row loop charges, like [`Evaluator::filter_in_place`]. `None` —
    /// and nothing charged — when that loop has to run instead, to fail on
    /// its exact row and step with its partial [`Metrics`]: the indices are
    /// not a prefix, the kernel declines a row, the charge exceeds the
    /// remaining steps, or the output would exceed the element budget.
    fn project_key_runs(&mut self, bag: &Bag, indices: &[usize]) -> Option<Bag> {
        let steps = bag.distinct_count() as u64;
        if self.reference || !is_key_prefix(indices) || steps > self.steps_left {
            return None;
        }
        let out = bag.project_prefix(indices.len())?;
        if out.distinct_count() as u64 > self.limits.max_bag_elements {
            return None;
        }
        self.charge_steps(steps)
            .expect("checked against steps_left");
        self.note_fast_path("key-runs");
        Some(out)
    }

    /// Push one element through every stage; survivors land in `out`.
    fn run_stages(
        &mut self,
        value: Value,
        mult: Natural,
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
                Stage::Filter {
                    var,
                    pred,
                    in_place,
                } => {
                    if *in_place {
                        match self.filter_in_place(pred, &current) {
                            Some(true) => continue,
                            Some(false) => return Ok(()),
                            None => {} // declined: the tree walk below
                        }
                    }
                    self.env.push(((*var).clone(), current));
                    let keep = self.eval_pred(pred);
                    let (_, value_back) = self.env.pop().expect("balanced λ environment");
                    if !keep? {
                        return Ok(());
                    }
                    current = value_back;
                }
                Stage::Project { indices } => {
                    self.step()?; // one per element, like a body application
                    let fields = current
                        .as_tuple()
                        .ok_or_else(|| shape("a tuple", &current))?;
                    current = match indices[..] {
                        [ix] => {
                            let field = attr_field(fields, ix).map_err(EvalError::Bag)?;
                            Value::Tuple(Arc::from([field.clone()]))
                        }
                        _ => {
                            let mut out = Vec::with_capacity(indices.len());
                            for &ix in indices.iter() {
                                out.push(attr_field(fields, ix).map_err(EvalError::Bag)?.clone());
                            }
                            Value::Tuple(out.into())
                        }
                    };
                }
            }
        }
        out.push(current, mult);
        self.check_builder_limit(out)
    }

    /// Evaluate `a × b`, optionally under an equi-join filter
    /// `αᵢ = αⱼ` (with `i < j` referring to the concatenated tuple).
    ///
    /// With `join_attrs` set and the shape guards satisfied (all elements
    /// tuples, uniform arity per side, the equality spanning the product
    /// boundary — [`join::spanning_keys`]) matching pairs are produced
    /// directly — by an index probe, or by [`join::scan`] with indexing
    /// off — and the full product is never built. An operand with an
    /// index in the cache takes its arity from it instead of a scan, so
    /// a small probe side against a large indexed one costs
    /// `O(probe · matches)`. Otherwise this is exactly the materializing
    /// `Expr::Product` evaluation (element-count prediction, then
    /// [`Bag::product`]), and the caller must still apply the filter.
    fn eval_product(
        &mut self,
        a: &Expr,
        b: &Expr,
        join_attrs: Option<(usize, usize)>,
    ) -> Result<ProductOutcome, EvalError> {
        let left = expect_bag(self.eval_inner(a)?)?;
        let right = expect_bag(self.eval_inner(b)?)?;

        let arity = |bag: &Bag| {
            self.indexes
                .arity(bag)
                .or_else(|| join::uniform_arity(bag.pairs()))
        };
        let keys = join_attrs.and_then(|(i, j)| {
            Some((
                (i, j),
                join::spanning_keys(i, j, arity(&left)?, arity(&right)?)?,
            ))
        });
        if let Some((attrs, (li, rj))) = keys {
            let indexed = if self.reference {
                None
            } else {
                self.indexed_join((a, &left, li), (b, &right, rj))?
            };
            let (out, tag) = match indexed {
                Some(out) => {
                    self.indexed_joins += 1;
                    (out, "indexed-join")
                }
                // The reference (or neither side indexable): the
                // kernel's reference loop, which the probe is checked
                // against — the same pairs at the same charges.
                None => {
                    let mut out = BagBuilder::new();
                    join::scan(
                        left.pairs(),
                        right.pairs(),
                        attrs,
                        true,
                        |lf, rf, lm, rm| {
                            self.step()?; // one per surviving pair, like the filter
                            out.push(Value::concat_tuples(lf, rf), lm * rm);
                            self.check_builder_limit(&mut out)
                        },
                    )?;
                    (out.build(), "scan-join")
                }
            };
            self.observe(&out)?;
            self.note_fast_path(tag);
            return Ok(ProductOutcome::Joined(out));
        }

        // Materializing path. Predict output size: distinct counts multiply.
        // `Bag::product` enforces the same budget again inside its loop,
        // so even without this pre-check no unbounded intermediate could
        // be materialized; predicting here keeps the error an
        // `ElementLimit` with the exact prediction.
        let predicted = left.distinct_count() as u128 * right.distinct_count() as u128;
        if predicted > self.limits.max_bag_elements as u128 {
            return Err(EvalError::ElementLimit {
                observed: predicted.min(u64::MAX as u128) as u64,
                limit: self.limits.max_bag_elements,
            });
        }
        let out = left.product(&right, self.limits.max_bag_elements)?;
        self.observe(&out)?;
        Ok(ProductOutcome::Materialized(out))
    }

    /// The cached-index hash join: [`join::probe`] a cached index on one
    /// operand with every row of the other. Each side is its expression,
    /// its bag and its join attribute in the side's own 1-based numbering;
    /// both bags are known to be uniform-arity tuple bags. Prefers an index
    /// that is already cached (either side). On a double miss it indexes
    /// the operand that lives longest ([`Evaluator::lifetime`]): one that
    /// reads a λ-bound variable (the accumulator or the fresh tuples of an
    /// IFP round, the row of a `MAP`, a view probe's delta half) is a new
    /// bag next time round and its index would die unused, while the
    /// other side (the edge bag of a transitive closure, the base a view
    /// delta joins against) is built once and hit every round. When that
    /// does not decide, the smaller side is the cheaper build. When
    /// neither side outlives the evaluation, the index serves this one
    /// join and is never cached. Returns `Ok(None)` only when no side can
    /// be indexed, which the guards above make unreachable in practice;
    /// the caller then falls back to [`join::scan`].
    fn indexed_join(
        &mut self,
        (a, left, li): (&Expr, &Bag, usize),
        (b, right, rj): (&Expr, &Bag, usize),
    ) -> Result<Option<Bag>, EvalError> {
        let (index, probe_is_left) = if let Some(index) = self.indexes.peek(left, li) {
            (Some(index), false)
        } else if let Some(index) = self.indexes.peek(right, rj) {
            (Some(index), true)
        } else {
            let (lives_left, lives_right) = (self.lifetime(a, left), self.lifetime(b, right));
            let index_left = match lives_left.cmp(&lives_right) {
                std::cmp::Ordering::Equal => left.distinct_count() <= right.distinct_count(),
                longer => longer.is_gt(),
            };
            let (bag, attr) = if index_left { (left, li) } else { (right, rj) };
            let index = if lives_left.max(lives_right) > 0 {
                self.indexes.get_or_build(bag, attr)
            } else {
                BagIndex::build(bag, attr).map(Arc::new)
            };
            (index, !index_left)
        };
        let Some(index) = index else {
            return Ok(None);
        };
        let (probe, key) = if probe_is_left {
            (left, li)
        } else {
            (right, rj)
        };
        let mut out = BagBuilder::new();
        join::probe(
            probe.pairs(),
            &index,
            key,
            probe_is_left,
            |lf, rf, pm, mm| {
                self.step()?; // one per surviving pair, like the filter
                out.push(Value::concat_tuples(lf, rf), pm * mm);
                self.check_builder_limit(&mut out)
            },
        )?;
        Ok(Some(out.build()))
    }

    /// How long a join operand's bag lives, as a rank: 2 when `expr`
    /// reads no variable the λ environment binds (one value for the
    /// whole evaluation); 1 when it does but the database holds `bag`
    /// (a base bound to a view probe's input, whose index the lent cache
    /// keeps patched across commits); 0 when the value is one
    /// iteration's, or one probe's, and dies with it.
    fn lifetime(&self, expr: &Expr, bag: &Bag) -> u8 {
        if !self.env.iter().any(|(name, _)| mentions_free(expr, name)) {
            return 2;
        }
        u8::from(
            self.db
                .iter()
                .any(|(_, base)| base.shares_representation(bag)),
        )
    }

    fn eval_binary(&mut self, a: &Expr, b: &Expr, op: MergeOp) -> Result<Value, EvalError> {
        let left = expect_bag(self.eval_inner(a)?)?;
        let right = expect_bag(self.eval_inner(b)?)?;
        let out = self.merge_bags(left, &right, op);
        self.observe(&out)?;
        Ok(Value::Bag(out))
    }

    /// Run one of the four keywise merges on a left operand the caller
    /// gives up: through [`Bag::merge_owned`], which moves the pairs of a
    /// left operand nothing else holds (an intermediate result, the
    /// fixpoint's accumulator) instead of cloning them, and on the
    /// reference through [`Bag::merge`], which clones. The merges charge
    /// no per-element steps, so both are identical in every observable
    /// (bag, error, metrics).
    fn merge_bags(&self, left: Bag, right: &Bag, op: MergeOp) -> Bag {
        if self.reference {
            return left.merge(right, op);
        }
        left.merge_owned(right, op)
    }

    fn eval_pred(&mut self, pred: &Pred) -> Result<bool, EvalError> {
        self.step()?;
        match pred {
            Pred::True => Ok(true),
            Pred::Eq(a, b) => Ok(self.eval_inner(a)? == self.eval_inner(b)?),
            Pred::Lt(a, b) => Ok(self.eval_inner(a)? < self.eval_inner(b)?),
            Pred::Le(a, b) => Ok(self.eval_inner(a)? <= self.eval_inner(b)?),
            Pred::Member(a, b) => {
                let elem = self.eval_inner(a)?;
                let bag = expect_bag(self.eval_inner(b)?)?;
                Ok(bag.contains(&elem))
            }
            Pred::SubBag(a, b) => {
                let left = expect_bag(self.eval_inner(a)?)?;
                let right = expect_bag(self.eval_inner(b)?)?;
                Ok(left.is_subbag_of(&right))
            }
            Pred::Not(p) => Ok(!self.eval_pred(p)?),
            Pred::And(a, b) => Ok(self.eval_pred(a)? && self.eval_pred(b)?),
            Pred::Or(a, b) => Ok(self.eval_pred(a)? || self.eval_pred(b)?),
        }
    }
}

/// One node of a `MAP`/`σ` spine, borrowed from the expression tree.
enum Stage<'e> {
    Map {
        var: &'e Var,
        body: &'e Expr,
    },
    Filter {
        var: &'e Var,
        pred: &'e Pred,
        /// The predicate only compares attributes of `var`'s own row and
        /// literals ([`reads_row_in_place`]), and the evaluator is not on
        /// the reference: decided by [`row_verdict`]
        /// on the borrowed row, by the tree walk only for the rows
        /// `row_verdict` declines.
        in_place: bool,
    },
    /// A `MAP` whose body is `[α_{i₁}(x), …]` over its own λ variable —
    /// the paper's `π` abbreviation — precompiled to its 1-based indices.
    Project {
        indices: Arc<[usize]>,
    },
}

/// Recognize a projection-shaped `MAP` body: a tuple of attribute
/// projections applied directly to the λ-bound variable.
fn projection_spec(body: &Expr, var: &Var) -> Option<Vec<usize>> {
    let Expr::Tuple(fields) = body else {
        return None;
    };
    if fields.is_empty() {
        // `λx.[]` never inspects `x`, so it maps non-tuple elements too;
        // the projection fast path (which demands tuples) must not claim it.
        return None;
    }
    let mut indices = Vec::with_capacity(fields.len());
    for field in fields {
        match field {
            Expr::Attr(inner, ix) => match inner.as_ref() {
                Expr::Var(name) if name == var => indices.push(*ix),
                _ => return None,
            },
            _ => return None,
        }
    }
    Some(indices)
}

/// Is `pred` decidable from the fields of `var`'s row alone — built from
/// `True`/`Eq`/`Lt`/`Le`/`Not`/`And`/`Or` with every operand a literal or
/// `αᵢ(var)`, `i ≥ 1`? Every SQL `WHERE` over one table lowers to this.
/// Anything else (`α₀`, another variable, a computed operand, `∈`, `⊑`)
/// keeps the λ-binding tree walk.
fn reads_row_in_place(pred: &Pred, var: &Var) -> bool {
    let operand = |e: &Expr| match e {
        Expr::Lit(_) => true,
        Expr::Attr(inner, ix) => {
            *ix >= 1 && matches!(inner.as_ref(), Expr::Var(name) if name == var)
        }
        _ => false,
    };
    match pred {
        Pred::True => true,
        Pred::Eq(a, b) | Pred::Lt(a, b) | Pred::Le(a, b) => operand(a) && operand(b),
        Pred::Member(..) | Pred::SubBag(..) => false,
        Pred::Not(p) => reads_row_in_place(p, var),
        Pred::And(a, b) | Pred::Or(a, b) => {
            reads_row_in_place(a, var) && reads_row_in_place(b, var)
        }
    }
}

/// The literals a [`reads_row_in_place`] predicate compares `α₁` with:
/// where [`Bag::lead_runs`] cuts the slice for [`Evaluator::seek_runs`].
fn lead_literals<'p>(pred: &'p Pred, out: &mut Vec<&'p Value>) {
    match pred {
        Pred::Eq(a, b) | Pred::Lt(a, b) | Pred::Le(a, b) => match (a, b) {
            (Expr::Attr(_, 1), Expr::Lit(c)) | (Expr::Lit(c), Expr::Attr(_, 1)) => out.push(c),
            _ => {}
        },
        Pred::Not(p) => lead_literals(p, out),
        Pred::And(a, b) | Pred::Or(a, b) => {
            lead_literals(a, out);
            lead_literals(b, out);
        }
        Pred::True | Pred::Member(..) | Pred::SubBag(..) => {}
    }
}

/// [`Evaluator::eval_pred`] for a [`reads_row_in_place`] predicate, on the
/// row's borrowed fields: the same verdict under the same short-circuits,
/// adding to `steps` what the tree walk charges on the way — 1 per
/// predicate node reached, 2 per `αᵢ(x)` (the `Attr` and its `Var`), 1 per
/// literal. `None` as soon as it reaches an attribute the row lacks, where
/// the tree walk raises `BadArity` (`steps` is then meaningless).
fn row_verdict(pred: &Pred, fields: &[Value], steps: &mut u64) -> Option<bool> {
    *steps += 1;
    Some(match pred {
        Pred::True => true,
        Pred::Eq(a, b) => row_operand(a, fields, steps)? == row_operand(b, fields, steps)?,
        Pred::Lt(a, b) => row_operand(a, fields, steps)? < row_operand(b, fields, steps)?,
        Pred::Le(a, b) => row_operand(a, fields, steps)? <= row_operand(b, fields, steps)?,
        Pred::Member(..) | Pred::SubBag(..) => return None,
        Pred::Not(p) => !row_verdict(p, fields, steps)?,
        Pred::And(a, b) => row_verdict(a, fields, steps)? && row_verdict(b, fields, steps)?,
        Pred::Or(a, b) => row_verdict(a, fields, steps)? || row_verdict(b, fields, steps)?,
    })
}

/// One operand of [`row_verdict`]: the literal, or the row's own field.
fn row_operand<'r>(operand: &'r Expr, fields: &'r [Value], steps: &mut u64) -> Option<&'r Value> {
    match operand {
        Expr::Lit(value) => {
            *steps += 1;
            Some(value)
        }
        Expr::Attr(_, ix) => {
            *steps += 2;
            fields.get(ix.checked_sub(1)?)
        }
        _ => None,
    }
}

/// What a stage chain streams over: an evaluated bag, or the unmaterialized
/// pairs of a product feeding a `MAP` stage.
enum ChainBase {
    Bag(Bag),
    Pairs(Bag, Bag),
}

/// Where the rows of a bag base that survive the chain go.
enum Sink<'r> {
    /// The per-row loop: each row's final value, pushed into a builder.
    Rows(BagBuilder),
    /// `key-hash`: each row's multiplicity, summed per distinct value of
    /// the chain's final projection ([`key_hash_projection`]).
    Groups(KeyGroups<'r, Natural>),
}

impl Sink<'_> {
    fn build(self) -> Bag {
        match self {
            Sink::Rows(out) => out.build(),
            Sink::Groups(groups) => {
                let indices = groups.key();
                Bag::from_sorted_vec(
                    groups
                        .into_sorted()
                        .into_iter()
                        .map(|(fields, sum)| {
                            let tuple: Arc<[Value]> =
                                key_fields(indices, fields).cloned().collect();
                            (Value::Tuple(tuple), sum)
                        })
                        .collect(),
                )
            }
        }
    }
}

/// The indices of a chain the grouping sink runs (`key-hash`): in-place
/// `σ` stages, then a `π` not led by `α₁`. Its output is a projection of
/// borrowed rows, so the sink sums their multiplicities per distinct key
/// and allocates one tuple per key instead of one per row. An `α₁`-led
/// projection of the sorted slice comes out nearly sorted, which the
/// builder appends for less than a hash costs, so it keeps the per-row
/// loop.
fn key_hash_projection<'s>(stages: &'s [Stage<'_>]) -> Option<&'s [usize]> {
    match stages.split_last()? {
        (Stage::Project { indices }, filters)
            if indices.first() != Some(&1)
                && filters
                    .iter()
                    .all(|stage| matches!(stage, Stage::Filter { in_place: true, .. })) =>
        {
            Some(indices)
        }
        _ => None,
    }
}

/// `true` for subexpressions whose once-only evaluation is worth a memo
/// entry: anything that actually computes (not a variable or constant).
fn worth_memoizing(expr: &Expr) -> bool {
    !matches!(expr, Expr::Var(_) | Expr::Lit(_))
}

/// Does `name` occur free in `expr`? (Occurrences under a λ that rebinds
/// the same name are bound, not free.)
fn mentions_free(expr: &Expr, name: &Var) -> bool {
    matches!(expr, Expr::Var(v) if v == name)
        || expr
            .try_for_each_child(|child, bound| {
                if bound != Some(name) && mentions_free(child, name) {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            })
            .is_break()
}

/// Collect the maximal subexpressions of `expr` that mention none of the
/// `blocked` variables — the λ-bound names between the stage body root and
/// the candidate, starting with the stage's own variable. Those subtrees
/// evaluate to the same value for every element of the stage's loop, so
/// the evaluator memoizes them (lazily, preserving error behavior: a
/// subtree that is never reached is never evaluated).
fn collect_invariant_roots<'e>(
    expr: &'e Expr,
    blocked: &mut Vec<&'e Var>,
    out: &mut Vec<&'e Expr>,
) {
    if !blocked.iter().any(|name| mentions_free(expr, name)) {
        if worth_memoizing(expr) {
            out.push(expr);
        }
        return;
    }
    let _ = expr.try_for_each_child(|child, var| {
        let depth = blocked.len();
        blocked.extend(var);
        collect_invariant_roots(child, blocked, out);
        blocked.truncate(depth);
        ControlFlow::<()>::Continue(())
    });
}

/// How [`Evaluator::eval_product`] produced its bag.
enum ProductOutcome {
    /// Hash join: the equi-join filter is already applied.
    Joined(Bag),
    /// Full Cartesian product: any filter still needs to run.
    Materialized(Bag),
}

/// Recognize `αᵢ(x) = αⱼ(x)` over the σ-bound variable `x` with `i ≠ j`,
/// normalized to `i < j` — the one join shape this evaluator, the
/// incremental engine's compile-time `σ(×)` fusion and the rewriter's
/// conjunct splitter all agree on. `α₀` is not a valid attribute
/// (1-based indexing); such a σ stays unfused so the per-element rule
/// surfaces the `AttrIndexZero` error instead of a fused rule
/// underflowing a field position.
pub fn equi_join_attrs(pred: &Pred, var: &Var) -> Option<(usize, usize)> {
    let attr_of = |e: &Expr| match e {
        Expr::Attr(inner, ix) => match inner.as_ref() {
            Expr::Var(name) if name == var => Some(*ix),
            _ => None,
        },
        _ => None,
    };
    match pred {
        Pred::Eq(a, b) => join::equi_attrs(attr_of(a)?, attr_of(b)?),
        _ => None,
    }
}

/// `π_I(L × R)` when every index of `I` falls on one side: the other side
/// only multiplies occurrences, so the product never needs enumerating —
/// `π_I(L × R) = scale(π_I(L), |R|)` (symmetrically for right-only
/// indices). Requires both sides to be uniform-arity tuple bags so the
/// split point is well-defined and the original's error behavior (a
/// non-tuple on either side fails the product) is preserved; returns
/// `None` to fall back to the streaming pair loop otherwise.
fn one_sided_projection(
    left: &Bag,
    right: &Bag,
    indices: &[usize],
) -> Result<Option<Bag>, EvalError> {
    let (Some(left_arity), Some(right_arity)) = (
        join::uniform_arity(left.pairs()),
        join::uniform_arity(right.pairs()),
    ) else {
        return Ok(None);
    };
    if indices.iter().all(|&ix| ix >= 1 && ix <= left_arity) {
        let projected = left.project(indices)?;
        return Ok(Some(projected.scale(&right.cardinality())));
    }
    if indices
        .iter()
        .all(|&ix| ix > left_arity && ix <= left_arity + right_arity)
    {
        let shifted: Vec<usize> = indices.iter().map(|&ix| ix - left_arity).collect();
        let projected = right.project(&shifted)?;
        return Ok(Some(projected.scale(&left.cardinality())));
    }
    Ok(None)
}

/// Apply a projection over the (virtual) concatenation of two tuple field
/// slices without allocating the concatenation.
fn project_pair(left: &[Value], right: &[Value], indices: &[usize]) -> Result<Value, EvalError> {
    let pick = |ix: usize| -> Result<&Value, EvalError> {
        let i = ix
            .checked_sub(1)
            .ok_or(EvalError::Bag(BagError::AttrIndexZero))?;
        if i < left.len() {
            Some(&left[i])
        } else {
            right.get(i - left.len())
        }
        .ok_or(EvalError::Bag(BagError::BadArity {
            index: ix,
            arity: left.len() + right.len(),
        }))
    };
    match indices[..] {
        [ix] => Ok(Value::Tuple(Arc::from([pick(ix)?.clone()]))),
        [i, j] => Ok(Value::Tuple(Arc::from([
            pick(i)?.clone(),
            pick(j)?.clone(),
        ]))),
        _ => {
            let mut out = Vec::with_capacity(indices.len());
            for &ix in indices {
                out.push(pick(ix)?.clone());
            }
            Ok(Value::Tuple(out.into()))
        }
    }
}

/// The short operator label a profile frame carries, matching the
/// algebra's rendered syntax ([`Expr`]'s `Display`).
fn node_label(expr: &Expr) -> String {
    match expr {
        Expr::Var(name) => format!("base {name}"),
        Expr::Lit(_) => "lit".to_owned(),
        Expr::AdditiveUnion(..) => "\u{222a}\u{207a}".to_owned(),
        Expr::Subtract(..) => "\u{2212}".to_owned(),
        Expr::MaxUnion(..) => "\u{222a}".to_owned(),
        Expr::Intersect(..) => "\u{2229}".to_owned(),
        Expr::Tuple(..) => "\u{3c4}".to_owned(),
        Expr::Singleton(..) => "\u{3b2}".to_owned(),
        Expr::Product(..) => "\u{d7}".to_owned(),
        Expr::Powerset(..) => "P".to_owned(),
        Expr::Powerbag(..) => "Pb".to_owned(),
        Expr::Attr(_, i) => format!("\u{3b1}{i}"),
        Expr::Destroy(..) => "\u{3b4}".to_owned(),
        Expr::Map { var, .. } => format!("MAP \u{3bb}{var}"),
        Expr::Select { var, .. } => format!("\u{3c3} \u{3bb}{var}"),
        Expr::Dedup(..) => "\u{3b5}".to_owned(),
        Expr::Ifp { var, .. } => format!("IFP \u{3bb}{var}"),
        Expr::Nest { group, .. } => format!(
            "nest[{}]",
            group
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn shape(expected: &'static str, found: &Value) -> EvalError {
    let mut rendered = found.to_string();
    if rendered.len() > 80 {
        rendered.truncate(77);
        rendered.push_str("...");
    }
    EvalError::Shape {
        expected,
        found: rendered,
    }
}

fn expect_bag(value: Value) -> Result<Bag, EvalError> {
    match value {
        Value::Bag(bag) => Ok(bag),
        other => Err(shape("a bag", &other)),
    }
}

/// Evaluate `expr` against `db` with default limits.
pub fn eval(expr: &Expr, db: &Database) -> Result<Value, EvalError> {
    Evaluator::new(db, Limits::default()).eval(expr)
}

/// Evaluate `expr` against `db` with default limits, requiring a bag.
pub fn eval_bag(expr: &Expr, db: &Database) -> Result<Bag, EvalError> {
    Evaluator::new(db, Limits::default()).eval_bag(expr)
}

/// Evaluate and return the metrics alongside the result.
pub fn eval_with_metrics(
    expr: &Expr,
    db: &Database,
    limits: Limits,
) -> (Result<Value, EvalError>, Metrics) {
    let mut evaluator = Evaluator::new(db, limits);
    let result = evaluator.eval(expr);
    (result, evaluator.metrics().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Pred};
    use crate::types::Type;
    use crate::value::Value;

    fn db_with(name: &str, bag: Bag) -> Database {
        Database::new().with(name, bag)
    }

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn var_resolves_to_database_bag() {
        let db = db_with("B", Bag::singleton(Value::sym("a")));
        let out = eval_bag(&Expr::var("B"), &db).unwrap();
        assert_eq!(out.cardinality(), nat(1));
        assert!(matches!(
            eval(&Expr::var("missing"), &db),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn section4_counting_query() {
        // Q(B) = π₁,₄(σ_{α₂=α₃}(B×B)) over n×[a,b] + m×[b,a]:
        // aa and bb each get n·m occurrences (paper's in-text table).
        let (n, m) = (5u64, 7u64);
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::tuple([Value::sym("a"), Value::sym("b")]), nat(n));
        b.insert_with_multiplicity(Value::tuple([Value::sym("b"), Value::sym("a")]), nat(m));
        let q = Expr::var("B")
            .product(Expr::var("B"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        let out = eval_bag(&q, &db_with("B", b)).unwrap();
        let aa = Value::tuple([Value::sym("a"), Value::sym("a")]);
        let bb = Value::tuple([Value::sym("b"), Value::sym("b")]);
        let ab = Value::tuple([Value::sym("a"), Value::sym("b")]);
        assert_eq!(out.multiplicity(&aa), nat(n * m));
        assert_eq!(out.multiplicity(&bb), nat(n * m));
        assert_eq!(out.multiplicity(&ab), nat(0));
    }

    #[test]
    fn map_evaluates_body_per_element() {
        let b = Bag::from_values([Value::int(1), Value::int(2)]);
        let q = Expr::var("B").map("x", Expr::var("x").singleton());
        let out = eval_bag(&q, &db_with("B", b)).unwrap();
        assert!(out.contains(&Value::bag([Value::int(1)])));
        assert_eq!(out.cardinality(), nat(2));
    }

    #[test]
    fn select_with_outer_reference() {
        // Elements of B equal to the whole of bag S — λ body reads both the
        // bound variable and another database bag.
        let b = Bag::from_values([Value::bag([Value::sym("a")]), Value::bag([Value::sym("b")])]);
        let s = Bag::from_values([Value::sym("a")]);
        let db = Database::new().with("B", b).with("S", s);
        let q = Expr::var("B").select("x", Pred::eq(Expr::var("x"), Expr::var("S")));
        let out = eval_bag(&q, &db).unwrap();
        assert_eq!(out.cardinality(), nat(1));
        assert!(out.contains(&Value::bag([Value::sym("a")])));
    }

    #[test]
    fn powerset_has_one_of_each_subbag() {
        let b = Bag::repeated(Value::sym("a"), 3u64);
        let out = eval_bag(&Expr::var("B").powerset(), &db_with("B", b)).unwrap();
        assert_eq!(out.cardinality(), nat(4));
        assert!(out.iter().all(|(_, m)| m.is_one()));
    }

    #[test]
    fn powerset_budget_enforced() {
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let b = Bag::from_values((0..5).map(Value::int)); // powerset = 32 > 8
        let db = db_with("B", b);
        let mut ev = Evaluator::new(&db, limits);
        assert!(matches!(
            ev.eval(&Expr::var("B").powerset()),
            Err(EvalError::Bag(BagError::TooLarge { .. }))
        ));
    }

    #[test]
    fn fused_join_enforces_element_limit_incrementally() {
        // Every tuple shares the join key, so the hash join would emit
        // |B|² = 25 result tuples; with a budget of 8 it must stop at the
        // cap, not materialize everything and fail only at observe time.
        let b = Bag::from_values((0..5).map(|i| Value::tuple([Value::sym("k"), Value::int(i)])));
        let q = Expr::var("B").product(Expr::var("B")).select(
            "x",
            Pred::eq(Expr::var("x").attr(1), Expr::var("x").attr(3)),
        );
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let db = db_with("B", b);
        let mut ev = Evaluator::new(&db, limits);
        assert!(matches!(
            ev.eval(&q),
            Err(EvalError::ElementLimit { limit: 8, .. })
        ));
        // The π-over-× streaming path hits the same guard.
        let wide = Bag::from_values((0..5).map(|i| Value::tuple([Value::int(i)])));
        let q2 = Expr::var("B").product(Expr::var("B")).project(&[1, 2]);
        let limits = Limits {
            max_bag_elements: 8,
            ..Limits::default()
        };
        let db = db_with("B", wide);
        let mut ev = Evaluator::new(&db, limits);
        assert!(matches!(
            ev.eval(&q2),
            Err(EvalError::ElementLimit { limit: 8, .. })
        ));
    }

    #[test]
    fn empty_tuple_map_body_is_not_a_projection() {
        // Regression: `λx.[]` never inspects `x`, so it must map atoms
        // (and any other non-tuple elements) to the empty tuple instead
        // of being misclassified as a projection that demands tuples.
        let b = Bag::from_counted([(Value::sym("a"), nat(2)), (Value::sym("b"), nat(1))]);
        let db = db_with("B", b);
        let q = Expr::var("B").map("x", Expr::Tuple(vec![]));
        let out = eval_bag(&q, &db).unwrap();
        assert_eq!(out.multiplicity(&Value::tuple([])), nat(3));
    }

    #[test]
    fn attr_index_zero_is_rejected_explicitly() {
        // Regression: `α₀` must fail as a 1-based-indexing error on both
        // the λ-bound fast path and the generic path, not as a misleading
        // BadArity produced by a wrapping subtraction.
        let b = Bag::from_values([Value::tuple([Value::sym("a"), Value::sym("b")])]);
        let db = db_with("B", b);
        let fast = Expr::var("B").map("x", Expr::var("x").attr(0));
        assert!(matches!(
            eval(&fast, &db),
            Err(EvalError::Bag(BagError::AttrIndexZero))
        ));
        // A tuple literal exercises the generic path directly.
        let lit = Expr::Attr(Box::new(Expr::lit(Value::tuple([Value::sym("a")]))), 0);
        assert!(matches!(
            eval(&lit, &db),
            Err(EvalError::Bag(BagError::AttrIndexZero))
        ));
    }

    #[test]
    fn step_budget_enforced() {
        let limits = Limits {
            max_steps: 3,
            ..Limits::default()
        };
        let db = db_with("B", Bag::from_values((0..100).map(Value::int)));
        let q = Expr::var("B").map("x", Expr::var("x").singleton());
        let mut ev = Evaluator::new(&db, limits);
        assert!(matches!(ev.eval(&q), Err(EvalError::StepLimit(3))));
    }

    #[test]
    fn shape_errors_are_reported() {
        let db = db_with("B", Bag::singleton(Value::sym("a")));
        // δ over a bag of atoms.
        assert!(matches!(
            eval(&Expr::var("B").destroy(), &db),
            Err(EvalError::Bag(BagError::NotABag(_)))
        ));
        // α on a bag value.
        assert!(matches!(
            eval(&Expr::var("B").attr(1), &db),
            Err(EvalError::Shape { .. })
        ));
    }

    #[test]
    fn ifp_transitive_closure() {
        // Transitive closure of a path graph via IFP:
        // step(B) = π_{1,4}(σ_{α₂=α₃}(B × G)) joined into B.
        let g = Bag::from_values(
            [("a", "b"), ("b", "c"), ("c", "d")]
                .iter()
                .map(|(x, y)| Value::tuple([Value::sym(x), Value::sym(y)])),
        );
        let step = Expr::var("T")
            .product(Expr::var("G"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4])
            .dedup();
        let q = Expr::var("G").ifp("T", step);
        let out = eval_bag(&q, &db_with("G", g)).unwrap();
        assert!(out.contains(&Value::tuple([Value::sym("a"), Value::sym("d")])));
        assert_eq!(out.distinct_count(), 6); // 3 edges + ac, bd, ad
    }

    #[test]
    fn ifp_divergence_hits_budget() {
        // A step that keeps inflating multiplicities... max-union with a
        // growing product never stabilizes within a tiny budget.
        let limits = Limits {
            max_ifp_iterations: 4,
            ..Limits::default()
        };
        let b = Bag::singleton(Value::tuple([Value::sym("a")]));
        let db = db_with("B", b);
        // step(X) = X ∪⁺ X has strictly growing multiplicities, and
        // max-union with X keeps the larger — never converges.
        let q = Expr::var("B").ifp("X", Expr::var("X").additive_union(Expr::var("X")));
        let mut ev = Evaluator::new(&db, limits);
        assert!(matches!(ev.eval(&q), Err(EvalError::IfpLimit(4))));
    }

    #[test]
    fn metrics_track_multiplicity_growth() {
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::tuple([Value::sym("a")]), nat(10));
        let db = db_with("B", b);
        let q = Expr::var("B").product(Expr::var("B")); // multiplicities 100
        let (result, metrics) = eval_with_metrics(&q, &db, Limits::default());
        result.unwrap();
        assert_eq!(metrics.max_multiplicity, nat(100));
        assert!(metrics.steps >= 3);
    }

    #[test]
    fn dedup_and_lit() {
        let db = Database::new();
        let q = Expr::bag_lit([Value::sym("a"), Value::sym("a"), Value::sym("b")]).dedup();
        let out = eval_bag(&q, &db).unwrap();
        assert_eq!(out.cardinality(), nat(2));
    }

    #[test]
    fn order_predicates_compare_values() {
        let b = Bag::from_values((0..5).map(|i| Value::tuple([Value::int(i)])));
        let db = db_with("B", b);
        let q = Expr::var("B").select(
            "x",
            Pred::lt(Expr::var("x").attr(1), Expr::lit(Value::int(2))),
        );
        let out = eval_bag(&q, &db).unwrap();
        assert_eq!(out.cardinality(), nat(2));
    }

    #[test]
    fn type_checked_example_roundtrip() {
        // An end-to-end sanity check that evaluation respects declared types.
        let b = Bag::from_values([Value::tuple([Value::sym("a"), Value::sym("b")])]);
        let db = db_with("B", b);
        let q = Expr::var("B").project(&[2, 1]);
        let out = eval_bag(&q, &db).unwrap();
        let ty = Value::Bag(out).infer_type().unwrap();
        assert_eq!(ty, Type::relation(2));
    }
}
