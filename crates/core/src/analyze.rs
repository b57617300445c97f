//! Static analysis of BALG expressions: one abstract-interpretation pass
//! computing, per subexpression, the facts every other layer consumes.
//!
//! The source paper's central observation is that tractability of the bag
//! algebra is a *static* property of an expression — which operators it
//! composes — not of the data it runs on. This module turns that
//! observation into a reusable pass over [`Expr`] that, given a
//! [`Schema`], derives five kinds of facts. The typed pass (the only
//! function in the workspace that walks an [`Expr`] to infer a [`Type`])
//! computes 1, 2, 4 and 5 in a single traversal; 3 and the schema-less
//! set-ness lattice are separate purely syntactic walkers.
//!
//! 1. **Shape/type inference** — the output [`Type`], tuple arities and
//!    bag nesting of every subexpression. Out-of-bounds `αᵢ`, the always
//!    invalid `α₀`, and arity mismatches are rejected *statically* with
//!    precise diagnostics ([`AnalyzeError`]) instead of surfacing as
//!    runtime `BagError`s mid-evaluation.
//! 2. **Set-ness certificates** — duplicate-freeness of the output bag,
//!    derived from the lattice the Proposition 4.2 embedding used to
//!    reason about locally: on duplicate-free inputs `∪` (max), `∩`, `−`
//!    (monus), `β`, `σ`, `ε`, `nest`, `P`, and even `P_b` (binomial
//!    weights `C(1, j) = 1`) produce duplicate-free outputs, while `∪⁺`,
//!    `×` (unless both element arities are statically known — uniform
//!    concatenation is injective), `MAP` (images can collide), and `δ`
//!    (inner bags can overlap) can manufacture duplicates.
//! 3. **Per-base linearity** — how the result depends on each database
//!    bag: [`Linearity::Unread`], [`Linearity::Linear`] (deltas propagate
//!    additively), [`Linearity::Bilinear`] (through one side of a `×` or
//!    equi-join), or [`Linearity::NonLinear`] (a non-linear operator or a
//!    λ body reads the base — the *affected-body* condition the
//!    incremental engine falls back on). The certificate is one-way: a
//!    base rated ≤ bilinear never makes `balg-incremental` re-derive an
//!    operator (`View::maintain` asserts it in debug builds, and the
//!    linearity differential on random update streams). A base rated
//!    non-linear may still be maintained in delta form — `ε`, `∸`, `∪`
//!    and `∩` have a pointwise delta rule.
//! 4. **Tractability class** — a polynomial degree bound when the
//!    expression composes only the PTIME operators, or a static
//!    `TooLarge`-risk classification ([`CostClass::Exponential`] /
//!    [`CostClass::HyperExponential`]) when powerset, powerbag, or an
//!    unbounded fixpoint can blow up (Sections 5–6 of the paper).
//! 5. **Fragment** — the structural parameters the paper's hierarchy
//!    results are phrased in: the *bag nesting* of every intermediate type
//!    (membership in BALGᵏ, Sections 4–6; BALG¹ additionally requires
//!    every type to be *strictly unnested*, `U^k` or `⟦U^k⟧`), the *power
//!    nesting* (the maximal number of `P`/`P_b` on a root-to-leaf path,
//!    defining the classes BALGᵏᵢ of Theorem 6.2), and which operators
//!    outside the core algebra (`P_b`, `IFP`, `nest`, order predicates)
//!    occur, so experiments can state exactly which fragment a query
//!    lives in.
//!
//! The "cannot error" certificate ([`Facts::cannot_error`]) covers the
//! *shape* errors (`BagError`, unbound variables): when every inferred
//! type is concrete, evaluation on a schema-conforming database can only
//! fail by exceeding a resource budget, never with a shape error.
//! Soundness of all five fact families is gated by the differential
//! proptest in `tests/analyze_differential.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::ControlFlow;

use crate::expr::{Expr, Pred, Var};
use crate::schema::Schema;
use crate::types::Type;
use crate::value::Value;

/// A static type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A variable is neither λ-bound nor declared in the schema.
    UnboundVariable(Var),
    /// A bag operation was applied to a non-bag type.
    NotABag(Type),
    /// Cartesian product requires bags of tuples.
    NotATupleBag(Type),
    /// Attribute projection on a non-tuple type or out-of-range index.
    BadAttribute {
        /// 1-based requested index.
        index: usize,
        /// The offending type.
        ty: Type,
    },
    /// Two sides of a union/difference/comparison have incompatible types.
    Incompatible(Type, Type),
    /// `δ` applied to a bag whose elements are not bags.
    DestroyNeedsNestedBag(Type),
    /// A literal value is not homogeneous (has no type).
    IllTypedLiteral,
    /// IFP body type incompatible with its accumulator.
    IfpBodyMismatch(Type, Type),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(name) => write!(f, "unbound variable {name}"),
            TypeError::NotABag(ty) => write!(f, "expected a bag type, got {ty}"),
            TypeError::NotATupleBag(ty) => {
                write!(f, "cartesian product needs a bag of tuples, got {ty}")
            }
            TypeError::BadAttribute { index, ty } => {
                write!(f, "attribute α{index} invalid for type {ty}")
            }
            TypeError::Incompatible(a, b) => write!(f, "incompatible types {a} and {b}"),
            TypeError::DestroyNeedsNestedBag(ty) => {
                write!(f, "δ needs a bag of bags, got {ty}")
            }
            TypeError::IllTypedLiteral => f.write_str("heterogeneous literal bag has no type"),
            TypeError::IfpBodyMismatch(a, b) => {
                write!(f, "IFP body type {a} incompatible with accumulator {b}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Why an expression is statically rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// Attribute projection `α₀`: indices are 1-based, so `α₀` errors on
    /// every input regardless of its type.
    AttrIndexZero,
    /// A shape/type error (arity mismatch, out-of-bounds attribute,
    /// operator applied to the wrong shape, unbound variable).
    Type(TypeError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::AttrIndexZero => {
                f.write_str("attribute α0 is invalid: attribute indices are 1-based")
            }
            AnalyzeError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<TypeError> for AnalyzeError {
    fn from(e: TypeError) -> AnalyzeError {
        AnalyzeError::Type(e)
    }
}

/// How the result of an expression depends on one database bag.
///
/// Ordered by "how much work an update to the base costs": deltas to a
/// [`Linearity::Linear`] or [`Linearity::Bilinear`] base propagate as
/// linear delta operations in the incremental engine; a
/// [`Linearity::NonLinear`] base forces operator recomputation somewhere
/// on the path to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Linearity {
    /// The base does not occur free in the expression.
    Unread,
    /// Every path from the base to the root passes only through
    /// delta-additive operators (`∪⁺`, `MAP`/`σ` with unaffected bodies,
    /// `δ`).
    Linear,
    /// The base feeds a Cartesian product or equi-join; deltas still
    /// propagate without recomputation (`Δ(A×B) = ΔA×B ∪⁺ A×ΔB ∪⁺
    /// ΔA×ΔB`).
    Bilinear,
    /// Some path passes through a non-linear operator (`−`, `∪`, `∩`,
    /// `ε`, `P`, `P_b`, `nest`, `IFP`, a scalar constructor) or the base
    /// is read inside a λ body — the affected-body condition.
    NonLinear,
}

impl fmt::Display for Linearity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Linearity::Unread => "unread",
            Linearity::Linear => "linear",
            Linearity::Bilinear => "bilinear",
            Linearity::NonLinear => "non-linear",
        })
    }
}

/// The asymptotic size/time class of an expression in the size of its
/// database inputs — the paper's tractability parameter, made static.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Output size and evaluation time are `O(n^d)` for the given degree
    /// bound `d`.
    Polynomial(usize),
    /// A powerset (or unbounded fixpoint) can produce exponentially many
    /// elements — a static `TooLarge` risk.
    Exponential,
    /// Powerbag output (`2^|B|` counting multiplicities, Definition 5.1)
    /// or nested power operators — hyper-exponential blowup.
    HyperExponential,
}

impl CostClass {
    /// `true` when evaluation can exceed any polynomial bound — the
    /// static `TooLarge`-risk warning surfaced by `:analyze` and the SQL
    /// `CREATE VIEW` gate.
    pub fn blowup_risk(&self) -> bool {
        !matches!(self, CostClass::Polynomial(_))
    }

    fn max(self, other: CostClass) -> CostClass {
        match (self, other) {
            (CostClass::HyperExponential, _) | (_, CostClass::HyperExponential) => {
                CostClass::HyperExponential
            }
            (CostClass::Exponential, _) | (_, CostClass::Exponential) => CostClass::Exponential,
            (CostClass::Polynomial(a), CostClass::Polynomial(b)) => CostClass::Polynomial(a.max(b)),
        }
    }

    fn add_degree(self, other: CostClass) -> CostClass {
        match (self, other) {
            (CostClass::Polynomial(a), CostClass::Polynomial(b)) => CostClass::Polynomial(a + b),
            _ => self.max(other),
        }
    }

    /// The class after one powerset on top of `self`.
    fn powered(self) -> CostClass {
        match self {
            CostClass::Polynomial(_) => CostClass::Exponential,
            _ => CostClass::HyperExponential,
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostClass::Polynomial(d) => write!(f, "polynomial (degree ≤ {d})"),
            CostClass::Exponential => f.write_str("exponential"),
            CostClass::HyperExponential => f.write_str("hyper-exponential"),
        }
    }
}

/// The facts the analyzer certifies about one expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    /// The inferred output type.
    pub ty: Type,
    /// `true` when the output bag is certified duplicate-free (every
    /// multiplicity exactly one). Vacuously `true` for non-bag outputs.
    pub duplicate_free: bool,
    /// `true` when evaluation on a schema-conforming database cannot
    /// raise a shape error (unbound variable, `BagError`, wrong-shape
    /// operand) — only resource budgets can stop it.
    pub cannot_error: bool,
    /// The tractability class.
    pub cost: CostClass,
    /// Per-base linearity, for every base in the schema that occurs free
    /// (absent bases are [`Linearity::Unread`]).
    pub linearity: BTreeMap<Var, Linearity>,
    /// Bases read inside some λ body or predicate — the affected-body
    /// condition that forces the incremental engine to recompute the
    /// enclosing `MAP`/`σ`/`IFP`.
    pub lambda_affected: BTreeSet<Var>,
    /// Maximal bag nesting over every intermediate type (inputs included).
    pub max_bag_nesting: usize,
    /// `true` iff every intermediate type is `U^k` or `⟦U^k⟧` — the BALG¹
    /// typing discipline of Section 4.
    pub strictly_unnested: bool,
    /// Maximal number of `P`/`P_b` on a root-to-leaf path (the power
    /// nesting `i` of BALGᵏᵢ, Theorem 6.2).
    pub power_nesting: usize,
    /// Uses the powerbag extension (Definition 5.1).
    pub uses_powerbag: bool,
    /// Uses the inflationary fixpoint extension (Section 6).
    pub uses_ifp: bool,
    /// Uses order predicates `<`/`≤` on the domain.
    pub uses_order: bool,
    /// Uses duplicate elimination `ε` (relevant to Proposition 4.1).
    pub uses_dedup: bool,
    /// Uses subtraction `−` (relevant to Propositions 4.1–4.3).
    pub uses_subtract: bool,
    /// Uses powerset `P`.
    pub uses_powerset: bool,
    /// Uses the nest extension (\[PG88\], Conclusion).
    pub uses_nest: bool,
}

impl Facts {
    /// The linearity class of `base` ([`Linearity::Unread`] when absent).
    pub fn linearity_of(&self, base: &str) -> Linearity {
        self.linearity
            .get(base)
            .copied()
            .unwrap_or(Linearity::Unread)
    }

    /// The smallest `k` such that the expression is in BALGᵏ. By the
    /// Section 4 convention, level 1 additionally demands strictly
    /// unnested types.
    pub fn balg_level(&self) -> usize {
        if self.max_bag_nesting <= 1 && self.strictly_unnested {
            1
        } else {
            self.max_bag_nesting.max(2)
        }
    }

    /// `true` iff the expression is in BALGᵏ (and uses no extensions).
    pub fn in_balg(&self, k: usize) -> bool {
        self.is_core_balg() && self.balg_level() <= k
    }

    /// `true` iff only the paper's core BALG operations are used (no
    /// powerbag, no IFP, no nest, no order predicates).
    pub fn is_core_balg(&self) -> bool {
        !self.uses_powerbag && !self.uses_ifp && !self.uses_order && !self.uses_nest
    }
}

/// Analyze `expr` against `schema`: full type inference plus set-ness,
/// fragment, linearity, and tractability facts.
pub fn analyze(expr: &Expr, schema: &Schema) -> Result<Facts, AnalyzeError> {
    let mut pass = Pass::new(schema);
    let node = pass.infer(expr)?;
    Ok(Facts {
        ty: node.ty,
        duplicate_free: node.set,
        cannot_error: pass.all_concrete,
        cost: node.cost,
        linearity: base_linearity(expr),
        lambda_affected: lambda_affected(expr),
        max_bag_nesting: pass.max_bag_nesting,
        strictly_unnested: pass.strictly_unnested,
        power_nesting: pass.power_nesting,
        uses_powerbag: pass.uses_powerbag,
        uses_ifp: pass.uses_ifp,
        uses_order: pass.uses_order,
        uses_dedup: pass.uses_dedup,
        uses_subtract: pass.uses_subtract,
        uses_powerset: pass.uses_powerset,
        uses_nest: pass.uses_nest,
    })
}

/// Infer only the output type of `expr` under `schema`: the typed pass
/// alone, without the per-base linearity walks [`analyze`] adds.
pub fn infer_type(expr: &Expr, schema: &Schema) -> Result<Type, AnalyzeError> {
    Ok(Pass::new(schema).infer(expr)?.ty)
}

/// Syntactic duplicate-freeness: the set-ness lattice without type
/// information, usable where no [`Schema`] is available (the
/// Proposition 4.2 embedding builds expressions bottom-up and seals each
/// relation-valued node with `ε` exactly when this returns `false`).
///
/// Sound but weaker than [`analyze`]: without element arities a `×` of
/// two sets cannot be certified (mixed-arity concatenations can
/// collide).
pub fn certified_duplicate_free(expr: &Expr) -> bool {
    set_like(expr, &mut Vec::new())
}

/// Like [`certified_duplicate_free`], with the named variables assumed
/// duplicate-free — the hook for callers that maintain a set invariant
/// the lattice cannot see, such as the Proposition 4.2 embedding, whose
/// λ-bound values are drawn from deeply deduplicated databases.
pub fn certified_duplicate_free_assuming(expr: &Expr, set_vars: &[Var]) -> bool {
    let mut env: Vec<(Var, bool)> = set_vars.iter().map(|v| (v.clone(), true)).collect();
    set_like(expr, &mut env)
}

fn set_like(expr: &Expr, set_env: &mut Vec<(Var, bool)>) -> bool {
    match expr {
        // Database bags carry arbitrary multiplicities; λ-bound values
        // look up the set-ness their binder established.
        Expr::Var(name) => set_env
            .iter()
            .rev()
            .find(|(bound, _)| bound == name)
            .is_some_and(|(_, set)| *set),
        Expr::Lit(value) => match value {
            Value::Bag(bag) => bag.iter().all(|(_, mult)| mult.is_one()),
            // Non-bag constants are vacuously duplicate-free.
            _ => true,
        },
        // 1 + 1 = 2: additive union manufactures duplicates.
        Expr::AdditiveUnion(_, _) => false,
        // sup(1, 1) = 1.
        Expr::MaxUnion(a, b) => set_like(a, set_env) && set_like(b, set_env),
        // inf(m, 1) ≤ 1: either side being a set suffices.
        Expr::Intersect(a, b) => set_like(a, set_env) || set_like(b, set_env),
        // Monus never raises a multiplicity: the left side alone decides.
        Expr::Subtract(a, _) => set_like(a, set_env),
        // Objects, not bags: vacuously duplicate-free.
        Expr::Tuple(_) | Expr::Attr(_, _) => true,
        // β(o) = ⟦o⟧ — one element, once.
        Expr::Singleton(_) => true,
        // Without arity information, ⟦[a]⟧ × ⟦[b,c]⟧ and ⟦[a,b]⟧ × ⟦[c]⟧
        // both concatenate to [a,b,c]; the typed analyzer sharpens this.
        Expr::Product(_, _) => false,
        // Each distinct subbag occurs exactly once in P(B).
        Expr::Powerset(_) => true,
        // P_b weights subbags by Π C(mᵢ, jᵢ), which is 1 whenever every
        // mᵢ = 1 — the powerbag of a set is a set (Definition 5.1).
        Expr::Powerbag(e) => set_like(e, set_env),
        // Inner bags can overlap: δ(⟦⟦a⟧, ⟦a⟧⟧) = ⟦a²⟧.
        Expr::Destroy(_) => false,
        // Distinct elements can map to one image.
        Expr::Map { .. } => false,
        // Selection only drops occurrences.
        Expr::Select { input, .. } => set_like(input, set_env),
        Expr::Dedup(_) => true,
        // Each group key appears exactly once.
        Expr::Nest { .. } => true,
        // T(B) = body(B) ∪ B is max-union: a set seed whose body maps
        // sets to sets stays a set at every iteration.
        Expr::Ifp { var, body, input } => {
            let seed = set_like(input, set_env);
            set_env.push((var.clone(), seed));
            let preserved = set_like(body, set_env);
            set_env.pop();
            seed && preserved
        }
    }
}

/// Per-base linearity classification, purely syntactic (no schema): how
/// an update to each free base propagates through the expression. The
/// certificate is one-way: a base classified
/// [`Linearity::Linear`]/[`Linearity::Bilinear`] never triggers an
/// operator re-derivation in the incremental engine, while a
/// [`Linearity::NonLinear`] one may still be maintained in delta form.
pub fn base_linearity(expr: &Expr) -> BTreeMap<Var, Linearity> {
    classify(expr, &mut Vec::new())
}

/// Can `IFP[λvar.body]` iterate on the tuples the previous round added
/// instead of on the whole accumulator? Yes when `body = ε(f)`, `var`
/// stays unbound in `f` and classifies [`Linearity::Linear`] or
/// [`Linearity::Bilinear`] there, and is read exactly once: the path from
/// `ε` to `var` then passes only `σ`/`MAP` that do not read `var`, `×`/`∪⁺`
/// with a `var`-free other operand, and `δ`, so
/// `supp f(A ∪ B) = supp f(A) ∪ supp f(B)`, and under `ε` only the support
/// counts: `T ∪ ε(f(T)) = T ∪ ε(f(Δ))` for `Δ` what the last round added.
/// Without the outer `ε` multiplicities count derivations; read twice
/// (`T × T`, `T ∪⁺ T`) a derivation can pair two old tuples with a new one.
///
/// The evaluator's `IFP` loop binds its variable by this verdict and
/// `:analyze` prints it ([`render_report`]).
pub fn ifp_delta_form(var: &Var, body: &Expr) -> bool {
    let Expr::Dedup(f) = body else {
        return false;
    };
    // The cheap count first: most bodies that fail, fail it.
    linear_reads(f, var) == 1
        && matches!(
            base_linearity(f).get(var),
            Some(Linearity::Linear | Linearity::Bilinear)
        )
}

/// How often `expr` reads `var` along linear paths. For a `var` that
/// [`classify`] rates at most [`Linearity::Bilinear`] that is every free
/// occurrence: anywhere but under the operators descended here it would
/// be non-linear.
fn linear_reads(expr: &Expr, var: &Var) -> usize {
    match expr {
        Expr::Var(name) => usize::from(name == var),
        Expr::AdditiveUnion(a, b) | Expr::Product(a, b) => {
            linear_reads(a, var) + linear_reads(b, var)
        }
        Expr::Destroy(e) => linear_reads(e, var),
        Expr::Map { input, .. } | Expr::Select { input, .. } => linear_reads(input, var),
        _ => 0,
    }
}

/// The bases read inside some λ body or selection/fixpoint predicate —
/// updates to them leave delta form and force body recomputation.
pub fn lambda_affected(expr: &Expr) -> BTreeSet<Var> {
    /// `bound` holds the binders enclosing `expr`: one per λ it sits in.
    fn go<'a>(expr: &'a Expr, bound: &mut Vec<&'a Var>, out: &mut BTreeSet<Var>) {
        if let Expr::Var(name) = expr {
            if !bound.is_empty() && !bound.contains(&name) {
                out.insert(name.clone());
            }
        }
        let _ = expr.try_for_each_child(|child, var| {
            let depth = bound.len();
            bound.extend(var);
            go(child, bound, out);
            bound.truncate(depth);
            ControlFlow::<()>::Continue(())
        });
    }
    let mut out = BTreeSet::new();
    go(expr, &mut Vec::new(), &mut out);
    out
}

/// Free variables of `expr` that are bases: not in `bound` and not the
/// extra binder `var`.
fn free_with(expr: &Expr, bound: &[Var], var: &Var) -> Vec<Var> {
    expr.free_vars()
        .into_iter()
        .filter(|name| name != var && !bound.contains(name))
        .collect()
}

fn classify(expr: &Expr, bound: &mut Vec<Var>) -> BTreeMap<Var, Linearity> {
    match expr {
        Expr::Var(name) => {
            let mut map = BTreeMap::new();
            if !bound.contains(name) {
                map.insert(name.clone(), Linearity::Linear);
            }
            map
        }
        Expr::Lit(_) => BTreeMap::new(),
        // Δ(a ∪⁺ b) = Δa ∪⁺ Δb: linearity preserved on both sides.
        Expr::AdditiveUnion(a, b) => join(classify(a, bound), classify(b, bound)),
        // Monus, max and min are not delta-additive, so they rate
        // non-linear; the engine still maintains them pointwise, which
        // the one-way certificate allows.
        Expr::Subtract(a, b) | Expr::MaxUnion(a, b) | Expr::Intersect(a, b) => {
            saturate(join(classify(a, bound), classify(b, bound)))
        }
        // Scalar constructors recompute from scratch on any change.
        Expr::Tuple(fields) => {
            let mut map = BTreeMap::new();
            for field in fields {
                map = join(map, classify(field, bound));
            }
            saturate(map)
        }
        Expr::Singleton(e) | Expr::Attr(e, _) => saturate(classify(e, bound)),
        // Δ(a × b) = Δa×b ∪⁺ a×Δb ∪⁺ Δa×Δb: still delta form, but the
        // delta pairs with the *other* side's snapshot — bilinear.
        Expr::Product(a, b) => {
            let map = join(classify(a, bound), classify(b, bound));
            map.into_iter()
                .map(|(base, class)| {
                    let class = if class <= Linearity::Bilinear {
                        Linearity::Bilinear
                    } else {
                        Linearity::NonLinear
                    };
                    (base, class)
                })
                .collect()
        }
        Expr::Powerset(e) | Expr::Powerbag(e) | Expr::Dedup(e) => saturate(classify(e, bound)),
        // δ distributes over ∪⁺: deltas pass straight through.
        Expr::Destroy(e) => classify(e, bound),
        Expr::Map { var, body, input } => {
            let mut map = classify(input, bound);
            // The affected-body condition: a base read inside the λ body
            // changes the *function* being mapped, not just its input.
            for base in free_with(body, bound, var) {
                map.insert(base, Linearity::NonLinear);
            }
            map
        }
        Expr::Select { var, pred, input } => {
            let mut map = classify(input, bound);
            let mut affected = Vec::new();
            pred.visit_exprs(&mut |e| affected.extend(free_with(e, bound, var)));
            for base in affected {
                map.insert(base, Linearity::NonLinear);
            }
            map
        }
        Expr::Nest { input, .. } => saturate(classify(input, bound)),
        Expr::Ifp { var, body, input } => {
            let mut map = saturate(classify(input, bound));
            for base in free_with(body, bound, var) {
                map.insert(base, Linearity::NonLinear);
            }
            map
        }
    }
}

fn join(mut a: BTreeMap<Var, Linearity>, b: BTreeMap<Var, Linearity>) -> BTreeMap<Var, Linearity> {
    for (base, class) in b {
        let entry = a.entry(base).or_insert(Linearity::Unread);
        *entry = (*entry).max(class);
    }
    a
}

fn saturate(map: BTreeMap<Var, Linearity>) -> BTreeMap<Var, Linearity> {
    map.into_keys()
        .map(|base| (base, Linearity::NonLinear))
        .collect()
}

/// Per-node result of the typed pass: output type, set-ness under the
/// typed (arity-sharpened) lattice, and cost class.
struct Node {
    ty: Type,
    set: bool,
    cost: CostClass,
}

struct Pass<'a> {
    schema: &'a Schema,
    /// λ environment: binder, element type, element set-ness.
    env: Vec<(Var, Type, bool)>,
    /// Every type inferred so far (λ bindings included) is concrete —
    /// the precondition of the "cannot error" certificate.
    all_concrete: bool,
    max_bag_nesting: usize,
    strictly_unnested: bool,
    /// `P`/`P_b` operators enclosing the node being inferred; its maximum
    /// over the walk is the power nesting.
    power_depth: usize,
    power_nesting: usize,
    uses_powerbag: bool,
    uses_ifp: bool,
    uses_order: bool,
    uses_dedup: bool,
    uses_subtract: bool,
    uses_powerset: bool,
    uses_nest: bool,
}

impl<'a> Pass<'a> {
    fn new(schema: &'a Schema) -> Pass<'a> {
        Pass {
            schema,
            env: Vec::new(),
            all_concrete: true,
            max_bag_nesting: 0,
            strictly_unnested: true,
            power_depth: 0,
            power_nesting: 0,
            uses_powerbag: false,
            uses_ifp: false,
            uses_order: false,
            uses_dedup: false,
            uses_subtract: false,
            uses_powerset: false,
            uses_nest: false,
        }
    }

    fn observe(&mut self, ty: &Type) {
        self.all_concrete = self.all_concrete && ty.is_concrete();
        self.strictly_unnested = self.strictly_unnested && ty.is_unnested();
        self.max_bag_nesting = self.max_bag_nesting.max(ty.bag_nesting());
    }

    /// Infer the operand of a `P`/`P_b`, one power level deeper.
    fn infer_powered(&mut self, operand: &Expr) -> Result<Node, AnalyzeError> {
        self.power_depth += 1;
        self.power_nesting = self.power_nesting.max(self.power_depth);
        let node = self.infer(operand)?;
        self.power_depth -= 1;
        require_bag(&node.ty)?;
        Ok(node)
    }

    fn infer(&mut self, expr: &Expr) -> Result<Node, AnalyzeError> {
        let node = match expr {
            Expr::Var(name) => {
                let bound = self
                    .env
                    .iter()
                    .rev()
                    .find(|(bound, _, _)| bound == name)
                    .map(|(_, ty, set)| (ty.clone(), *set));
                match bound {
                    Some((ty, set)) => Node {
                        ty,
                        set,
                        cost: CostClass::Polynomial(1),
                    },
                    None => {
                        let ty = self
                            .schema
                            .get(name)
                            .cloned()
                            .ok_or_else(|| TypeError::UnboundVariable(name.clone()))?;
                        Node {
                            ty,
                            // Database bags carry arbitrary multiplicities.
                            set: false,
                            cost: CostClass::Polynomial(1),
                        }
                    }
                }
            }
            Expr::Lit(value) => {
                let ty = value.infer_type().ok_or(TypeError::IllTypedLiteral)?;
                let set = match value {
                    Value::Bag(bag) => bag.iter().all(|(_, mult)| mult.is_one()),
                    _ => true,
                };
                Node {
                    ty,
                    set,
                    cost: CostClass::Polynomial(0),
                }
            }
            Expr::AdditiveUnion(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let ty = unify_bags(&na.ty, &nb.ty)?;
                Node {
                    ty,
                    set: false,
                    cost: na.cost.max(nb.cost),
                }
            }
            Expr::MaxUnion(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let ty = unify_bags(&na.ty, &nb.ty)?;
                Node {
                    ty,
                    set: na.set && nb.set,
                    cost: na.cost.max(nb.cost),
                }
            }
            Expr::Intersect(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let ty = unify_bags(&na.ty, &nb.ty)?;
                Node {
                    ty,
                    set: na.set || nb.set,
                    cost: na.cost.max(nb.cost),
                }
            }
            Expr::Subtract(a, b) => {
                self.uses_subtract = true;
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let ty = unify_bags(&na.ty, &nb.ty)?;
                Node {
                    ty,
                    set: na.set,
                    cost: na.cost.max(nb.cost),
                }
            }
            Expr::Tuple(fields) => {
                let mut tys = Vec::with_capacity(fields.len());
                let mut cost = CostClass::Polynomial(0);
                for field in fields {
                    let node = self.infer(field)?;
                    tys.push(node.ty);
                    cost = cost.max(node.cost);
                }
                Node {
                    ty: Type::Tuple(tys),
                    set: true,
                    cost,
                }
            }
            Expr::Singleton(e) => {
                let node = self.infer(e)?;
                Node {
                    ty: Type::bag(node.ty),
                    set: true,
                    cost: node.cost,
                }
            }
            Expr::Product(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let elem = product_element(&na.ty, &nb.ty)?;
                // With both element arities statically known, tuple
                // concatenation is injective: a product of sets is a set.
                let arities_known = matches!(na.ty.element(), Some(Type::Tuple(_)))
                    && matches!(nb.ty.element(), Some(Type::Tuple(_)));
                Node {
                    ty: Type::bag(elem),
                    set: na.set && nb.set && arities_known,
                    cost: na.cost.add_degree(nb.cost),
                }
            }
            Expr::Powerset(e) => {
                self.uses_powerset = true;
                let node = self.infer_powered(e)?;
                Node {
                    ty: Type::bag(node.ty),
                    set: true,
                    cost: node.cost.powered(),
                }
            }
            Expr::Powerbag(e) => {
                self.uses_powerbag = true;
                let node = self.infer_powered(e)?;
                Node {
                    ty: Type::bag(node.ty),
                    set: node.set,
                    // 2^|B| counting multiplicities (Definition 5.1):
                    // hyper-exponential in the representation size.
                    cost: CostClass::HyperExponential,
                }
            }
            Expr::Attr(e, index) => {
                if *index == 0 {
                    return Err(AnalyzeError::AttrIndexZero);
                }
                let node = self.infer(e)?;
                let ty = match &node.ty {
                    Type::Tuple(fields) => {
                        fields
                            .get(*index - 1)
                            .cloned()
                            .ok_or(TypeError::BadAttribute {
                                index: *index,
                                ty: node.ty.clone(),
                            })?
                    }
                    Type::Unknown => Type::Unknown,
                    other => {
                        return Err(AnalyzeError::Type(TypeError::BadAttribute {
                            index: *index,
                            ty: other.clone(),
                        }))
                    }
                };
                // A projected field of bag type has unknown multiplicities.
                let set = !matches!(ty, Type::Bag(_) | Type::Unknown);
                Node {
                    ty,
                    set,
                    cost: node.cost,
                }
            }
            Expr::Destroy(e) => {
                let node = self.infer(e)?;
                let ty = match &node.ty {
                    Type::Bag(inner) => match inner.as_ref() {
                        Type::Bag(t) => Type::bag((**t).clone()),
                        Type::Unknown => Type::bag(Type::Unknown),
                        _ => return Err(TypeError::DestroyNeedsNestedBag(node.ty.clone()).into()),
                    },
                    Type::Unknown => Type::bag(Type::Unknown),
                    other => return Err(TypeError::NotABag(other.clone()).into()),
                };
                Node {
                    ty,
                    set: false,
                    cost: node.cost,
                }
            }
            Expr::Map { var, body, input } => {
                let nin = self.infer(input)?;
                let elem = element_of(&nin.ty)?;
                self.observe(&elem);
                // Element-level set-ness is not tracked: conservative.
                self.env.push((var.clone(), elem, false));
                let nbody = self.infer(body);
                self.env.pop();
                let nbody = nbody?;
                Node {
                    ty: Type::bag(nbody.ty),
                    set: false,
                    cost: nin.cost.add_degree(nbody.cost),
                }
            }
            Expr::Select { var, pred, input } => {
                let nin = self.infer(input)?;
                let elem = element_of(&nin.ty)?;
                self.observe(&elem);
                self.env.push((var.clone(), elem, false));
                let pcost = self.infer_pred(pred);
                self.env.pop();
                let pcost = pcost?;
                Node {
                    ty: nin.ty,
                    set: nin.set,
                    cost: nin.cost.add_degree(pcost),
                }
            }
            Expr::Dedup(e) => {
                self.uses_dedup = true;
                let node = self.infer(e)?;
                require_bag(&node.ty)?;
                Node {
                    ty: node.ty,
                    set: true,
                    cost: node.cost,
                }
            }
            Expr::Nest { group, input } => {
                self.uses_nest = true;
                let node = self.infer(input)?;
                let ty = nest_type(group, &node.ty)?;
                Node {
                    ty,
                    set: true,
                    cost: node.cost,
                }
            }
            Expr::Ifp { var, body, input } => {
                self.uses_ifp = true;
                let nin = self.infer(input)?;
                require_bag(&nin.ty)?;
                self.env.push((var.clone(), nin.ty.clone(), nin.set));
                let nbody = self.infer(body);
                self.env.pop();
                let nbody = nbody?;
                let ty = nin
                    .ty
                    .unify(&nbody.ty)
                    .ok_or_else(|| TypeError::IfpBodyMismatch(nbody.ty.clone(), nin.ty.clone()))?;
                Node {
                    ty,
                    // A set seed whose body preserves set-ness stays a
                    // set under T(B) = body(B) ∪ B (max-union).
                    set: nin.set && nbody.set,
                    // Multiplicities can double every iteration.
                    cost: CostClass::Exponential.max(nin.cost).max(nbody.cost),
                }
            }
        };
        self.observe(&node.ty);
        Ok(node)
    }

    fn infer_pred(&mut self, pred: &Pred) -> Result<CostClass, AnalyzeError> {
        match pred {
            Pred::True => Ok(CostClass::Polynomial(0)),
            Pred::Eq(a, b) | Pred::Lt(a, b) | Pred::Le(a, b) => {
                if !matches!(pred, Pred::Eq(_, _)) {
                    self.uses_order = true;
                }
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                if na.ty.unify(&nb.ty).is_none() {
                    return Err(TypeError::Incompatible(na.ty, nb.ty).into());
                }
                Ok(na.cost.max(nb.cost))
            }
            Pred::Member(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                let elem = element_of(&nb.ty)?;
                if na.ty.unify(&elem).is_none() {
                    return Err(TypeError::Incompatible(na.ty, elem).into());
                }
                Ok(na.cost.max(nb.cost))
            }
            Pred::SubBag(a, b) => {
                let (na, nb) = (self.infer(a)?, self.infer(b)?);
                require_bag(&na.ty)?;
                require_bag(&nb.ty)?;
                if na.ty.unify(&nb.ty).is_none() {
                    return Err(TypeError::Incompatible(na.ty, nb.ty).into());
                }
                Ok(na.cost.max(nb.cost))
            }
            Pred::Not(p) => self.infer_pred(p),
            Pred::And(a, b) | Pred::Or(a, b) => {
                let ca = self.infer_pred(a)?;
                let cb = self.infer_pred(b)?;
                Ok(ca.max(cb))
            }
        }
    }
}

fn unify_bags(a: &Type, b: &Type) -> Result<Type, AnalyzeError> {
    require_bag(a)?;
    require_bag(b)?;
    a.unify(b)
        .ok_or_else(|| TypeError::Incompatible(a.clone(), b.clone()).into())
}

fn require_bag(ty: &Type) -> Result<(), AnalyzeError> {
    match ty {
        Type::Bag(_) | Type::Unknown => Ok(()),
        other => Err(TypeError::NotABag(other.clone()).into()),
    }
}

fn element_of(ty: &Type) -> Result<Type, AnalyzeError> {
    match ty {
        Type::Bag(inner) => Ok((**inner).clone()),
        Type::Unknown => Ok(Type::Unknown),
        other => Err(TypeError::NotABag(other.clone()).into()),
    }
}

fn product_element(ta: &Type, tb: &Type) -> Result<Type, AnalyzeError> {
    let fields_of = |ty: &Type| -> Result<Option<Vec<Type>>, AnalyzeError> {
        match ty {
            Type::Bag(inner) => match inner.as_ref() {
                Type::Tuple(fields) => Ok(Some(fields.clone())),
                Type::Unknown => Ok(None),
                _ => Err(TypeError::NotATupleBag(ty.clone()).into()),
            },
            Type::Unknown => Ok(None),
            other => Err(TypeError::NotABag(other.clone()).into()),
        }
    };
    match (fields_of(ta)?, fields_of(tb)?) {
        (Some(mut left), Some(right)) => {
            left.extend(right);
            Ok(Type::Tuple(left))
        }
        _ => Ok(Type::Unknown),
    }
}

fn nest_type(group: &[usize], tin: &Type) -> Result<Type, AnalyzeError> {
    if group.contains(&0) {
        return Err(AnalyzeError::AttrIndexZero);
    }
    let fields = match tin {
        Type::Bag(inner) => match inner.as_ref() {
            Type::Tuple(fields) => Some(fields.clone()),
            Type::Unknown => None,
            _ => return Err(TypeError::NotATupleBag(tin.clone()).into()),
        },
        Type::Unknown => None,
        other => return Err(TypeError::NotABag(other.clone()).into()),
    };
    match fields {
        None => Ok(Type::bag(Type::Unknown)),
        Some(fields) => {
            let mut key = Vec::with_capacity(group.len() + 1);
            for &ix in group {
                let field = fields.get(ix - 1).ok_or(TypeError::BadAttribute {
                    index: ix,
                    ty: Type::Tuple(fields.clone()),
                })?;
                key.push(field.clone());
            }
            let residual: Vec<Type> = fields
                .iter()
                .enumerate()
                .filter(|(i, _)| !group.contains(&(i + 1)))
                .map(|(_, t)| t.clone())
                .collect();
            key.push(Type::bag(Type::Tuple(residual)));
            Ok(Type::bag(Type::Tuple(key)))
        }
    }
}

/// Render the `:analyze` report for an already-analyzed expression — the
/// exact text `balg-cli`, `balg-server`, and its serial twin all print,
/// so the three surfaces stay byte-equal by construction.
pub fn render_report(expr: &Expr, facts: &Facts) -> String {
    let mut out = format!("type: {}", facts.ty);
    out.push_str(&format!(
        "\nset: {}",
        if facts.duplicate_free {
            "duplicate-free (certified)"
        } else {
            "may contain duplicates"
        }
    ));
    out.push_str(&format!(
        "\nerrors: {}",
        if facts.cannot_error {
            "cannot error (shape-safe on conforming databases)"
        } else {
            "may error at runtime"
        }
    ));
    out.push_str(&format!("\ncost: {}", facts.cost));
    if facts.cost.blowup_risk() {
        out.push_str(" — TooLarge risk");
    }
    let bases = expr.free_vars();
    if bases.is_empty() {
        out.push_str("\nbases: (none)");
    } else {
        out.push_str("\nbases:");
        for base in bases {
            let class = facts.linearity_of(&base);
            out.push_str(&format!("\n  {base}: {class}"));
            if facts.lambda_affected.contains(&base) {
                out.push_str(" (read in λ body)");
            }
        }
    }
    // What each fixpoint's loop will bind its variable to — the verdict
    // `:profile` confirms with a `[semi-naive]` tag.
    expr.visit(&mut |node| {
        if let Expr::Ifp { var, body, .. } = node {
            let form = if ifp_delta_form(var, body) {
                "delta-form"
            } else {
                "full"
            };
            out.push_str(&format!("\nifp {var}: {form}"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::natural::Natural;

    fn schema() -> Schema {
        Schema::new()
            .with("G", Type::relation(2))
            .with("H", Type::relation(2))
            .with("K", Type::relation(1))
    }

    #[test]
    fn infers_types_and_rejects_alpha_zero() {
        let q = Expr::var("G").project(&[2, 1]);
        let facts = analyze(&q, &schema()).unwrap();
        assert_eq!(facts.ty, Type::relation(2));
        assert!(facts.cannot_error);

        let zero = Expr::var("G").map("x", Expr::var("x").attr(0));
        assert_eq!(
            analyze(&zero, &schema()).unwrap_err(),
            AnalyzeError::AttrIndexZero
        );

        let oob = Expr::var("G").map("x", Expr::var("x").attr(5));
        assert!(matches!(
            analyze(&oob, &schema()).unwrap_err(),
            AnalyzeError::Type(TypeError::BadAttribute { index: 5, .. })
        ));

        let mismatch = Expr::var("G").additive_union(Expr::var("K"));
        assert!(matches!(
            analyze(&mismatch, &schema()).unwrap_err(),
            AnalyzeError::Type(TypeError::Incompatible(_, _))
        ));
    }

    #[test]
    fn set_ness_lattice() {
        let s = schema();
        // ε establishes a set; σ and − preserve it.
        let base = Expr::var("G").dedup();
        assert!(analyze(&base, &s).unwrap().duplicate_free);
        let sel = base.clone().select("x", Pred::True);
        assert!(analyze(&sel, &s).unwrap().duplicate_free);
        let minus = base.clone().subtract(Expr::var("H"));
        assert!(analyze(&minus, &s).unwrap().duplicate_free);
        // ∩ needs only one side; ∪ (max) needs both; ∪⁺ loses it.
        let meet = Expr::var("H").intersect(base.clone());
        assert!(analyze(&meet, &s).unwrap().duplicate_free);
        let sup = base.clone().max_union(Expr::var("H"));
        assert!(!analyze(&sup, &s).unwrap().duplicate_free);
        let plus = base.clone().additive_union(base);
        assert!(!analyze(&plus, &s).unwrap().duplicate_free);
        // Raw database bags are never certified.
        assert!(!analyze(&Expr::var("G"), &s).unwrap().duplicate_free);
    }

    #[test]
    fn typed_product_of_sets_is_a_set() {
        let s = schema();
        let p = Expr::var("G").dedup().product(Expr::var("H").dedup());
        // Known arities on both sides: concatenation is injective.
        assert!(analyze(&p, &s).unwrap().duplicate_free);
        // The untyped lattice cannot certify the same product.
        assert!(!certified_duplicate_free(&p));
        // P and P_b of a set are sets; δ is not.
        let pow = Expr::var("G").powerset();
        assert!(analyze(&pow, &s).unwrap().duplicate_free);
        let pb = Expr::var("G").dedup().powerbag();
        assert!(analyze(&pb, &s).unwrap().duplicate_free);
        let flat = Expr::var("G").powerset().destroy();
        assert!(!analyze(&flat, &s).unwrap().duplicate_free);
    }

    #[test]
    fn syntactic_lattice_matches_embedding_reasoning() {
        // The shapes the Proposition 4.2 embedding seals with ε.
        assert!(!certified_duplicate_free(&Expr::var("R")));
        assert!(certified_duplicate_free(&Expr::var("R").dedup()));
        assert!(certified_duplicate_free(
            &Expr::var("R").dedup().max_union(Expr::var("S").dedup())
        ));
        assert!(certified_duplicate_free(
            &Expr::var("R").dedup().intersect(Expr::var("S"))
        ));
        assert!(certified_duplicate_free(
            &Expr::var("R").dedup().subtract(Expr::var("S"))
        ));
        assert!(certified_duplicate_free(&Expr::var("R").dedup().powerset()));
        assert!(!certified_duplicate_free(
            &Expr::var("R").dedup().product(Expr::var("S").dedup())
        ));
        assert!(!certified_duplicate_free(
            &Expr::var("R").dedup().map("x", Expr::var("x"))
        ));
        assert!(!certified_duplicate_free(
            &Expr::var("R").dedup().powerset().destroy()
        ));
        // Literal bags are inspected directly.
        let ones = Expr::bag_lit([Value::sym("a"), Value::sym("b")]);
        assert!(certified_duplicate_free(&ones));
        let mut dup = crate::bag::Bag::new();
        dup.insert_with_multiplicity(Value::sym("a"), Natural::from(2u64));
        assert!(!certified_duplicate_free(&Expr::lit(Value::Bag(dup))));
    }

    #[test]
    fn linearity_classification() {
        let q = Expr::var("G").additive_union(Expr::var("G"));
        assert_eq!(base_linearity(&q)[&Var::from("G")], Linearity::Linear);

        let join_q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        );
        let map = base_linearity(&join_q);
        assert_eq!(map[&Var::from("G")], Linearity::Bilinear);
        assert_eq!(map[&Var::from("H")], Linearity::Bilinear);

        let minus = Expr::var("G").subtract(Expr::var("H"));
        let map = base_linearity(&minus);
        assert_eq!(map[&Var::from("G")], Linearity::NonLinear);
        assert_eq!(map[&Var::from("H")], Linearity::NonLinear);

        // The affected-λ-body condition.
        let affected = Expr::var("G").select(
            "x",
            Pred::Member(Expr::var("x").attr(1).singleton(), Expr::var("K")),
        );
        let map = base_linearity(&affected);
        assert_eq!(map[&Var::from("G")], Linearity::Linear);
        assert_eq!(map[&Var::from("K")], Linearity::NonLinear);
        assert!(lambda_affected(&affected).contains(&Var::from("K")));
        assert!(!lambda_affected(&affected).contains(&Var::from("G")));

        // Shadowing: a λ binder named like a base does not read the base.
        let shadow = Expr::var("G").map("H", Expr::var("H").attr(1));
        let map = base_linearity(&shadow);
        assert_eq!(map.get(&Var::from("H")), None);

        // MAP with a base-free body stays linear; δ passes deltas through.
        let nested = Expr::var("G").map("x", Expr::var("x").attr(1).singleton());
        let flat = nested.destroy();
        assert_eq!(base_linearity(&flat)[&Var::from("G")], Linearity::Linear);
    }

    #[test]
    fn cost_classes() {
        let s = schema();
        let poly = Expr::var("G").product(Expr::var("H"));
        assert_eq!(analyze(&poly, &s).unwrap().cost, CostClass::Polynomial(2));
        let pow = Expr::var("G").powerset();
        assert_eq!(analyze(&pow, &s).unwrap().cost, CostClass::Exponential);
        assert!(analyze(&pow, &s).unwrap().cost.blowup_risk());
        let nested = Expr::var("G").powerset().powerset();
        assert_eq!(
            analyze(&nested, &s).unwrap().cost,
            CostClass::HyperExponential
        );
        let pb = Expr::var("G").powerbag();
        assert_eq!(analyze(&pb, &s).unwrap().cost, CostClass::HyperExponential);
        let ifp = Expr::var("G").ifp("T", Expr::var("T"));
        assert_eq!(analyze(&ifp, &s).unwrap().cost, CostClass::Exponential);
    }

    #[test]
    fn cannot_error_requires_concrete_types() {
        let s = schema();
        let ok = Expr::var("G").project(&[1, 2]);
        assert!(analyze(&ok, &s).unwrap().cannot_error);
        // An empty literal's Unknown element type forfeits the
        // certificate: α₃ on its elements only fails at runtime.
        let unknown = Expr::empty_bag().map("x", Expr::var("x").attr(3));
        let facts = analyze(&unknown, &s).unwrap();
        assert!(!facts.cannot_error);
    }

    #[test]
    fn report_renders_every_fact() {
        let s = schema();
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        );
        let facts = analyze(&q, &s).unwrap();
        let report = render_report(&q, &facts);
        assert!(report.contains("type: {{[U, U, U, U]}}"), "{report}");
        assert!(report.contains("G: bilinear"), "{report}");
        assert!(report.contains("cost: polynomial"), "{report}");
        let pow = Expr::var("G").powerset();
        let report = render_report(&pow, &analyze(&pow, &s).unwrap());
        assert!(report.contains("TooLarge risk"), "{report}");
    }

    #[test]
    fn ifp_preserves_set_ness_of_set_seed() {
        let s = schema();
        let tc = Expr::var("G").dedup().ifp("T", Expr::var("T"));
        assert!(analyze(&tc, &s).unwrap().duplicate_free);
        let bag_seed = Expr::var("G").ifp("T", Expr::var("T"));
        assert!(!analyze(&bag_seed, &s).unwrap().duplicate_free);
    }

    #[test]
    fn infer_flat_query_types() {
        let schema = schema();
        let q = Expr::var("G").project(&[2, 1]);
        let facts = analyze(&q, &schema).unwrap();
        assert_eq!(facts.ty, Type::relation(2));
        assert_eq!(facts.balg_level(), 1);
        assert!(facts.in_balg(1));
        assert!(facts.is_core_balg());
    }

    #[test]
    fn product_concatenates_tuple_types() {
        let schema = schema();
        let q = Expr::var("G").product(Expr::var("G"));
        assert_eq!(infer_type(&q, &schema).unwrap(), Type::relation(4));
    }

    #[test]
    fn powerset_raises_level_and_power_nesting() {
        let schema = schema();
        let q = Expr::var("G").powerset();
        let facts = analyze(&q, &schema).unwrap();
        assert_eq!(facts.ty, Type::bag(Type::relation(2)));
        assert_eq!(facts.max_bag_nesting, 2);
        assert_eq!(facts.balg_level(), 2);
        assert_eq!(facts.power_nesting, 1);
        assert!(!facts.in_balg(1));
        assert!(facts.in_balg(2));
        // P(P(G)) has power nesting 2 and level 3.
        let q2 = Expr::var("G").powerset().powerset();
        let facts2 = analyze(&q2, &schema).unwrap();
        assert_eq!(facts2.power_nesting, 2);
        assert_eq!(facts2.balg_level(), 3);
    }

    #[test]
    fn destroy_lowers_nesting_in_type_but_not_in_level() {
        let schema = schema();
        let q = Expr::var("G").powerset().destroy();
        let facts = analyze(&q, &schema).unwrap();
        assert_eq!(facts.ty, Type::relation(2));
        // The intermediate P(G) : ⟦⟦[U,U]⟧⟧ pushes the level to 2 even
        // though the output is flat — this is the "increase of nesting is
        // essential" point after Proposition 3.1.
        assert_eq!(facts.max_bag_nesting, 2);
        assert_eq!(facts.balg_level(), 2);
    }

    #[test]
    fn delta_on_flat_bag_rejected() {
        let schema = schema();
        let q = Expr::var("G").destroy();
        assert!(matches!(
            analyze(&q, &schema),
            Err(AnalyzeError::Type(TypeError::DestroyNeedsNestedBag(_)))
        ));
    }

    #[test]
    fn map_binds_element_type() {
        let schema = schema();
        let q = Expr::var("G").map("x", Expr::var("x").attr(1).singleton());
        let facts = analyze(&q, &schema).unwrap();
        assert_eq!(facts.ty, Type::bag(Type::bag(Type::Atom)));
        assert_eq!(facts.balg_level(), 2);
    }

    #[test]
    fn select_pred_type_mismatch_detected() {
        let schema = schema();
        // comparing a tuple attribute (atom) with the whole bag G
        let q = Expr::var("G").select("x", Pred::eq(Expr::var("x").attr(1), Expr::var("G")));
        assert!(matches!(
            analyze(&q, &schema),
            Err(AnalyzeError::Type(TypeError::Incompatible(_, _)))
        ));
    }

    #[test]
    fn extension_flags() {
        let schema = schema();
        let pb = Expr::var("G").powerbag();
        let facts = analyze(&pb, &schema).unwrap();
        assert!(facts.uses_powerbag);
        assert!(!facts.is_core_balg());

        let ifp = Expr::var("G").ifp("T", Expr::var("T"));
        assert!(analyze(&ifp, &schema).unwrap().uses_ifp);

        let ord = Expr::var("G").select(
            "x",
            Pred::lt(Expr::var("x").attr(1), Expr::var("x").attr(2)),
        );
        assert!(analyze(&ord, &schema).unwrap().uses_order);

        let frag = Expr::var("G").subtract(Expr::var("G")).dedup();
        let fa = analyze(&frag, &schema).unwrap();
        assert!(fa.uses_subtract && fa.uses_dedup);
    }

    #[test]
    fn strictly_unnested_discipline() {
        // A tuple holding a bag has nesting 1 but is NOT a BALG¹ type.
        let schema = schema();
        let q = Expr::var("G").map(
            "x",
            Expr::tuple([Expr::var("x").attr(1), Expr::var("x").singleton()]),
        );
        let facts = analyze(&q, &schema).unwrap();
        assert!(!facts.strictly_unnested);
        assert!(facts.balg_level() >= 2);
    }

    #[test]
    fn empty_bag_literal_unifies() {
        let schema = schema();
        let q = Expr::var("G").additive_union(Expr::empty_bag());
        assert_eq!(infer_type(&q, &schema).unwrap(), Type::relation(2));
    }

    #[test]
    fn unbound_variable_reported() {
        let schema = Schema::new();
        assert!(matches!(
            analyze(&Expr::var("R"), &schema),
            Err(AnalyzeError::Type(TypeError::UnboundVariable(_)))
        ));
    }

    #[test]
    fn literal_types() {
        let schema = Schema::new();
        let lit = Expr::lit(Value::bag([Value::tuple([Value::sym("a")])]));
        assert_eq!(infer_type(&lit, &schema).unwrap(), Type::relation(1));
    }
}
