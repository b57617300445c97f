//! The BALG expression language (Section 3).
//!
//! Expressions denote mappings from a bag database (plus λ-bound variables)
//! to values. λ-abstraction is first-class: `MAP` and `σ` carry a bound
//! variable name and a body expression, so expression trees are inspectable
//! — the Proposition 4.2 translation and the complexity analyses walk MAP/σ
//! bodies, which opaque closures would forbid.
//!
//! Two constructs extend the paper's core algebra and are flagged by the
//! static analyzer ([`mod@crate::analyze`]): the powerbag `P_b` (Definition 5.1)
//! and the inflationary fixpoint `IFP` (Section 6, Theorem 6.6). Order
//! predicates `<`/`≤` correspond to the paper's "in the presence of an
//! order on the domain" results and are likewise flagged.
//!
//! # The child walk
//!
//! `MAP`, `σ` and `IFP` each bind a λ variable, so a pass over a query
//! has to know which binder is in scope where. Every structural pass —
//! [`Expr::visit`], [`Expr::free_vars`], the rewriter's bottom-up pass,
//! substitution and attribute shifting, the evaluator's loop-invariant
//! analysis, the analyzer's λ reads, a view's operands — is a fold over
//! one walk, [`Expr::try_for_each_child`] (shared, stops at the first
//! `Break`) and [`Expr::for_each_child_mut`] (in place, on an owned tree).
//! It guarantees:
//!
//! * **scope**: each direct sub-expression comes with the λ variable bound
//!   for it — `Some(var)` for a `MAP`/`IFP` body and for every expression
//!   of a `σ` predicate, `None` for everything else, inputs included;
//! * **order**: source order — operands left to right, a λ body (or the
//!   predicate's expressions, left to right) before its input. `visit`'s
//!   pre-order, and with it the `ifp` lines of `:analyze`, follows it;
//!   `free_vars` lists an input before its body by folding the unscoped
//!   children first;
//! * **no allocation**: the closure is monomorphised and the walk builds
//!   nothing, so a fold allocates only what it collects.
//!
//! A new `Expr` variant is added to the walk's two matches. The matches
//! that give each variant its *meaning* must still be touched by hand:
//! the evaluator's dispatch and `node_label` (`eval.rs`); typing,
//! `set_like` and `classify` (`analyze.rs`); the WAL codec and its
//! `expr_fits` size check (`wal.rs`); `Display` below; the parser
//! (`parse.rs`); `balg_relational`'s `translate`; the incremental view
//! compiler's rule table (`view.rs`); and, for a variant that owns heap
//! data, the statement cache's `footprint` (`balg_sql`'s `cache.rs`).

use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::value::Value;

/// A variable name — a database bag name or a λ-bound variable.
pub type Var = Arc<str>;

/// The deepest operator nesting a text front end builds (the BALG parser's
/// `expr`/`pred` descent; the SQL parser's parentheses, set-operation
/// chains, `FROM` lists and `WHERE` conjunctions). Type inference, the rewriter, both evaluators,
/// `Display` and `Drop` all recurse over the tree, so the cap is what
/// keeps a hostile one-line input from overflowing the stack: chosen so
/// that parsing, analyzing, evaluating and dropping a chain this deep
/// fits a 2 MiB thread — a server session's — in a debug build.
pub const MAX_EXPR_DEPTH: usize = 64;

/// A BALG expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A database bag or λ-bound variable.
    Var(Var),
    /// A constant object.
    Lit(Value),
    /// Additive union `e ∪⁺ e′` (multiplicities add).
    AdditiveUnion(Box<Expr>, Box<Expr>),
    /// Subtraction `e − e′` (monus).
    Subtract(Box<Expr>, Box<Expr>),
    /// Maximal union `e ∪ e′` (max of multiplicities).
    MaxUnion(Box<Expr>, Box<Expr>),
    /// Intersection `e ∩ e′` (min of multiplicities).
    Intersect(Box<Expr>, Box<Expr>),
    /// Tupling `τ(e₁, …, eₖ)`.
    Tuple(Vec<Expr>),
    /// Bagging `β(e)`.
    Singleton(Box<Expr>),
    /// Cartesian product `e × e′` on bags of tuples.
    Product(Box<Expr>, Box<Expr>),
    /// Powerset `P(e)`: one occurrence of each subbag.
    Powerset(Box<Expr>),
    /// Powerbag `P_b(e)` (Definition 5.1) — **extension**, hyper-exponential.
    Powerbag(Box<Expr>),
    /// Attribute projection `αᵢ(e)` on a tuple-valued expression (1-based).
    Attr(Box<Expr>, usize),
    /// Bag-destroy `δ(e)`.
    Destroy(Box<Expr>),
    /// Restructuring `MAP_{λx.body}(input)`.
    Map {
        /// The λ-bound variable.
        var: Var,
        /// The λ body, evaluated once per distinct element.
        body: Box<Expr>,
        /// The bag being restructured.
        input: Box<Expr>,
    },
    /// Selection `σ_{λx.pred}(input)`.
    Select {
        /// The λ-bound variable.
        var: Var,
        /// The selection predicate.
        pred: Box<Pred>,
        /// The bag being filtered.
        input: Box<Expr>,
    },
    /// Duplicate elimination `ε(e)`.
    Dedup(Box<Expr>),
    /// Inflationary fixpoint (Section 6): least fixpoint of
    /// `T(B) = body(B) ∪ B` starting from `input` — **extension**.
    Ifp {
        /// Variable bound to the accumulating bag.
        var: Var,
        /// The step expression `φ`.
        body: Box<Expr>,
        /// The initial bag.
        input: Box<Expr>,
    },
    /// The set-nesting operator of \[PG88\]/\[Won93\] (Conclusion, "Nest vs
    /// Powerset") — **extension**: group a bag of `k`-tuples by the
    /// attributes in `group` (1-based); each group appears once, paired
    /// with the bag of residual-attribute tuples (multiplicities kept).
    Nest {
        /// The grouping attributes (1-based, in output order).
        group: Vec<usize>,
        /// The input bag of tuples.
        input: Box<Expr>,
    },
}

/// A selection predicate. The paper's primitive is equality of two λ
/// expressions (`σ_{φ=φ′}`); the boolean connectives and the
/// membership/containment tests are definable sugar ("membership and
/// containment tests can be expressed using the algebra operators and
/// equality testing", Section 3). `<`/`≤` assume an order on the domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pred {
    /// Always true (selects everything).
    True,
    /// `φ = φ′`.
    Eq(Expr, Expr),
    /// `φ < φ′` in the domain order — **order extension**.
    Lt(Expr, Expr),
    /// `φ ≤ φ′` in the domain order — **order extension**.
    Le(Expr, Expr),
    /// `φ ∈ φ′` (membership in a bag) — definable sugar.
    Member(Expr, Expr),
    /// `φ ⊑ φ′` (subbag containment) — definable sugar.
    SubBag(Expr, Expr),
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
}

impl Expr {
    /// A variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Arc::from(name))
    }

    /// A constant.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Lit(value.into())
    }

    /// The empty-bag constant `⟦⟧`.
    pub fn empty_bag() -> Expr {
        Expr::Lit(Value::empty_bag())
    }

    /// A literal bag of the given constant values.
    pub fn bag_lit(values: impl IntoIterator<Item = Value>) -> Expr {
        Expr::Lit(Value::bag(values))
    }

    /// Tupling of several expressions.
    pub fn tuple(fields: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Tuple(fields.into_iter().collect())
    }

    /// `self ∪⁺ other`.
    pub fn additive_union(self, other: Expr) -> Expr {
        Expr::AdditiveUnion(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn subtract(self, other: Expr) -> Expr {
        Expr::Subtract(Box::new(self), Box::new(other))
    }

    /// `self ∪ other` (maximal union).
    pub fn max_union(self, other: Expr) -> Expr {
        Expr::MaxUnion(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect(Box::new(self), Box::new(other))
    }

    /// `β(self)`.
    pub fn singleton(self) -> Expr {
        Expr::Singleton(Box::new(self))
    }

    /// `self × other`.
    pub fn product(self, other: Expr) -> Expr {
        Expr::Product(Box::new(self), Box::new(other))
    }

    /// `P(self)`.
    pub fn powerset(self) -> Expr {
        Expr::Powerset(Box::new(self))
    }

    /// `P_b(self)` (extension).
    pub fn powerbag(self) -> Expr {
        Expr::Powerbag(Box::new(self))
    }

    /// `αᵢ(self)` — 1-based attribute projection on a tuple.
    pub fn attr(self, index: usize) -> Expr {
        Expr::Attr(Box::new(self), index)
    }

    /// `δ(self)`.
    pub fn destroy(self) -> Expr {
        Expr::Destroy(Box::new(self))
    }

    /// `ε(self)`.
    pub fn dedup(self) -> Expr {
        Expr::Dedup(Box::new(self))
    }

    /// `MAP_{λvar.body}(self)`.
    pub fn map(self, var: &str, body: Expr) -> Expr {
        Expr::Map {
            var: Arc::from(var),
            body: Box::new(body),
            input: Box::new(self),
        }
    }

    /// `σ_{λvar.pred}(self)`.
    pub fn select(self, var: &str, pred: Pred) -> Expr {
        Expr::Select {
            var: Arc::from(var),
            pred: Box::new(pred),
            input: Box::new(self),
        }
    }

    /// The paper's projection abbreviation `π_{i₁,…,iₙ}(self)`: sugar for
    /// `MAP_{λx.[α_{i₁}(x), …, α_{iₙ}(x)]}(self)` with 1-based indices.
    pub fn project(self, indices: &[usize]) -> Expr {
        let x = Expr::var("π");
        let body = Expr::tuple(indices.iter().map(|&i| x.clone().attr(i)));
        self.map("π", body)
    }

    /// Inflationary fixpoint of `λvar.body` seeded with `self` (extension).
    pub fn ifp(self, var: &str, body: Expr) -> Expr {
        Expr::Ifp {
            var: Arc::from(var),
            body: Box::new(body),
            input: Box::new(self),
        }
    }

    /// `nest_{group}(self)` — the \[PG88\] nest operator (extension):
    /// group by the 1-based attributes in `group`, nesting the residual
    /// attributes into a bag.
    pub fn nest(self, group: &[usize]) -> Expr {
        Expr::Nest {
            group: group.to_vec(),
            input: Box::new(self),
        }
    }

    /// Bounded inflationary fixpoint (\[Suc93\], Conclusion): the least
    /// fixpoint of `T(B) = (body(B) ∩ bound) ∪ B` — inflation can never
    /// escape the subbags of `bound`, so the iteration converges within
    /// `|bound|` steps and the complexity stays bounded. Transitive
    /// closure over the edge set fits this shape.
    pub fn bounded_ifp(self, var: &str, body: Expr, bound: Expr) -> Expr {
        self.ifp(var, body.intersect(bound))
    }

    /// Number of AST nodes (expression size, as used in the inductive
    /// proofs of Propositions 4.1 and 4.5).
    pub fn size(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |_| count += 1);
        count
    }

    /// Pre-order traversal over all sub-expressions, including λ bodies.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        let _ = self.try_for_each_child(|child, _| {
            child.visit(f);
            ControlFlow::<()>::Continue(())
        });
    }

    /// Free variables (not bound by any enclosing MAP/σ/IFP λ), in first
    /// occurrence order — these are the database bags the query reads.
    /// An input comes before the λ body mapped over it.
    pub fn free_vars(&self) -> Vec<Var> {
        fn go<'a>(expr: &'a Expr, bound: &mut Vec<&'a Var>, out: &mut Vec<Var>) {
            if let Expr::Var(name) = expr {
                if !bound.contains(&name) && !out.contains(name) {
                    out.push(name.clone());
                }
            }
            for scoped in [false, true] {
                let _ = expr.try_for_each_child(|child, var| {
                    if var.is_some() == scoped {
                        let depth = bound.len();
                        bound.extend(var);
                        go(child, bound, out);
                        bound.truncate(depth);
                    }
                    ControlFlow::<()>::Continue(())
                });
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// The child walk: calls `f` on each direct sub-expression, in source
    /// order, with the λ variable bound for it — `Some(var)` for a
    /// `MAP`/`IFP` body and for every expression of a `σ` predicate,
    /// `None` otherwise — and stops at the first `Break`, which it
    /// returns.
    pub fn try_for_each_child<'a, B>(
        &'a self,
        mut f: impl FnMut(&'a Expr, Option<&'a Var>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        match self {
            Expr::Var(_) | Expr::Lit(_) => ControlFlow::Continue(()),
            Expr::AdditiveUnion(a, b)
            | Expr::Subtract(a, b)
            | Expr::MaxUnion(a, b)
            | Expr::Intersect(a, b)
            | Expr::Product(a, b) => {
                f(a, None)?;
                f(b, None)
            }
            Expr::Tuple(fields) => fields.iter().try_for_each(|field| f(field, None)),
            Expr::Singleton(e)
            | Expr::Powerset(e)
            | Expr::Powerbag(e)
            | Expr::Attr(e, _)
            | Expr::Destroy(e)
            | Expr::Dedup(e)
            | Expr::Nest { input: e, .. } => f(e, None),
            Expr::Map { var, body, input } | Expr::Ifp { var, body, input } => {
                f(body, Some(var))?;
                f(input, None)
            }
            Expr::Select { var, pred, input } => {
                pred.try_for_each_expr(&mut |e| f(e, Some(var)))?;
                f(input, None)
            }
        }
    }

    /// [`Expr::try_for_each_child`] over an owned tree, for rewriting it
    /// in place: the same children, order and scopes, without the early
    /// stop.
    pub fn for_each_child_mut<'a>(&'a mut self, mut f: impl FnMut(&'a mut Expr, Option<&'a Var>)) {
        match self {
            Expr::Var(_) | Expr::Lit(_) => {}
            Expr::AdditiveUnion(a, b)
            | Expr::Subtract(a, b)
            | Expr::MaxUnion(a, b)
            | Expr::Intersect(a, b)
            | Expr::Product(a, b) => {
                f(a, None);
                f(b, None);
            }
            Expr::Tuple(fields) => fields.iter_mut().for_each(|field| f(field, None)),
            Expr::Singleton(e)
            | Expr::Powerset(e)
            | Expr::Powerbag(e)
            | Expr::Attr(e, _)
            | Expr::Destroy(e)
            | Expr::Dedup(e)
            | Expr::Nest { input: e, .. } => f(e, None),
            Expr::Map { var, body, input } | Expr::Ifp { var, body, input } => {
                f(body, Some(var));
                f(input, None);
            }
            Expr::Select { var, pred, input } => {
                let var: &'a Var = var;
                pred.for_each_expr_mut(&mut |e| f(e, Some(var)));
                f(input, None);
            }
        }
    }
}

impl Pred {
    /// `φ = φ′`.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Pred::Eq(a, b)
    }

    /// `φ < φ′`.
    pub fn lt(a: Expr, b: Expr) -> Pred {
        Pred::Lt(a, b)
    }

    /// `φ ≤ φ′`.
    pub fn le(a: Expr, b: Expr) -> Pred {
        Pred::Le(a, b)
    }

    /// Conjunction.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Visit the expressions immediately inside the predicate.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        let _ = self.try_for_each_expr(&mut |e| {
            f(e);
            ControlFlow::<()>::Continue(())
        });
    }

    /// Visit the predicate and every sub-expression recursively.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        self.visit_exprs(&mut |e| e.visit(f));
    }

    /// The expressions of the predicate, left to right, for the child
    /// walk: stops at the first `Break`.
    pub(crate) fn try_for_each_expr<'a, B, F>(&'a self, f: &mut F) -> ControlFlow<B>
    where
        F: FnMut(&'a Expr) -> ControlFlow<B>,
    {
        match self {
            Pred::True => ControlFlow::Continue(()),
            Pred::Eq(a, b)
            | Pred::Lt(a, b)
            | Pred::Le(a, b)
            | Pred::Member(a, b)
            | Pred::SubBag(a, b) => {
                f(a)?;
                f(b)
            }
            Pred::Not(p) => p.try_for_each_expr(f),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.try_for_each_expr(f)?;
                b.try_for_each_expr(f)
            }
        }
    }

    /// [`Pred::try_for_each_expr`] over an owned predicate, for rewriting
    /// it in place.
    pub(crate) fn for_each_expr_mut<'a, F: FnMut(&'a mut Expr)>(&'a mut self, f: &mut F) {
        match self {
            Pred::True => {}
            Pred::Eq(a, b)
            | Pred::Lt(a, b)
            | Pred::Le(a, b)
            | Pred::Member(a, b)
            | Pred::SubBag(a, b) => {
                f(a);
                f(b);
            }
            Pred::Not(p) => p.for_each_expr_mut(f),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.for_each_expr_mut(f);
                b.for_each_expr_mut(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(name) => f.write_str(name),
            Expr::Lit(value) => write!(f, "{value}"),
            Expr::AdditiveUnion(a, b) => write!(f, "({a} ∪⁺ {b})"),
            Expr::Subtract(a, b) => write!(f, "({a} − {b})"),
            Expr::MaxUnion(a, b) => write!(f, "({a} ∪ {b})"),
            Expr::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Expr::Tuple(fields) => {
                f.write_str("τ(")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{field}")?;
                }
                f.write_str(")")
            }
            Expr::Singleton(e) => write!(f, "β({e})"),
            Expr::Product(a, b) => write!(f, "({a} × {b})"),
            Expr::Powerset(e) => write!(f, "P({e})"),
            Expr::Powerbag(e) => write!(f, "Pb({e})"),
            Expr::Attr(e, i) => write!(f, "α{i}({e})"),
            Expr::Destroy(e) => write!(f, "δ({e})"),
            Expr::Map { var, body, input } => write!(f, "MAP[λ{var}.{body}]({input})"),
            Expr::Select { var, pred, input } => write!(f, "σ[λ{var}.{pred}]({input})"),
            Expr::Dedup(e) => write!(f, "ε({e})"),
            Expr::Ifp { var, body, input } => write!(f, "IFP[λ{var}.{body}]({input})"),
            Expr::Nest { group, input } => {
                f.write_str("nest[")?;
                for (i, g) in group.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "]({input})")
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => f.write_str("⊤"),
            Pred::Eq(a, b) => write!(f, "{a} = {b}"),
            Pred::Lt(a, b) => write!(f, "{a} < {b}"),
            Pred::Le(a, b) => write!(f, "{a} ≤ {b}"),
            Pred::Member(a, b) => write!(f, "{a} ∈ {b}"),
            Pred::SubBag(a, b) => write!(f, "{a} ⊑ {b}"),
            Pred::Not(p) => write!(f, "¬({p})"),
            Pred::And(a, b) => write!(f, "({a} ∧ {b})"),
            Pred::Or(a, b) => write!(f, "({a} ∨ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        // π₁,₄(σ_{α₂=α₃}(B×B)) — the Section 4 counting query.
        let q = Expr::var("B")
            .product(Expr::var("B"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        assert!(q.size() > 5);
        let shown = q.to_string();
        assert!(shown.contains("α2(x) = α3(x)"), "{shown}");
        assert!(shown.contains("(B × B)"), "{shown}");
    }

    #[test]
    fn free_vars_skip_lambda_bound() {
        let q = Expr::var("R")
            .map("x", Expr::var("x").attr(1))
            .additive_union(Expr::var("S"));
        assert_eq!(
            q.free_vars(),
            vec![Arc::<str>::from("R"), Arc::<str>::from("S")]
        );
    }

    #[test]
    fn free_vars_inside_select_pred_see_outer_bindings() {
        // σ over R with a predicate referring to outer bag S: S is free.
        let q = Expr::var("R").select(
            "x",
            Pred::eq(Expr::var("x").attr(1).singleton(), Expr::var("S")),
        );
        let fv = q.free_vars();
        assert!(fv.contains(&Arc::<str>::from("R")));
        assert!(fv.contains(&Arc::<str>::from("S")));
        assert!(!fv.contains(&Arc::<str>::from("x")));
    }

    #[test]
    fn size_counts_lambda_bodies() {
        let small = Expr::var("R");
        assert_eq!(small.size(), 1);
        let mapped = Expr::var("R").map("x", Expr::var("x").singleton());
        // Map + input Var + body(Singleton + Var) = 4
        assert_eq!(mapped.size(), 4);
    }

    #[test]
    fn visit_reaches_every_node() {
        let q = Expr::var("R").select("x", Pred::eq(Expr::var("x"), Expr::lit(Value::sym("a"))));
        let mut vars = 0;
        q.visit(&mut |e| {
            if matches!(e, Expr::Var(_)) {
                vars += 1;
            }
        });
        assert_eq!(vars, 2); // R and x
    }

    #[test]
    fn projection_sugar_expands_to_map() {
        let q = Expr::var("R").project(&[2]);
        match q {
            Expr::Map { body, .. } => match *body {
                Expr::Tuple(fields) => assert_eq!(fields.len(), 1),
                other => panic!("expected tuple body, got {other:?}"),
            },
            other => panic!("expected MAP, got {other:?}"),
        }
    }
}
