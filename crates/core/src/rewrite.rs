//! Algebraic rewriting: the optimization rules Section 3 alludes to
//! ("these properties can be used to define rewriting rules, to optimize
//! queries over bags, in the same spirit as optimization of queries over
//! sets, by pushing down selections for instance").
//!
//! All rules are **multiplicity-exact** — bag semantics rules out several
//! classical set rewrites (the paper cites \[CV93\] for how set-based
//! conjunctive-query reasoning fails on bags), so each rule here preserves
//! the full bag, not just the support. Each is one match arm, kept only
//! because removing it moves the result, `steps` or
//! `max_distinct_elements` of some optimized expression in the tests:
//!
//! * `σ_true` elimination, `σ` fusion, pushdown below `MAP`, and through
//!   `×` the conjunct splitter [`split_select_over_product`], whose
//!   output — one-sided conjuncts below the product, the join equality
//!   directly on it, the residue above — is this optimizer's normal form
//!   and the shape the SQL lowering emits. A `σ` over a join `σ` is
//!   re-split rather than fused, or fusion and the splitter would undo
//!   each other without end;
//! * `ε` elimination under the analyzer's set-ness certificate (which
//!   covers `ε(ε e)` and `ε(∅)`), and `ε` pushdown (`ε∘σ = σ∘ε`,
//!   `ε(A×B) = ε(A)×ε(B)`, `ε(A ∪⁺ B) = ε(A) ∪ ε(B)`, …). `ε` moves below
//!   `×` only when the schema gives both operands an arity: concatenating
//!   tuples is injective only then, and over `A = {{[a], [a,b]}}`,
//!   `B = {{[b,c], [c]}}` the pushed form would count `[a,b,c]` twice;
//! * `MAP(∅) → ∅` and MAP fusion (`MAP_f ∘ MAP_g = MAP_{f∘g}`);
//! * empty-bag and idempotence simplifications;
//! * constant folding of closed, powerset-free subexpressions (which
//!   empties a closed `σ(∅)` or `δ(∅)`).
//!
//! [`optimize`] is **total**: it types its input with [`analyze`] first
//! and hands back unchanged one that does not type, so a rule such as
//! `∅ × e → ∅` cannot erase the error of an ill-typed `e`. Every closed
//! subtree of a typed expression types too, so the shape guards (arity,
//! set-ness) decline only inside λ bodies, whose variables the schema
//! does not type.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use crate::analyze::{analyze, infer_type};
use crate::bag::Bag;
use crate::eval::{equi_join_attrs, Evaluator, Limits};
use crate::expr::{Expr, Pred, Var};
use crate::schema::{Database, Schema};
use crate::types::Type;
use crate::value::Value;

/// Rewrite `expr` to a cheaper equivalent, using `schema` for the
/// attribute-range analysis of selection pushdown through products.
///
/// Total: an `expr` that [`analyze`] rejects under `schema` comes back
/// unchanged, so its error still surfaces when it is evaluated. A typed
/// one runs bottom-up passes to a fixpoint (bounded), so the result is
/// stable: `optimize(optimize(e)) == optimize(e)`.
pub fn optimize(expr: &Expr, schema: &Schema) -> Expr {
    let mut current = expr.clone();
    if analyze(expr, schema).is_err() {
        return current;
    }
    for _ in 0..12 {
        if !pass(&mut current, schema) {
            break;
        }
    }
    current
}

/// One bottom-up pass, in place: `true` if any rule fired.
fn pass(expr: &mut Expr, schema: &Schema) -> bool {
    // Rewrite children first.
    let mut changed = false;
    expr.for_each_child_mut(|child, _| changed |= pass(child, schema));
    // Then the node itself, repeatedly while local rules fire.
    loop {
        let node = take(expr);
        let (next, fired) = apply_rules(node, schema);
        *expr = next;
        if !fired {
            return changed;
        }
        changed = true;
    }
}

/// Move the expression out of `slot`, leaving a placeholder.
fn take(slot: &mut Expr) -> Expr {
    std::mem::replace(slot, Expr::Tuple(Vec::new()))
}

fn is_empty_lit(expr: &Expr) -> bool {
    matches!(expr, Expr::Lit(Value::Bag(bag)) if bag.is_empty())
}

fn empty() -> Expr {
    Expr::Lit(Value::Bag(Bag::new()))
}

/// All binder names occurring anywhere in the expression.
fn binders(expr: &Expr) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    expr.visit(&mut |e| match e {
        Expr::Map { var, .. } | Expr::Select { var, .. } | Expr::Ifp { var, .. } => {
            out.insert(var.clone());
        }
        _ => {}
    });
    out
}

fn pred_binders(pred: &Pred) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    pred.visit_exprs(&mut |e| out.extend(binders(e)));
    out
}

/// Capture-safe substitution of free `var` by `with` in `expr`, in
/// place; `false`, leaving `expr` as it was, when a binder in it could
/// capture a free variable of `with` (conservative).
fn subst(expr: &mut Expr, var: &Var, with: &Expr) -> bool {
    Subst::new(&binders(expr), var, with, false)
        .map(|s| s.expr(expr))
        .is_some()
}

/// [`subst`] in every expression of a predicate.
fn subst_pred(pred: &mut Pred, var: &Var, with: &Expr) -> bool {
    Subst::new(&pred_binders(pred), var, with, false)
        .map(|s| pred.for_each_expr_mut(&mut |e| s.expr(e)))
        .is_some()
}

/// Fuse `MAP_f ∘ MAP_g` to `MAP_{f[x := g]}` by substituting in the body
/// `f` in place; `false`, leaving it as it was, where that would grow it.
/// Substitution copies `g` once per use of `x` in `f`, so a chain of `π`s
/// (two uses a level) would double at every level. Allowed: at most one
/// use; or every use an in-range `αᵢ(x)` and `g` a `τ` of variables,
/// literals and `αⱼ(y)`s, where each `αᵢ(x)` becomes the i-th field
/// itself and the body does not grow.
fn fuse_map_bodies(outer: &mut Expr, var: &Var, inner: &Expr) -> bool {
    // Counts shadowed uses too: an over-count only declines.
    let mut uses = 0;
    outer.visit(&mut |e| uses += usize::from(matches!(e, Expr::Var(name) if name == var)));
    if uses <= 1 {
        return subst(outer, var, inner);
    }
    let Expr::Tuple(fields) = inner else {
        return false;
    };
    let plain = |field: &Expr| match field {
        Expr::Var(_) | Expr::Lit(_) => true,
        Expr::Attr(e, _) => matches!(**e, Expr::Var(_)),
        _ => false,
    };
    let mut indices = BTreeSet::new();
    attr_reads(outer, var, &mut indices).is_continue()
        && fields.iter().all(plain)
        && indices.iter().all(|i| (1..=fields.len()).contains(i))
        && Subst::new(&binders(outer), var, inner, true)
            .map(|s| s.expr(outer))
            .is_some()
}

/// One substitution of free `var` by `with`.
struct Subst<'a> {
    var: &'a Var,
    with: &'a Expr,
    /// `with` is a `τ` and every `αᵢ(var)` becomes its i-th field
    /// ([`fuse_map_bodies`] checked that each is in range).
    pick_fields: bool,
}

impl<'a> Subst<'a> {
    /// `None` when one of `binders` could capture a free variable of `with`.
    fn new(
        binders: &BTreeSet<Var>,
        var: &'a Var,
        with: &'a Expr,
        pick_fields: bool,
    ) -> Option<Subst<'a>> {
        let captured = with.free_vars().iter().any(|free| binders.contains(free));
        (!captured).then_some(Subst {
            var,
            with,
            pick_fields,
        })
    }

    fn expr(&self, expr: &mut Expr) {
        match expr {
            Expr::Var(name) if name == self.var => *expr = self.with.clone(),
            Expr::Attr(inner, i)
                if self.pick_fields && matches!(&**inner, Expr::Var(name) if name == self.var) =>
            {
                if let Expr::Tuple(fields) = self.with {
                    *expr = fields[*i - 1].clone();
                }
            }
            // A rebinding of `var` shadows it in the λ's body.
            _ => expr.for_each_child_mut(|child, bound| {
                if bound != Some(self.var) {
                    self.expr(child);
                }
            }),
        }
    }
}

/// `true` when the static analyzer certifies `expr` duplicate-free —
/// cheap syntactic lattice first, typed pass (which certifies strictly
/// more) when the expression is closed under `schema`.
fn certified_set(expr: &Expr, schema: &Schema) -> bool {
    crate::analyze::certified_duplicate_free(expr)
        || matches!(
            crate::analyze::analyze(expr, schema),
            Ok(facts) if facts.duplicate_free
        )
}

/// Local rules at one node. Returns `(expr, changed)`.
fn apply_rules(expr: Expr, schema: &Schema) -> (Expr, bool) {
    match expr {
        // --- selection rules -------------------------------------------
        Expr::Select { pred, input, .. } if matches!(*pred, Pred::True) => (*input, true),
        // σ_p(σ_{αᵢ=αⱼ}(L × R)): the join σ sitting on its product is the
        // shape both engines fuse, so it is not absorbed into the outer σ —
        // the pair is re-split with the join equality first, which keeps it
        // the key and pushes whatever one-sided conjuncts `p` holds.
        Expr::Select {
            var: outer_var,
            pred: mut outer_pred,
            input,
        } if is_join_select(&input) => {
            let original = Expr::Select {
                var: outer_var.clone(),
                pred: outer_pred.clone(),
                input: input.clone(),
            };
            let Expr::Select {
                var,
                pred: join_pred,
                input: product,
            } = *input
            else {
                unreachable!("guarded by is_join_select")
            };
            let Expr::Product(left, right) = *product else {
                unreachable!("guarded by is_join_select")
            };
            if var == outer_var || subst_pred(&mut outer_pred, &outer_var, &Expr::Var(var.clone()))
            {
                let conjuncts = vec![*join_pred, *outer_pred];
                resplit(original, &var, conjuncts, *left, *right, schema)
            } else {
                (original, false)
            }
        }
        // Fuse σ_p(σ_q(e)): rename q's variable to p's.
        Expr::Select {
            var,
            pred,
            mut input,
        } if matches!(*input, Expr::Select { .. }) => {
            let Expr::Select {
                var: inner_var,
                pred: inner_pred,
                input: inner_input,
            } = &mut *input
            else {
                unreachable!("guarded by matches!")
            };
            if *inner_var != var && !subst_pred(inner_pred, inner_var, &Expr::Var(var.clone())) {
                return (Expr::Select { var, pred, input }, false);
            }
            let inner_pred = std::mem::replace(inner_pred, Box::new(Pred::True));
            *input = take(inner_input);
            let pred = Box::new(Pred::And(pred, inner_pred));
            (Expr::Select { var, pred, input }, true)
        }
        // Push σ below MAP: σ_p(MAP_f(e)) = MAP_f(σ_{p[x := f]}(e)).
        Expr::Select {
            var,
            mut pred,
            mut input,
        } if matches!(*input, Expr::Map { .. }) => {
            let Expr::Map {
                var: map_var,
                body,
                input: map_input,
            } = &mut *input
            else {
                unreachable!("guarded by matches!")
            };
            if !subst_pred(&mut pred, &var, body) {
                return (Expr::Select { var, pred, input }, false);
            }
            let below = Expr::Select {
                var: map_var.clone(),
                pred,
                input: Box::new(take(map_input)),
            };
            **map_input = below;
            (*input, true)
        }
        // Split σ over ×: one-sided conjuncts below, the join equality on
        // the product, the residue above.
        Expr::Select { var, pred, input } if matches!(*input, Expr::Product(_, _)) => {
            let original = Expr::Select {
                var: var.clone(),
                pred: pred.clone(),
                input: input.clone(),
            };
            let Expr::Product(left, right) = *input else {
                unreachable!("guarded by matches!")
            };
            resplit(original, &var, vec![*pred], *left, *right, schema)
        }

        // --- dedup rules -------------------------------------------------
        // ε-elimination under a set-ness certificate — the analyzer's
        // first fact-guarded rewrite: when the static analysis certifies
        // the operand duplicate-free, ε is the identity. The typed pass
        // certifies strictly more than the syntactic lattice (products of
        // sets with statically known arities); inside λ bodies, where the
        // operand has free λ variables the schema cannot type, the
        // syntactic lattice still applies. It covers `ε(ε e)` and `ε(∅)`
        // too: the lattice certifies every `ε` and the empty bag.
        Expr::Dedup(e) if certified_set(&e, schema) => (*e, true),
        // ε(σ(e)) = σ(ε(e)).
        Expr::Dedup(mut e) if matches!(*e, Expr::Select { .. }) => {
            if let Expr::Select { input, .. } = &mut *e {
                **input = take(input).dedup();
            }
            (*e, true)
        }
        // ε(A × B) = ε(A) × ε(B) needs both arities: concatenation is
        // injective only then (module doc).
        Expr::Dedup(e)
            if matches!(&*e, Expr::Product(a, b)
                if arity_of(a, schema).is_some() && arity_of(b, schema).is_some()) =>
        {
            let Expr::Product(a, b) = *e else {
                unreachable!("guarded by matches!")
            };
            (a.dedup().product(b.dedup()), true)
        }
        // ε(A ∪ B) = ε(A ∪⁺ B) = ε(A) ∪ ε(B): support union.
        Expr::Dedup(e) if matches!(*e, Expr::MaxUnion(_, _) | Expr::AdditiveUnion(_, _)) => {
            let (Expr::MaxUnion(a, b) | Expr::AdditiveUnion(a, b)) = *e else {
                unreachable!("guarded by matches!")
            };
            (a.dedup().max_union(b.dedup()), true)
        }

        // --- MAP rules ---------------------------------------------------
        Expr::Map { input, .. } if is_empty_lit(&input) => (empty(), true),
        // Fusion MAP_f(MAP_g(e)) → MAP_{f[x:=g]}(e), where it does not
        // grow the body.
        Expr::Map {
            var,
            mut body,
            mut input,
        } if matches!(*input, Expr::Map { .. }) => {
            let Expr::Map {
                body: inner_body, ..
            } = &mut *input
            else {
                unreachable!("guarded by matches!")
            };
            if !fuse_map_bodies(&mut body, &var, inner_body) {
                return (Expr::Map { var, body, input }, false);
            }
            *inner_body = body;
            (*input, true)
        }

        // --- empty-bag propagation & idempotence ------------------------
        Expr::AdditiveUnion(a, b) if is_empty_lit(&a) => (*b, true),
        Expr::AdditiveUnion(a, b) if is_empty_lit(&b) => (*a, true),
        Expr::MaxUnion(a, b) if is_empty_lit(&a) => (*b, true),
        Expr::MaxUnion(a, b) if is_empty_lit(&b) => (*a, true),
        Expr::MaxUnion(a, b) if a == b => (*a, true),
        Expr::Intersect(a, b) if is_empty_lit(&a) || is_empty_lit(&b) => (empty(), true),
        Expr::Intersect(a, b) if a == b => (*a, true),
        Expr::Subtract(a, b) if is_empty_lit(&b) => (*a, true),
        Expr::Subtract(a, b) if is_empty_lit(&a) || a == b => (empty(), true),
        Expr::Product(a, b) if is_empty_lit(&a) || is_empty_lit(&b) => (empty(), true),

        // --- constant folding -------------------------------------------
        other => try_fold(other),
    }
}

/// Attribute usage of `var` in a predicate: `Some(indices)` when every
/// occurrence is under `αᵢ(var)`, `None` when the variable is used bare
/// or rebound (no pushdown possible).
fn attr_usage(pred: &Pred, var: &Var) -> Option<BTreeSet<usize>> {
    if pred_binders(pred).contains(var) {
        return None;
    }
    let mut indices = BTreeSet::new();
    let reads = pred.try_for_each_expr(&mut |e| attr_reads(e, var, &mut indices));
    reads.is_continue().then_some(indices)
}

/// Add the `i` of every free `αᵢ(var)` in `expr` to `indices`; `Break` at
/// a bare use of `var`.
fn attr_reads(expr: &Expr, var: &Var, indices: &mut BTreeSet<usize>) -> ControlFlow<()> {
    match expr {
        Expr::Attr(inner, i) if matches!(&**inner, Expr::Var(name) if name == var) => {
            indices.insert(*i);
            ControlFlow::Continue(())
        }
        Expr::Var(name) if name == var => ControlFlow::Break(()),
        _ => expr.try_for_each_child(|child, bound| {
            if bound == Some(var) {
                return ControlFlow::Continue(());
            }
            attr_reads(child, var, indices)
        }),
    }
}

/// Arity of a bag-of-tuples expression under the schema, if derivable.
fn arity_of(expr: &Expr, schema: &Schema) -> Option<usize> {
    match infer_type(expr, schema).ok()? {
        Type::Bag(inner) => match *inner {
            Type::Tuple(fields) => Some(fields.len()),
            _ => None,
        },
        _ => None,
    }
}

/// Shift every `αᵢ(var)` in `expr` down by `offset`, in place. Binders
/// shadowing `var` were excluded by [`attr_usage`].
fn shift_attrs(expr: &mut Expr, var: &Var, offset: usize) {
    match expr {
        Expr::Attr(inner, i) if matches!(&**inner, Expr::Var(name) if name == var) => *i -= offset,
        _ => expr.for_each_child_mut(|child, _| shift_attrs(child, var, offset)),
    }
}

/// Append the conjuncts of `pred`, left to right, without the `True`s.
fn flatten_conjunction(pred: Pred, out: &mut Vec<Pred>) {
    match pred {
        Pred::True => {}
        Pred::And(a, b) => {
            flatten_conjunction(*a, out);
            flatten_conjunction(*b, out);
        }
        other => out.push(other),
    }
}

/// `σ_{c₁∧…∧cₙ}(input)`, left-nested; `input` itself when there is
/// nothing to select on.
fn select_all(var: &Var, conjuncts: Vec<Pred>, input: Expr) -> Expr {
    match conjuncts.into_iter().reduce(Pred::and) {
        Some(pred) => Expr::Select {
            var: var.clone(),
            pred: Box::new(pred),
            input: Box::new(input),
        },
        None => input,
    }
}

/// `σ_{αᵢ=αⱼ}` directly over a `×` — the join shape both engines fuse.
fn is_join_select(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Select { var, pred, input }
            if matches!(**input, Expr::Product(_, _)) && equi_join_attrs(pred, var).is_some()
    )
}

/// The one conjunct splitter: `σ_{c₁∧…∧cₙ}(left × right)`, given the
/// conjuncts over the row variable `var` (nested `∧` are flattened) and
/// the arity of `left`, in the join normal form
///
/// ```text
/// σ_residue( σ_{αᵢ=αⱼ}( σ_left-only(left) × σ_right-only(right) ) )
/// ```
///
/// `True` conjuncts are dropped; a conjunct that reads only attributes of
/// one operand moves below the product as a `σ` on that operand
/// (right-side attributes shifted down by `left_arity`); the first
/// `αᵢ = αⱼ` spanning the product boundary becomes the `σ` sitting
/// directly on `×` — the shape [`equi_join_attrs`] recognises, which the
/// evaluator runs as a hash join and the incremental engine maintains
/// with the indexed delta rule; everything else (further spanning
/// comparisons, conjuncts using the row variable bare, rebinding it,
/// reading `α₀` or reading no attribute at all) stays in one `σ` above,
/// in its original order. Each `σ` is omitted when it has no conjunct.
///
/// Multiplicity-exact for well-typed inputs. The SQL lowering calls this
/// once per product of its FROM chain; [`optimize`] reaches it through
/// its `σ(×)` rules.
pub fn split_select_over_product(
    var: &Var,
    conjuncts: Vec<Pred>,
    left: Expr,
    right: Expr,
    left_arity: usize,
) -> Expr {
    let mut on_left = Vec::new();
    let mut on_right = Vec::new();
    let mut join = None;
    let mut residue = Vec::new();
    let mut flat = Vec::with_capacity(conjuncts.len());
    for pred in conjuncts {
        flatten_conjunction(pred, &mut flat);
    }
    for conjunct in flat {
        let bounds = attr_usage(&conjunct, var)
            .and_then(|usage| Some((*usage.first()?, *usage.last()?)))
            .filter(|&(lowest, _)| lowest >= 1);
        match bounds {
            Some((_, highest)) if highest <= left_arity => on_left.push(conjunct),
            Some((lowest, _)) if lowest > left_arity => {
                let mut conjunct = conjunct;
                conjunct.for_each_expr_mut(&mut |e| shift_attrs(e, var, left_arity));
                on_right.push(conjunct);
            }
            Some(_) if join.is_none() && equi_join_attrs(&conjunct, var).is_some() => {
                join = Some(conjunct);
            }
            _ => residue.push(conjunct),
        }
    }
    let product = Expr::Product(
        Box::new(select_all(var, on_left, left)),
        Box::new(select_all(var, on_right, right)),
    );
    let joined = select_all(var, join.into_iter().collect(), product);
    select_all(var, residue, joined)
}

/// [`split_select_over_product`] as a rewrite rule: `original` is the
/// expression the parts were taken from, handed back untouched when the
/// left arity is not derivable; `changed` iff the split moved anything.
fn resplit(
    original: Expr,
    var: &Var,
    conjuncts: Vec<Pred>,
    left: Expr,
    right: Expr,
    schema: &Schema,
) -> (Expr, bool) {
    let Some(left_arity) = arity_of(&left, schema) else {
        return (original, false);
    };
    let out = split_select_over_product(var, conjuncts, left, right, left_arity);
    let changed = out != original;
    (out, changed)
}

/// Fold a closed, powerset/fixpoint-free subexpression to a literal.
fn try_fold(expr: Expr) -> (Expr, bool) {
    if matches!(expr, Expr::Lit(_) | Expr::Var(_)) {
        return (expr, false);
    }
    if expr.size() > 48 || !expr.free_vars().is_empty() {
        return (expr, false);
    }
    let mut explosive = false;
    expr.visit(&mut |e| {
        explosive |= matches!(e, Expr::Powerset(_) | Expr::Powerbag(_) | Expr::Ifp { .. });
    });
    if explosive {
        return (expr, false);
    }
    let empty_db = Database::new();
    let mut evaluator = Evaluator::new(&empty_db, Limits::small());
    match evaluator.eval(&expr) {
        Ok(value) => (Expr::Lit(value), true),
        Err(_) => (expr, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_bag;
    use crate::expr::{Expr, Pred};
    use crate::natural::Natural;
    use crate::types::Type;

    fn graph_schema() -> Schema {
        Schema::new()
            .with("G", Type::relation(2))
            .with("H", Type::relation(2))
    }

    fn graph_db() -> Database {
        let mut g = Bag::new();
        for (a, b, m) in [("a", "b", 2u64), ("b", "c", 1), ("c", "a", 3)] {
            g.insert_with_multiplicity(
                Value::tuple([Value::sym(a), Value::sym(b)]),
                Natural::from(m),
            );
        }
        let mut h = Bag::new();
        h.insert(Value::tuple([Value::sym("b"), Value::sym("z")]));
        Database::new().with("G", g).with("H", h)
    }

    /// How many nodes of `expr` are of the `kind` asked for.
    fn count(expr: &Expr, kind: fn(&Expr) -> bool) -> usize {
        let mut n = 0;
        expr.visit(&mut |e| n += usize::from(kind(e)));
        n
    }

    /// Optimization must preserve the *bag*, not just the support.
    fn assert_equivalent(q: &Expr) {
        let schema = graph_schema();
        let db = graph_db();
        let optimized = optimize(q, &schema);
        let before = eval_bag(q, &db).unwrap();
        let after = eval_bag(&optimized, &db).unwrap();
        assert_eq!(before, after, "optimize changed semantics of {q}");
        // And be stable.
        assert_eq!(optimize(&optimized, &schema), optimized);
    }

    #[test]
    fn dedup_elided_under_set_certificate() {
        // ε(ε(G) − H): the analyzer certifies the monus of a set
        // duplicate-free, so the outer ε vanishes.
        let q = Expr::var("G").dedup().subtract(Expr::var("H")).dedup();
        let out = optimize(&q, &graph_schema());
        assert_eq!(out, Expr::var("G").dedup().subtract(Expr::var("H")));
        assert_equivalent(&q);

        // The typed certificate: a product of sets with known arities is
        // a set, so ε(ε(G) × ε(H)) loses its outer ε (the syntactic
        // lattice alone could not prove this).
        let p = Expr::var("G")
            .dedup()
            .product(Expr::var("H").dedup())
            .dedup();
        let out = optimize(&p, &graph_schema());
        let dedups = count(&out, |e| matches!(e, Expr::Dedup(_)));
        assert_eq!(dedups, 2, "outer ε should be elided: {out}");
        assert_equivalent(&p);

        // No certificate, no elision: a raw base keeps its ε.
        let raw = Expr::var("G").dedup();
        assert_eq!(optimize(&raw, &graph_schema()), raw);
    }

    #[test]
    fn select_true_elided() {
        let q = Expr::var("G").select("x", Pred::True);
        let out = optimize(&q, &graph_schema());
        assert_eq!(out, Expr::var("G"));
    }

    #[test]
    fn select_fusion() {
        let q = Expr::var("G")
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::sym("a"))),
            )
            .select(
                "y",
                Pred::eq(Expr::var("y").attr(2), Expr::lit(Value::sym("b"))),
            );
        let out = optimize(&q, &graph_schema());
        // One Select remains.
        assert_eq!(
            count(&out, |e| matches!(e, Expr::Select { .. })),
            1,
            "{out}"
        );
        assert_equivalent(&q);
    }

    #[test]
    fn select_pushes_into_left_of_product() {
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::sym("a"))),
        );
        let out = optimize(&q, &graph_schema());
        // The product must now be the outermost operator.
        assert!(matches!(out, Expr::Product(_, _)), "{out}");
        assert_equivalent(&q);
    }

    #[test]
    fn select_pushes_into_right_of_product_with_shift() {
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(3), Expr::lit(Value::sym("b"))),
        );
        let out = optimize(&q, &graph_schema());
        assert!(matches!(out, Expr::Product(_, _)), "{out}");
        // The pushed predicate must reference α1 now.
        let mut saw_attr1 = false;
        out.visit(&mut |e| {
            if let Expr::Select { pred, .. } = e {
                pred.visit(&mut |inner| {
                    if matches!(inner, Expr::Attr(_, 1)) {
                        saw_attr1 = true;
                    }
                });
            }
        });
        assert!(saw_attr1, "{out}");
        assert_equivalent(&q);
    }

    #[test]
    fn mixed_predicate_not_pushed() {
        // Join predicate touches both sides: stays put.
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        );
        let out = optimize(&q, &graph_schema());
        assert!(matches!(out, Expr::Select { .. }), "{out}");
        assert_equivalent(&q);
    }

    #[test]
    fn conjunction_over_product_splits_into_the_join_normal_form() {
        let x = |i| Expr::var("x").attr(i);
        let a = |s| Expr::lit(Value::sym(s));
        let key = Pred::eq(x(2), x(3));
        let left_only = Pred::eq(x(1), a("a"));
        let right_only = Pred::eq(x(4), a("z"));
        let spanning = Pred::lt(x(1), x(4));
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::True
                .and(spanning.clone())
                .and(right_only)
                .and(key.clone())
                .and(left_only.clone()),
        );
        let expected = Expr::var("G")
            .select("x", left_only)
            .product(Expr::var("H").select("x", Pred::eq(x(2), a("z"))))
            .select("x", key)
            .select("x", spanning);
        assert_eq!(optimize(&q, &graph_schema()), expected);
        assert_equivalent(&q);

        // A σ over a join σ is not fused back into it: its one-sided
        // conjuncts are pushed past the join, which keeps its product.
        let stacked = Expr::var("G")
            .product(Expr::var("H"))
            .select(
                "y",
                Pred::eq(Expr::var("y").attr(2), Expr::var("y").attr(3)),
            )
            .select("x", Pred::eq(x(1), a("a")));
        let out = optimize(&stacked, &graph_schema());
        assert!(is_join_select(&out), "{out}");
        assert_equivalent(&stacked);
    }

    #[test]
    fn map_fusion() {
        let q = Expr::var("G").project(&[2, 1]).project(&[2, 1]);
        let out = optimize(&q, &graph_schema());
        assert_eq!(count(&out, |e| matches!(e, Expr::Map { .. })), 1, "{out}");
        assert_equivalent(&q);
    }

    #[test]
    fn map_fusion_does_not_grow_the_body() {
        // `project(…, 1, 2)` reads its variable twice a level: substituting
        // whole bodies doubled the tree at every level (2^25 nodes at 25).
        let chain = |depth: usize, base: Expr| (0..depth).fold(base, |e, _| e.project(&[1, 2]));
        // A body that is not a `τ` of plain fields: the π above it keeps
        // its own MAP, and every π above that fuses into it.
        let opaque = Expr::var("G").map(
            "y",
            Expr::tuple([Expr::var("y").attr(2), Expr::var("y").singleton()]),
        );
        for base in [Expr::var("G"), opaque] {
            for depth in [25, 60] {
                let q = chain(depth, base.clone());
                let out = optimize(&q, &graph_schema());
                assert!(out.size() <= q.size(), "{depth} deep: {out}");
            }
            assert_equivalent(&chain(6, base));
        }
        // One use of the variable still fuses whatever the inner body is.
        let once = Expr::var("G")
            .map("y", Expr::var("y").singleton())
            .map("x", Expr::tuple([Expr::var("x")]));
        assert_eq!(
            optimize(&once, &graph_schema()),
            Expr::var("G").map("y", Expr::tuple([Expr::var("y").singleton()]))
        );
        assert_equivalent(&once);
    }

    #[test]
    fn dedup_rules() {
        let q = Expr::var("G").dedup().dedup();
        let out = optimize(&q, &graph_schema());
        assert_eq!(count(&out, |e| matches!(e, Expr::Dedup(_))), 1, "{out}");
        assert_equivalent(&q);

        let q2 = Expr::var("G").product(Expr::var("H")).dedup();
        assert_equivalent(&q2);
        let out2 = optimize(&q2, &graph_schema());
        assert!(matches!(out2, Expr::Product(_, _)), "{out2}");

        let q3 = Expr::var("G").additive_union(Expr::var("H")).dedup();
        assert_equivalent(&q3);
        let out3 = optimize(&q3, &graph_schema());
        assert!(matches!(out3, Expr::MaxUnion(_, _)), "{out3}");
    }

    #[test]
    fn empty_and_idempotence() {
        let schema = graph_schema();
        let empty = Expr::empty_bag();
        assert_eq!(
            optimize(&Expr::var("G").additive_union(empty.clone()), &schema),
            Expr::var("G")
        );
        assert_eq!(
            optimize(&Expr::var("G").product(empty.clone()), &schema),
            empty
        );
        assert_eq!(
            optimize(&Expr::var("G").intersect(Expr::var("G")), &schema),
            Expr::var("G")
        );
        assert_eq!(
            optimize(&Expr::var("G").subtract(Expr::var("G")), &schema),
            empty
        );
    }

    #[test]
    fn an_ill_typed_input_comes_back_unchanged() {
        // G is binary: α3 is out of range, so the product fails to
        // evaluate, and rewriting it to ∅ would hide that.
        let q = Expr::empty_bag().product(Expr::var("G").project(&[3]));
        assert!(analyze(&q, &graph_schema()).is_err());
        assert_eq!(optimize(&q, &graph_schema()), q);
        assert!(eval_bag(&q, &graph_db()).is_err());
        // A rule that would fire on the typed part does not either.
        let q = Expr::var("G")
            .select("x", Pred::True)
            .product(Expr::var("G").project(&[3]));
        assert_eq!(optimize(&q, &graph_schema()), q);
    }

    #[test]
    fn constant_folding() {
        let q = Expr::bag_lit([Value::tuple([Value::sym("a")])])
            .additive_union(Expr::bag_lit([Value::tuple([Value::sym("a")])]));
        let out = optimize(&q, &Schema::new());
        match out {
            Expr::Lit(Value::Bag(bag)) => {
                assert_eq!(
                    bag.multiplicity(&Value::tuple([Value::sym("a")])),
                    Natural::from(2u64)
                );
            }
            other => panic!("expected folded literal, got {other}"),
        }
    }

    #[test]
    fn select_pushes_below_map() {
        // σ_{α₁=a}(π₂,₁(G)) → π₂,₁(σ_{α₂=a}(G)).
        let q = Expr::var("G").project(&[2, 1]).select(
            "y",
            Pred::eq(Expr::var("y").attr(1), Expr::lit(Value::sym("a"))),
        );
        let out = optimize(&q, &graph_schema());
        // Outermost should now be the MAP.
        assert!(matches!(out, Expr::Map { .. }), "{out}");
        assert_equivalent(&q);
    }

    #[test]
    fn optimizer_reduces_work_on_join() {
        use crate::eval::eval_with_metrics;
        let schema = graph_schema();
        let db = graph_db();
        let q = Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::sym("a"))),
        );
        let optimized = optimize(&q, &schema);
        let (r1, m1) = eval_with_metrics(&q, &db, Limits::default());
        let (r2, m2) = eval_with_metrics(&optimized, &db, Limits::default());
        assert_eq!(r1.unwrap(), r2.unwrap());
        assert!(
            m2.steps <= m1.steps,
            "optimized used more steps ({} > {})",
            m2.steps,
            m1.steps
        );
    }

    #[test]
    fn shadowed_variables_are_respected() {
        // Inner select binds the same name as an outer map variable.
        let q = Expr::var("G")
            .map(
                "x",
                Expr::tuple([Expr::var("x").attr(2), Expr::var("x").attr(1)]),
            )
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::sym("c"))),
            );
        assert_equivalent(&q);
    }
}
