//! Differential properties for the in-place `σ` stage: a selection that
//! only compares its row's own attributes with literals is decided on the
//! borrowed row, and must be indistinguishable from the λ-binding tree
//! walk — equal bags, equal `EvalError` values, equal `Metrics.steps`, and
//! the same `StepLimit` at every step budget.
//!
//! The reference is the stage chain re-derived outside the evaluator
//! ([`Model`], in `row_model/`, shared with `seek_props`): every base row
//! is pushed through the chain's stages one by one, each `σ` through the
//! public tree walk [`Evaluator::eval_pred_open`]. Nothing in it can reach
//! the in-place walker, because the predicate never sits under a `Select`
//! node the reference evaluates.
//!
//! Predicates come from the eligible grammar (`True`/`Eq`/`Lt`/`Le`/`Not`/
//! `And`/`Or` over `αᵢ(x)` and literals) and from its near misses: `α₀`,
//! an attribute no row has, an operand on an outer variable, a computed
//! constant, `∈`/`⊑` conjuncts, an inner `σ` that rebinds `x`. A near
//! miss with a *computed* loop-invariant operand is memoised by the chain
//! (first row pays in full, later rows one step) and never by a
//! row-at-a-time walk, so for those only bags and errors are compared;
//! everything else is compared on steps too and then swept over every
//! `max_steps` from 1 to its unrestricted total.

mod row_model;

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;
use row_model::Model;

type Outcome = (Result<Bag, EvalError>, u64);

fn fused(q: &Expr, db: &Database, limits: &Limits, indexing: bool) -> Outcome {
    let mut ev = Evaluator::new(db, limits.clone());
    ev.set_indexing(indexing);
    let result = ev.eval_bag(q);
    (result, ev.metrics().steps)
}

fn modelled(q: &Expr, db: &Database, limits: &Limits) -> Outcome {
    let mut model = Model::new(db, limits);
    let result = model.eval(q);
    (result, model.ev.metrics().steps)
}

/// May the chain memoise part of `pred` across rows? Conservatively: any
/// operand that is not a variable, a literal or `αᵢ(x)`.
fn may_hoist(pred: &Pred) -> bool {
    let mut hoists = false;
    pred.visit_exprs(&mut |e| {
        hoists |= !match e {
            Expr::Var(_) | Expr::Lit(_) => true,
            Expr::Attr(inner, _) => matches!(inner.as_ref(), Expr::Var(v) if &**v == "x"),
            _ => false,
        };
    });
    hoists
}

/// The fused chain against the row-by-row model: bags and errors always,
/// steps and the whole step-budget sweep when `exact_steps`.
fn assert_matches_tree_walk(q: &Expr, db: &Database, exact_steps: bool) {
    let unlimited = Limits::default();
    let (got, got_steps) = fused(q, db, &unlimited, true);
    let (want, want_steps) = modelled(q, db, &unlimited);
    assert_eq!(got, want, "fused vs row-by-row outcome for {q}");
    assert_eq!(
        fused(q, db, &unlimited, false),
        (got, got_steps),
        "set_indexing must not change {q}"
    );
    if !exact_steps {
        return;
    }
    assert_eq!(got_steps, want_steps, "step totals for {q}");
    for max_steps in 1..=want_steps {
        let limits = Limits {
            max_steps,
            ..Limits::default()
        };
        assert_eq!(
            fused(q, db, &limits, true),
            modelled(q, db, &limits),
            "(outcome, steps) under max_steps = {max_steps} of {want_steps} for {q}"
        );
    }
}

fn own(i: usize) -> Expr {
    Expr::var("x").attr(i)
}

fn int(c: i64) -> Expr {
    Expr::lit(Value::int(c))
}

/// `αᵢ(x)` (`α₃` misses a binary row) or a literal.
fn eligible_operand() -> BoxedStrategy<Expr> {
    prop_oneof![(1usize..4).prop_map(own), (0i64..4).prop_map(int)].boxed()
}

/// An operand the in-place walker must not claim, or must decline per row.
fn near_miss_operand(outer: &'static str) -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(own(0)),
        Just(own(7)),
        Just(Expr::var(outer)),
        (1usize..3).prop_map(move |i| Expr::var(outer).attr(i)),
        (0i64..4).prop_map(|c| Expr::tuple([int(c)])),
    ]
    .boxed()
}

fn comparison(a: BoxedStrategy<Expr>, b: BoxedStrategy<Expr>) -> BoxedStrategy<Pred> {
    (0u8..3, a, b)
        .prop_map(|(op, a, b)| match op {
            0 => Pred::eq(a, b),
            1 => Pred::lt(a, b),
            _ => Pred::le(a, b),
        })
        .boxed()
}

/// Conjuncts outside the grammar: `∈`/`⊑` over literals, and `x ∈ σ_{λx.…}(G)`
/// whose inner `σ` rebinds the stage's own variable name.
fn foreign_leaf() -> BoxedStrategy<Pred> {
    let ints = |cs: Vec<i64>| Expr::lit(Value::bag(cs.into_iter().map(Value::int)));
    prop_oneof![
        (1usize..3, vec(0i64..4, 0..3)).prop_map(move |(i, cs)| Pred::Member(own(i), ints(cs))),
        (vec(0i64..4, 0..3), vec(0i64..4, 0..3))
            .prop_map(move |(a, b)| Pred::SubBag(ints(a), ints(b))),
        (0i64..4).prop_map(|c| Pred::Member(
            Expr::var("x"),
            Expr::var("G").select("x", Pred::eq(own(1), int(c))),
        )),
    ]
    .boxed()
}

/// A predicate over the stage variable `x`. With `near_misses`, about one
/// leaf in three steps outside the eligible grammar.
fn predicate(outer: &'static str, near_misses: bool) -> BoxedStrategy<Pred> {
    let eligible = comparison(eligible_operand(), eligible_operand());
    let leaf = if near_misses {
        prop_oneof![
            Just(Pred::True),
            eligible.clone(),
            eligible.clone(),
            eligible,
            comparison(near_miss_operand(outer), eligible_operand()),
            comparison(eligible_operand(), near_miss_operand(outer)),
            foreign_leaf(),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(Pred::True),
            eligible.clone(),
            eligible.clone(),
            eligible
        ]
        .boxed()
    };
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
    .boxed()
}

/// Up to seven rows of arity 2 or 3 over a four-value domain (all ternary
/// when `uniform`, so `α₃` always resolves), plus now and then a stray
/// atom or bag element.
fn rows() -> BoxedStrategy<Bag> {
    (
        vec((0i64..4, 0i64..4, 0i64..4, any::<bool>(), 1u64..3), 0..8),
        any::<bool>(),
        0u8..10,
    )
        .prop_map(|(rows, uniform, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(a, b, c, wide, m)| {
                let mut fields = vec![Value::int(a), Value::int(b)];
                if wide || uniform {
                    fields.push(Value::int(c));
                }
                (Value::tuple(fields), Natural::from(m))
            }));
            match stray {
                0 => bag.insert(Value::int(9)),
                1 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

/// The five places a `σ_{λx.p}` is put; `outer` is the name a near-miss
/// operand reads besides `x`.
const FORMS: [&str; 5] = ["bare", "under π", "over MAP(×)", "in IFP", "in MAP body"];

fn query(form: usize, p: Pred, indices: &[usize]) -> Expr {
    let g = || Expr::var("G");
    match form {
        0 => g().select("x", p),
        1 => g().select("x", p).project(indices),
        // The literal field keeps the MAP general (not a projection), so
        // the pairs stream through it into the σ as the second stage.
        2 => g()
            .product(Expr::var("H"))
            .map(
                "y",
                Expr::tuple([
                    Expr::var("y").attr(indices[0]),
                    Expr::var("y").attr(indices[1]),
                    int(1),
                ]),
            )
            .select("x", p),
        // ε keeps the swapped rows from piling up multiplicity, so the
        // fixpoint closes after a few passes over a growing `T`.
        3 => g().ifp("T", Expr::var("T").select("x", p).project(&[2, 1]).dedup()),
        // The input reads `y`, so the body is not loop-invariant as a
        // whole and the σ runs once per outer row, under a binding.
        _ => Expr::var("H").map(
            "y",
            g().additive_union(Expr::var("y").singleton())
                .select("x", p),
        ),
    }
}

fn outer_of(form: usize) -> &'static str {
    match form {
        3 => "T",
        4 => "y",
        _ => "H",
    }
}

fn case() -> BoxedStrategy<(usize, Pred)> {
    (0usize..FORMS.len(), any::<bool>())
        .prop_flat_map(|(form, near)| (Just(form), predicate(outer_of(form), near)))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every form × eligible and near-miss predicates × uniform, mixed and
    /// polluted bags.
    #[test]
    fn in_place_filter_matches_the_tree_walk(
        case in case(),
        g in rows(),
        h in vec((0i64..4, 0i64..4), 0..4),
        indices in vec(1usize..4, 2..3),
    ) {
        let h = Bag::from_values(
            h.into_iter().map(|(a, b)| Value::tuple([Value::int(a), Value::int(b)])),
        );
        let db = Database::new().with("G", g).with("H", h);
        let (form, p) = case;
        let exact = !may_hoist(&p);
        let q = query(form, p, &indices);
        assert_matches_tree_walk(&q, &db, exact);
    }
}

/// The shapes the issue names, fixed: what random generation must also
/// hit, pinned so a generator change cannot silently stop covering them.
#[test]
fn named_shapes() {
    let g = Bag::from_values([
        Value::tuple([Value::int(1), Value::int(2)]),
        Value::tuple([Value::int(2), Value::int(1)]),
        Value::tuple([Value::int(3), Value::int(3), Value::int(0)]),
    ]);
    let h = Bag::from_values([Value::tuple([Value::int(1), Value::int(1)])]);
    let db = Database::new().with("G", g).with("H", h);
    let lt = Pred::lt(own(1), own(2));
    let preds = [
        Pred::True,
        lt.clone(),
        // An attribute only the wide row has, on either side of a
        // short-circuit: reached (an error) and not reached (no error).
        lt.clone().and(Pred::eq(own(3), int(0))),
        Pred::eq(own(3), int(0)).or(lt.clone()),
        lt.clone().not().or(Pred::le(own(3), int(0))),
        Pred::eq(own(0), int(1)),
        Pred::eq(own(1), int(1)).or(Pred::eq(own(0), int(1))),
    ];
    for p in preds {
        for form in 0..FORMS.len() {
            let q = query(form, p.clone(), &[1, 2]);
            assert_matches_tree_walk(&q, &db, true);
        }
    }
    // The empty bag, and a bag that is nothing but strays.
    for bag in [Bag::new(), Bag::from_values([Value::int(9)])] {
        let db = Database::new().with("G", bag).with("H", Bag::new());
        for p in [Pred::True, lt.clone(), Pred::eq(int(1), int(1))] {
            assert_matches_tree_walk(&query(0, p.clone(), &[1, 2]), &db, true);
            assert_matches_tree_walk(&query(1, p, &[1, 2]), &db, true);
        }
    }
    // `α₁(y)` on the outer variable is not the row's own field.
    let outer = Pred::eq(own(1), Expr::var("y").attr(1));
    assert_matches_tree_walk(&query(4, outer, &[1, 2]), &db, false);
    // And one absolute answer, so fused and model cannot be empty together.
    let (out, _) = fused(&query(0, lt, &[1, 2]), &db, &Limits::default(), true);
    assert_eq!(out.unwrap().distinct_count(), 1);
}
