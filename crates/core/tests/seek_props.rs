//! Differential properties for the seek: a leading in-place `σ` over a bag
//! whose predicate compares `α₁` with literals is decided once per run of
//! the sorted slice ([`Bag::lead_runs`]) instead of once per row, and must
//! be indistinguishable from the row-by-row [`Model`] that
//! `row_filter_props` checks the in-place walker against: the same bag or
//! error, the same [`Metrics`], at every `max_steps` from 1 to the total
//! plus one, and at `max_bag_elements` equal to the result's distinct
//! count and one less.
//!
//! Inputs are 16–300 tuples whose `α₁` comes from a nine-value domain of
//! ints, strings and bag-encoded numerics, so runs repeat and the literals
//! fall inside, between and outside them. Now and then a slice end holds
//! an atom, `[]` or a bag, where the seek must decline, or a 1-tuple,
//! which it accepts but a predicate reading `α₂` fails on. Predicates are
//! `=`/`<`/`≤`/`¬`/`∧`/`∨` over `α₁` and literals, alone or in a
//! conjunction or disjunction with an `αⱼ` comparison on either side.
//!
//! The vendored `proptest` does not shrink: a failing case prints the seed
//! that replays it (`PROPTEST_SEED`), and every assertion names its input.

mod row_model;

use balg_core::bag::Bag;
use balg_core::derived::int_value;
use balg_core::eval::{EvalError, Evaluator, Limits, Metrics};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::profile::profile_expr;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;
use row_model::Model;

/// The `α₁` domain, ascending: ints, then strings, then numerics.
fn lead(k: usize) -> Value {
    match k {
        0 => Value::int(-1),
        1 => Value::int(0),
        2 => Value::int(2),
        3 => Value::sym("a"),
        4 => Value::sym("b"),
        5 => Value::sym("c"),
        6 => int_value(0u64),
        7 => int_value(1u64),
        _ => int_value(3u64),
    }
}

/// A literal: one of the domain, or a value between or beyond its members.
fn literal(k: usize) -> Value {
    match k {
        9 => Value::int(-5),
        10 => Value::int(1),
        11 => Value::sym("bb"),
        12 => int_value(2u64),
        13 => int_value(9u64),
        _ => lead(k),
    }
}

/// 16–300 rows `[α₁, α₂, α₃]` (one in eight without `α₃`), and at the
/// slice ends now and then an atom, `[]`, a 1-tuple or a bag.
fn rows() -> BoxedStrategy<Bag> {
    (
        vec((0usize..9, 0i64..3, 0i64..3, 0u8..8, 1u64..3), 16..301),
        0u8..10,
    )
        .prop_map(|(rows, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(k, b, c, arity, m)| {
                let mut fields = vec![lead(k), Value::int(b)];
                if arity > 0 {
                    fields.push(Value::int(c));
                }
                (Value::tuple(fields), Natural::from(m))
            }));
            match stray {
                0 => bag.insert(Value::int(7)),
                1 => bag.insert(Value::tuple([])),
                2 => bag.insert(Value::tuple([Value::int(-9)])),
                3 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

fn own(i: usize) -> Expr {
    Expr::var("x").attr(i)
}

fn int(c: i64) -> Expr {
    Expr::lit(Value::int(c))
}

fn lit(k: usize) -> Expr {
    Expr::lit(literal(k))
}

fn compare(op: u8, a: Expr, b: Expr) -> Pred {
    match op {
        0 => Pred::eq(a, b),
        1 => Pred::lt(a, b),
        _ => Pred::le(a, b),
    }
}

/// `α₁` against a literal (either side), now and then against itself or
/// a literal against a literal; under `¬`, `∧` and `∨`.
fn lead_predicate() -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, own(1), lit(k))),
        (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, lit(k), own(1))),
        (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, own(1), lit(k))),
        (0u8..3).prop_map(|op| compare(op, own(1), own(1))),
        (0u8..3, 0usize..14, 0usize..14).prop_map(|(op, a, b)| compare(op, lit(a), lit(b))),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
    .boxed()
}

/// A lead predicate alone, or beside an `α₂`/`α₃` comparison on either side
/// of `∧` or `∨`.
fn predicate() -> BoxedStrategy<Pred> {
    let other = (0u8..3, 2usize..4, 0i64..3).prop_map(|(op, j, c)| compare(op, own(j), int(c)));
    (lead_predicate(), other, 0u8..6)
        .prop_map(|(p, q, mix)| match mix {
            0 => p.and(q),
            1 => q.and(p),
            2 => p.or(q),
            3 => q.or(p),
            _ => p,
        })
        .boxed()
}

/// The σ alone, then the stages a true run's rows must still pass: a
/// projection, a general `MAP` and a second σ.
const FORMS: [&str; 4] = ["bare", "under π", "under MAP", "under σ"];

fn query(form: usize, p: Pred, indices: &[usize]) -> Expr {
    let chosen = Expr::var("G").select("x", p);
    match form {
        0 => chosen,
        1 => chosen.project(indices),
        2 => chosen.map("y", Expr::tuple([Expr::var("y").attr(1), int(7)])),
        _ => chosen.select("y", Pred::le(Expr::var("y").attr(2), int(1))),
    }
}

/// An evaluation's outcome and every [`Metrics`] field.
type Trace = (Result<Bag, EvalError>, u64, u64, Natural, Natural, u64, u64);

fn traced(result: Result<Bag, EvalError>, m: &Metrics) -> Trace {
    (
        result,
        m.steps,
        m.max_distinct_elements,
        m.max_multiplicity.clone(),
        m.max_cardinality.clone(),
        m.powerset_calls,
        m.ifp_iterations,
    )
}

fn fused(q: &Expr, db: &Database, limits: &Limits) -> Trace {
    let mut ev = Evaluator::new(db, limits.clone());
    let result = ev.eval_bag(q);
    traced(result, ev.metrics())
}

/// The model, plus the one `observe` a chain over a base makes: of its
/// result, at the end.
fn modelled(q: &Expr, db: &Database, limits: &Limits) -> Trace {
    let mut model = Model::new(db, limits);
    let result = model.eval(q);
    let mut metrics = model.ev.metrics().clone();
    if let Ok(out) = &result {
        metrics.max_distinct_elements = out.distinct_count() as u64;
        metrics.max_multiplicity = out.max_multiplicity();
        metrics.max_cardinality = out.cardinality();
    }
    traced(result, &metrics)
}

fn assert_matches_the_scan(q: &Expr, g: &Bag) {
    let db = Database::new().with("G", g.clone());
    let want = modelled(q, &db, &Limits::default());
    assert_eq!(fused(q, &db, &Limits::default()), want, "{q} over {g}");
    let total = want.1;
    for max_steps in 1..=total + 1 {
        let limits = Limits {
            max_steps,
            ..Limits::default()
        };
        assert_eq!(
            fused(q, &db, &limits),
            modelled(q, &db, &limits),
            "{q} over {g} at max_steps = {max_steps} of {total}"
        );
    }
    let Ok(out) = &want.0 else {
        return;
    };
    let distinct = out.distinct_count() as u64;
    for max_bag_elements in [distinct, distinct.saturating_sub(1)] {
        let limits = Limits {
            max_bag_elements,
            ..Limits::default()
        };
        assert_eq!(
            fused(q, &db, &limits),
            modelled(q, &db, &limits),
            "{q} over {g} at max_bag_elements = {max_bag_elements}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seek_matches_the_row_by_row_scan(
        g in rows(),
        p in predicate(),
        form in 0usize..FORMS.len(),
        indices in prop_oneof![Just(vec![1]), Just(vec![2, 1]), Just(vec![1, 3])],
    ) {
        assert_matches_the_scan(&query(form, p, &indices), &g);
    }
}

/// Does `:profile` tag the chain `[seek]`?
fn seeks(q: &Expr, g: &Bag) -> bool {
    let db = Database::new().with("G", g.clone());
    profile_expr(q, &db, Limits::default()).contains("[seek]")
}

/// The shapes the contract names, fixed, each with whether it seeks.
#[test]
fn named_shapes() {
    let g = Bag::from_counted((0..64i64).map(|k| {
        (
            Value::tuple([Value::int(k / 4), Value::int(k % 3), Value::int(k % 2)]),
            Natural::from(1 + (k % 2) as u64),
        )
    }));
    let lead = |c: i64| Pred::eq(own(1), int(c));
    let range = Pred::le(int(3), own(1)).and(Pred::lt(own(1), int(9)));
    let second = Pred::eq(own(2), int(1));
    let cases = [
        (lead(5), true),
        (lead(99), true),
        (lead(-1), true),
        (range.clone(), true),
        (lead(5).not(), true),
        (Pred::lt(own(1), int(2)).or(Pred::le(int(14), own(1))), true),
        (lead(5).and(second.clone()), true),
        (range.and(second.clone()), true),
        // Reads `α₂` before `α₁` on every row: every run is scanned.
        (second.clone().and(lead(5)), false),
        // `α₂ = 1 ∨ …` reads `α₂` first as well.
        (second.clone().or(lead(5)), false),
        // No `α₁` literal: nothing to cut at.
        (Pred::lt(own(1), own(2)), false),
        (Pred::True, false),
    ];
    for (p, seek) in cases {
        for form in 0..FORMS.len() {
            let q = query(form, p.clone(), &[1, 2]);
            assert_matches_the_scan(&q, &g);
            assert_eq!(seeks(&q, &g), seek, "{q}");
        }
    }
    // The chain's frame keeps the tag when the last run is true and its
    // rows run a `MAP` body that notes a fast path of its own (the
    // prefix `π` over `G` folds key runs).
    let db = Database::new().with("G", g.clone());
    for p in [lead(15), Pred::le(int(12), own(1))] {
        let q = Expr::var("G").select("x", p).map(
            "y",
            Expr::tuple([Expr::var("y").attr(1), Expr::var("G").project(&[1])]),
        );
        let profile = profile_expr(&q, &db, Limits::default());
        let tagged: Vec<_> = profile.lines().filter(|l| l.contains("[seek]")).collect();
        assert_eq!(tagged.len(), 1, "{profile}");
        assert_eq!(Some(tagged[0]), profile.lines().next(), "{profile}");
    }
    // A slice end that is not a tuple with an `α₁` declines the seek.
    for stray in [Value::int(7), Value::tuple([]), Value::bag([Value::int(1)])] {
        let mut polluted = g.clone();
        polluted.insert(stray.clone());
        let q = query(0, lead(5), &[1]);
        assert_matches_the_scan(&q, &polluted);
        assert!(!seeks(&q, &polluted), "{q} with {stray}");
    }
    // A 1-tuple has an `α₁`: its run is decided, the others are too.
    let mut short = g.clone();
    short.insert(Value::tuple([Value::int(-9)]));
    for p in [lead(5), lead(5).and(second.clone()), second.and(lead(5))] {
        assert_matches_the_scan(&query(0, p, &[1]), &short);
    }
    // The point select returns its rows, the miss nothing.
    let point = Evaluator::new(&Database::new().with("G", g.clone()), Limits::default())
        .eval_bag(&query(0, lead(5), &[1]))
        .unwrap();
    assert_eq!(point.distinct_count(), 4);
    assert!(
        Evaluator::new(&Database::new().with("G", g), Limits::default())
            .eval_bag(&query(0, lead(99), &[1]))
            .unwrap()
            .is_empty()
    );
}
