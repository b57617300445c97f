//! One differential for every evaluator fast path: each query runs on
//! the same database as is and with [`Evaluator::set_reference`] on,
//! which sends every fast path to the reference it falls back to — the
//! engine checked against itself with its optimisations off (NoREC:
//! Rigger and Su, *Detecting Optimization Bugs in Database Engines via
//! Non-Optimizing Reference Engine Construction*, ESEC/FSE 2020). The
//! contract is the table in `eval.rs`'s module doc, chosen per query by
//! the `:profile` tags its unbounded default run fired:
//!
//! * *exact* (no `project-scale` or `semi-naive` tag): the same bag or
//!   error and every [`Metrics`] field, at every `max_steps` from 0 to the
//!   reference's total, at `max_bag_elements` equal to the largest
//!   intermediate's and to the result's distinct count and one less, and
//!   at every `max_ifp_iterations` up to the rounds;
//! * *fewer* (either tag fired), under the same budgets: a bag the
//!   reference returns is returned with the same `ifp_iterations` and no
//!   more steps or larger maxima; a budget the default runs out of the
//!   reference runs out of too; and unless the reference ran out of a
//!   budget first, an error is the reference's in the same round — the
//!   same error, payload included, when only `semi-naive` fired, and the
//!   same variant when `project-scale` did (its rows reach the later
//!   stages in another order).
//!
//! The default also repeats its outcome on a second run over its warm
//! index cache.
//!
//! The queries come from `expr_gen`: its random expressions, and one
//! strategy per fast path (`expr_gen/shapes.rs`) that draws the input
//! shape the path needs with its near misses, each for 256 cases (512 for
//! key runs, and for the `⊑` filter's two queries; the fixpoint's delta
//! form and its near misses 256 each). The `σ`/`π` chain shapes (in-place
//! `σ`, seek, key runs, key hash) are also held, on the reference, to
//! `row_model`'s row-by-row model outside the engine: outcome and every
//! [`Metrics`] field at every step budget and at the element budgets
//! (outcome only where a predicate has a computed operand, which the
//! chain hoists and the row-at-a-time model does not).
//!
//! The suite is a coverage ledger too: every query runs once more under
//! the profiler on each setting, and every tag of every frame counts.
//! Each of the seven tags `:profile` prints for a fast path must fire in
//! at least 5 % of the cases drawn for that path, and none may fire on the
//! reference, so a generator that drifts away from its path fails here.
//! `nest`'s `key-runs`/`key-hash` tags name [`Bag::nest`]'s own branch,
//! which no switch reaches, and are not counted.
//!
//! The vendored `proptest` does not shrink: a failing case prints the
//! seed that replays it first (`PROPTEST_SEED`, `PROPTEST_CASES=1`).

mod expr_gen;
mod row_model;
#[path = "expr_gen/shapes.rs"]
mod shapes;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use balg_core::analyze::ifp_delta_form;
use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits, Metrics};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use expr_gen::{db_strategy, pair, Gen};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use row_model::Model;
use shapes::*;

/// The seven fast-path tags, in the module doc's table order.
const TAGS: [&str; 7] = [
    "in-place",
    "seek",
    "key-runs",
    "key-hash",
    "indexed-join",
    "project-scale",
    "semi-naive",
];

/// The step budget of an unbounded run.
const UNBOUNDED: u64 = 1 << 20;

/// Above this many reference steps a generated expression is compared
/// unbounded only: the budget sweep is quadratic in it.
const SWEEP_CAP: u64 = 2_000;

fn limits(max_steps: u64) -> Limits {
    Limits {
        max_bag_elements: 1 << 10,
        max_multiplicity_bits: 1 << 9,
        max_steps,
        max_ifp_iterations: 32,
    }
}

/// An evaluation's outcome and every [`Metrics`] field.
#[derive(Debug, PartialEq)]
struct Trace {
    outcome: Result<Bag, EvalError>,
    steps: u64,
    max_distinct: u64,
    max_multiplicity: Natural,
    max_cardinality: Natural,
    powerset_calls: u64,
    rounds: u64,
}

impl Trace {
    fn new(outcome: Result<Bag, EvalError>, m: &Metrics) -> Trace {
        Trace {
            outcome,
            steps: m.steps,
            max_distinct: m.max_distinct_elements,
            max_multiplicity: m.max_multiplicity.clone(),
            max_cardinality: m.max_cardinality.clone(),
            powerset_calls: m.powerset_calls,
            rounds: m.ifp_iterations,
        }
    }
}

fn run(q: &Expr, db: &Database, limits: &Limits, reference: bool) -> Trace {
    let mut ev = Evaluator::new(db, limits.clone());
    ev.set_reference(reference);
    let outcome = ev.eval_bag(q);
    Trace::new(outcome, ev.metrics())
}

/// The fast-path tags of every frame `:profile` records for `q`.
fn tags(q: &Expr, db: &Database, reference: bool) -> Vec<&'static str> {
    let mut ev = Evaluator::new(db, limits(UNBOUNDED));
    ev.set_reference(reference);
    ev.enable_profiling();
    let _ = ev.eval(q);
    let profiler = ev.take_profiler().expect("profiling enabled");
    profiler
        .frames()
        .iter()
        .filter(|frame| !frame.label.starts_with("nest"))
        .flat_map(|frame| frame.tags.iter().copied())
        .filter(|tag| TAGS.contains(tag))
        .collect()
}

/// What the default owes the reference on one query (module doc).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Contract {
    Exact,
    /// `semi-naive` fired and `project-scale` did not: an error keeps its
    /// payload.
    SemiNaive,
    /// `project-scale` fired: an error keeps its variant.
    ProjectScale,
}

impl Contract {
    /// The contract of a query whose unbounded default run `fired` these
    /// tags.
    fn of(fired: &[&str]) -> Contract {
        if fired.contains(&"project-scale") {
            Contract::ProjectScale
        } else if fired.contains(&"semi-naive") {
            Contract::SemiNaive
        } else {
            Contract::Exact
        }
    }
}

/// A budget running out, as opposed to an error of the query itself.
fn exhausted(e: &EvalError) -> bool {
    matches!(
        e,
        EvalError::StepLimit(_)
            | EvalError::ElementLimit { .. }
            | EvalError::MultiplicityLimit { .. }
    )
}

/// The default's trace `got` against the reference's `want` under one
/// budget.
fn agree(q: &Expr, contract: Contract, got: &Trace, want: &Trace, at: &str) {
    if contract == Contract::Exact {
        assert_eq!(got, want, "default vs reference at {at} for {q}");
        return;
    }
    match (&got.outcome, &want.outcome) {
        (Ok(bag), Ok(reference)) => {
            assert_eq!(bag, reference, "bag at {at} for {q}");
            assert_eq!(got.rounds, want.rounds, "rounds at {at} for {q}");
            assert!(
                got.steps <= want.steps
                    && got.max_distinct <= want.max_distinct
                    && got.max_multiplicity <= want.max_multiplicity
                    && got.max_cardinality <= want.max_cardinality,
                "more work than the reference at {at} for {q}: {got:?} against {want:?}"
            );
        }
        (Ok(_), Err(e)) => assert!(exhausted(e), "{e} on the reference only, at {at} for {q}"),
        (Err(e), Ok(_)) => panic!("{e} on the default only, at {at} for {q}"),
        (Err(e), Err(r)) if exhausted(e) => {
            assert!(
                exhausted(r),
                "{e} against the reference's {r} at {at} for {q}"
            );
        }
        // The reference ran out of a budget before reaching the error.
        (Err(_), Err(r)) if exhausted(r) => {}
        (Err(e), Err(r)) => {
            assert_eq!(
                got.rounds, want.rounds,
                "{e} in another round than the reference's {r} at {at} for {q}"
            );
            if contract == Contract::SemiNaive {
                assert_eq!(e, r, "error at {at} for {q}");
            } else {
                assert!(
                    std::mem::discriminant(e) == std::mem::discriminant(r),
                    "{e} against the reference's {r} at {at} for {q}"
                );
            }
        }
    }
}

/// Default against reference: unbounded and under every [`budgets`]. The
/// default also repeats itself on a second evaluation over its warm
/// index cache.
fn hold_to_reference(q: &Expr, db: &Database, contract: Contract, sweep_cap: u64) {
    let both = |limits: &Limits| (run(q, db, limits, false), run(q, db, limits, true));
    let (got, want) = both(&limits(UNBOUNDED));
    agree(q, contract, &got, &want, "no budget");
    let mut warm = Evaluator::new(db, limits(UNBOUNDED));
    let first = warm.eval_bag(q);
    assert_eq!(warm.eval_bag(q), first, "a warm index cache changed {q}");
    for limits in budgets(&want, sweep_cap) {
        let (got, want) = both(&limits);
        agree(q, contract, &got, &want, &format!("{limits:?}"));
    }
}

/// Every budget a query is repeated under, from its unbounded run: each
/// `max_steps` from 0 to the total (unless that exceeds `sweep_cap`), the
/// element budgets around a successful run's largest bag and its result
/// (each, and one less), and each `max_ifp_iterations` up to its rounds.
fn budgets(unbounded: &Trace, sweep_cap: u64) -> Vec<Limits> {
    let mut out = Vec::new();
    if unbounded.steps <= sweep_cap {
        out.extend((0..=unbounded.steps).map(limits));
    }
    if let Ok(bag) = &unbounded.outcome {
        for n in [unbounded.max_distinct, bag.distinct_count() as u64] {
            for max_bag_elements in [n, n.saturating_sub(1)] {
                out.push(Limits {
                    max_bag_elements,
                    ..limits(UNBOUNDED)
                });
            }
        }
    }
    out.extend(
        (1..=unbounded.rounds.min(32)).map(|max_ifp_iterations| Limits {
            max_ifp_iterations,
            ..limits(UNBOUNDED)
        }),
    );
    out
}

/// May a chain hoist part of a predicate out of its row loop? Any `σ`
/// operand that is not a variable, a literal or an attribute of the
/// stage's own row.
fn hoists(q: &Expr) -> bool {
    let mut found = false;
    q.visit(&mut |node| {
        if let Expr::Select { var, pred, .. } = node {
            pred.visit_exprs(&mut |e| {
                found |= !match e {
                    Expr::Var(_) | Expr::Lit(_) => true,
                    Expr::Attr(inner, _) => matches!(inner.as_ref(), Expr::Var(v) if v == var),
                    _ => false,
                };
            });
        }
    });
    found
}

fn modelled(q: &Expr, db: &Database, limits: &Limits) -> Trace {
    let mut model = Model::new(db, limits);
    let outcome = model.eval(q);
    Trace::new(outcome, &model.metrics())
}

/// The reference against the row-by-row model: every [`Metrics`] field
/// unbounded and under every [`budgets`]; the outcome alone where a
/// predicate operand may be hoisted.
fn hold_reference_to_model(q: &Expr, db: &Database) {
    let unbounded = limits(UNBOUNDED);
    let (got, want) = (run(q, db, &unbounded, true), modelled(q, db, &unbounded));
    if hoists(q) {
        assert_eq!(got.outcome, want.outcome, "reference vs model for {q}");
        return;
    }
    assert_eq!(got, want, "reference vs row-by-row model for {q}");
    for limits in budgets(&want, u64::MAX) {
        assert_eq!(
            run(q, db, &limits, true),
            modelled(q, db, &limits),
            "reference vs model under {limits:?} for {q}"
        );
    }
}

/// Every check for one case; the tags the default fired.
fn check(family: &str, q: &Expr, db: &Database) -> Vec<&'static str> {
    let on_reference = tags(q, db, true);
    assert!(
        on_reference.is_empty(),
        "the reference took {on_reference:?} for {q}"
    );
    let fired = tags(q, db, false);
    let sweep_cap = if family == "generated" {
        SWEEP_CAP
    } else {
        u64::MAX
    };
    hold_to_reference(q, db, Contract::of(&fired), sweep_cap);
    if matches!(family, "in-place" | "seek" | "key-runs" | "key-hash") {
        hold_reference_to_model(q, db);
    }
    fired
}

/// Every strategy, labelled with the fast path it is drawn for, or with
/// what it draws when no one path is its target. Each slot gets the same
/// share of the cases; a strategy listed twice gets twice the share.
fn families() -> Vec<(&'static str, BoxedStrategy<(Expr, Database)>)> {
    let generated = (0u64..1_000_000_000, 1usize..5, 1usize..3, db_strategy())
        .prop_map(|(seed, depth, arity, db)| (Gen::new(seed).expr(depth, arity), db))
        .boxed();
    vec![
        ("generated", generated),
        ("in-place", in_place_shape()),
        ("seek", seek_shape()),
        ("key-runs", key_run_shape()),
        ("key-runs", key_run_shape()),
        ("key-hash", key_hash_shape()),
        ("indexed-join", join_shape()),
        ("project-scale", project_scale_shape()),
        ("semi-naive", ifp_shape()),
        ("fixpoint near miss", ifp_near_miss_shape()),
        ("subbag", subbag_shape()),
        ("subbag", subbag_shape()),
    ]
}

#[test]
fn every_fast_path_matches_its_reference() {
    let families = families();
    let slots = families.len() as u64;
    // 256 cases per slot; the case's seed picks its slot, so a replayed
    // seed draws the same family.
    let cases = u64::from(ProptestConfig::with_cases(256).resolved_cases()) * slots;
    let base = TestRng::base_seed();
    // Per tag: the cases drawn for its path, and those where it fired.
    let mut ledger = TAGS.map(|tag| (tag, 0u32, 0u32));
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let (family, strategy) = &families[(seed % slots) as usize];
        let (q, db) = strategy.generate(&mut TestRng::from_seed(seed));
        let tags =
            catch_unwind(AssertUnwindSafe(|| check(family, &q, &db))).unwrap_or_else(|payload| {
                eprintln!(
                    "case {case} ({family}) failed; replay it first with \
                     PROPTEST_SEED={seed} PROPTEST_CASES=1"
                );
                resume_unwind(payload)
            });
        if let Some((tag, drawn, fired)) = ledger.iter_mut().find(|(tag, ..)| tag == family) {
            *drawn += 1;
            *fired += u32::from(tags.contains(tag));
        }
    }
    for (tag, drawn, fired) in ledger {
        assert!(
            fired * 20 >= drawn,
            "[{tag}] fired in {fired} of the {drawn} cases drawn for it, under 5 %: {ledger:?}"
        );
    }
}

// ---- Fixed cases: the shapes each path names, and absolute answers ----

#[test]
fn named_in_place_shapes() {
    let g = Bag::from_values([
        pair(1, 2),
        pair(2, 1),
        Value::tuple([Value::int(3), Value::int(3), Value::int(0)]),
    ]);
    let h = Bag::from_values([pair(1, 1)]);
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
        for form in 0..IN_PLACE_FORMS.len() {
            check("in-place", &in_place_query(form, p.clone(), &[1, 2]), &db);
        }
    }
    // The empty bag, and a bag that is nothing but strays.
    for bag in [Bag::new(), Bag::from_values([Value::int(9)])] {
        let db = Database::new().with("G", bag).with("H", Bag::new());
        for p in [Pred::True, lt.clone(), Pred::eq(int(1), int(1))] {
            for form in [0, 1] {
                check("in-place", &in_place_query(form, p.clone(), &[1, 2]), &db);
            }
        }
    }
    // `α₁(y)` on the outer variable is not the row's own field.
    let outer = Pred::eq(own(1), Expr::var("y").attr(1));
    check("in-place", &in_place_query(4, outer, &[1, 2]), &db);
    // One absolute answer, so both sides cannot be empty together; the
    // chain's frame is tagged.
    let q = in_place_query(0, lt, &[1, 2]);
    assert_eq!(check("in-place", &q, &db), ["in-place"]);
    let out = run(&q, &db, &Limits::default(), false).outcome.unwrap();
    assert_eq!(out.distinct_count(), 1);
}

#[test]
fn named_seek_shapes() {
    let g = Bag::from_counted((0..64i64).map(|k| {
        (
            Value::tuple([Value::int(k / 4), Value::int(k % 3), Value::int(k % 2)]),
            Natural::from(1 + (k % 2) as u64),
        )
    }));
    let db = Database::new().with("G", g.clone());
    let seeks = |q: &Expr, db: &Database| tags(q, db, false).contains(&"seek");
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
        for form in 0..SEEK_FORMS.len() {
            let q = seek_query(form, p.clone(), &[1, 2]);
            assert_eq!(check("seek", &q, &db).contains(&"seek"), seek, "{q}");
        }
    }
    // The chain's frame keeps the tag when the last run is true and its
    // rows run a `MAP` body that notes a fast path of its own (the prefix
    // `π` over `G` folds key runs): every tag, in firing order.
    for p in [lead(15), Pred::le(int(12), own(1))] {
        let q = Expr::var("G").select("x", p).map(
            "y",
            Expr::tuple([Expr::var("y").attr(1), Expr::var("G").project(&[1])]),
        );
        assert_eq!(
            tags(&q, &db, false),
            ["in-place", "key-runs", "seek"],
            "{q}"
        );
    }
    // A slice end that is not a tuple with an `α₁` declines the seek.
    for stray in [Value::int(7), Value::tuple([]), Value::bag([Value::int(1)])] {
        let mut polluted = g.clone();
        polluted.insert(stray.clone());
        let db = Database::new().with("G", polluted);
        let q = seek_query(0, lead(5), &[1]);
        check("seek", &q, &db);
        assert!(!seeks(&q, &db), "{q} with {stray}");
    }
    // A 1-tuple has an `α₁`: its run is decided, the others are too.
    let mut short = g;
    short.insert(Value::tuple([Value::int(-9)]));
    let short = Database::new().with("G", short);
    for p in [lead(5), lead(5).and(second.clone()), second.and(lead(5))] {
        check("seek", &seek_query(0, p, &[1]), &short);
    }
    // The point select returns its rows, the miss nothing.
    let point = |c| {
        run(
            &seek_query(0, lead(c), &[1]),
            &db,
            &Limits::default(),
            false,
        )
        .outcome
    };
    assert_eq!(point(5).unwrap().distinct_count(), 4);
    assert!(point(99).unwrap().is_empty());
}

#[test]
fn named_key_run_shapes() {
    let t = |fields: &[i64]| Value::tuple(fields.iter().copied().map(Value::int));
    let g = Bag::from_counted([
        (t(&[0, 2]), Natural::from(2u64)),
        (t(&[0, 2, 1]), Natural::from(1u64)),
        (t(&[1, 0]), Natural::from(3u64)),
        (t(&[1, 0, 0]), Natural::from(1u64)),
        (t(&[1, 1, 2, 2]), Natural::from(1u64)),
    ]);
    let mut polluted = g.clone();
    polluted.insert(Value::int(7));
    // The chain around both of its fallbacks: a row too short for the
    // prefix, a stray atom, and no rows at all.
    for bag in [g, polluted, Bag::new()] {
        let db = Database::new().with("G", bag);
        for k in 1..=4 {
            let indices: Vec<usize> = (1..=k).collect();
            for dedup in [false, true] {
                check("key-runs", &key_run_query(&indices, dedup), &db);
            }
        }
    }
}

#[test]
fn named_key_hash_shapes() {
    let t = |fields: &[i64]| Value::tuple(fields.iter().copied().map(Value::int));
    let g = Bag::from_counted([
        (t(&[0, 2]), Natural::from(2u64)),
        (t(&[0, 2, 1]), Natural::from(1u64)),
        (t(&[1, 0]), Natural::from(3u64)),
        (t(&[1, 2, 0]), Natural::from(1u64)),
        (t(&[2, 0, 1]), Natural::from(1u64)),
        (t(&[2, 2]), Natural::from(4u64)),
    ]);
    let mut polluted = g.clone();
    polluted.insert(Value::int(7));
    let seek = Pred::le(int(1), own(1));
    let scan = Pred::lt(own(2), int(2));
    // Every base and filter form around the sink's errors: a row too
    // short for `α₃`, `α₀`, a stray atom, and no rows at all.
    for bag in [g.clone(), polluted, Bag::new()] {
        let db = Database::new().with("G", bag);
        for indices in [&[2][..], &[2, 1], &[3, 2], &[2, 2], &[0]] {
            for filters in [vec![], vec![scan.clone()], vec![seek.clone(), scan.clone()]] {
                for dedup in [false, true] {
                    check("key-hash", &key_hash_query(&filters, indices, dedup), &db);
                }
            }
        }
    }
    // Absolute answers, so both sides cannot be wrong together, and the
    // chain's frame carries every tag that fired, in firing order.
    let db = Database::new().with("G", g);
    let unlimited = |q: &Expr| run(q, &db, &Limits::default(), false).outcome.unwrap();
    let q = key_hash_query(&[], &[2], false);
    assert_eq!(
        unlimited(&q),
        Bag::from_counted([
            (t(&[0]), Natural::from(4u64)),
            (t(&[2]), Natural::from(8u64)),
        ])
    );
    assert_eq!(tags(&q, &db, false), ["key-hash"]);
    let q = key_hash_query(&[seek, scan], &[2, 1], false);
    assert_eq!(
        unlimited(&q),
        Bag::from_counted([
            (t(&[0, 1]), Natural::from(3u64)),
            (t(&[0, 2]), Natural::from(1u64)),
        ])
    );
    assert_eq!(tags(&q, &db, false), ["in-place", "key-hash", "seek"]);
    // A projection led by `α₁` stays on the per-row loop.
    let q = key_hash_query(&[], &[1, 3], false);
    assert!(tags(&q, &db, false).is_empty());
}

/// The cache pays off across repeated joins against a stable operand: an
/// IFP transitive closure joins the growing accumulator against the fixed
/// edge bag every round, and after the first round the edge index is a
/// hit, not a rebuild. The reference computes the same closure and builds
/// no index.
#[test]
fn ifp_join_reuses_the_cached_index() {
    let g = Bag::from_values((0..12i64).map(|i| pair(i, (i + 1) % 12)));
    let step = join_query("T", "G", 2, 3).project(&[1, 4]).dedup();
    let q = Expr::var("G").ifp("T", step);
    let db = Database::new().with("G", g);
    let mut ev = Evaluator::new(&db, Limits::default());
    let closure = ev.eval_bag(&q).unwrap();
    assert_eq!(closure.distinct_count(), 12 * 12); // a cycle closes completely
    let (hits, builds) = ev.index_stats();
    assert!(
        hits > builds,
        "iterated joins must reuse the cached edge index: {hits} hits, {builds} builds"
    );
    let mut reference = Evaluator::new(&db, Limits::default());
    reference.set_reference(true);
    assert_eq!(reference.eval_bag(&q).unwrap(), closure);
    assert_eq!(reference.index_stats(), (0, 0));
}

/// A `⊑` filter is an ordinary σ stage on both settings and keeps lazy
/// error behaviour: when no row reaches it, the hoisted right-hand side is
/// never evaluated; once one does, both settings fail the same way.
#[test]
fn named_subbag_shapes() {
    let db = Database::new()
        .with("EMPTY", Bag::new())
        .with("B", Bag::from_values([Value::sym("a")]))
        .with("C", Bag::from_values((0..4).map(Value::int)));
    let bad_rhs = Expr::var("B").destroy(); // δ over atoms: a shape error
    let subbag =
        |input: &str, lhs: Expr, rhs: Expr| Expr::var(input).select("s", Pred::SubBag(lhs, rhs));
    let lazy = subbag("EMPTY", Expr::var("s"), bad_rhs.clone());
    check("generated", &lazy, &db);
    assert_eq!(
        run(&lazy, &db, &Limits::default(), false).outcome,
        Ok(Bag::new())
    );
    for lhs in [Expr::var("s").singleton(), Expr::var("s")] {
        let q = subbag("B", lhs, bad_rhs.clone());
        check("generated", &q, &db);
        assert!(run(&q, &db, &Limits::default(), false).outcome.is_err());
    }
    // σ_{s ⊑ C}(P(C)), the powerset-shaped workload.
    let q = Expr::var("C")
        .powerset()
        .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
    check("generated", &q, &db);
}

#[test]
fn named_ifp_shapes() {
    let cycle = vec![(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)];
    let chain = vec![(0, 1, 1), (1, 2, 2), (2, 3, 1)];
    let seeds = [vec![], vec![(0, 1, 3)], chain.clone(), cycle.clone()];
    let eligible = [
        hop(t(), e(), 1, 4),
        hop(e(), t(), 1, 4),
        hop(t().select("x", Pred::lt(own(1), own(2))), e(), 1, 4),
        t().project(&[2, 1]),
        t().product(e()).project(&[1, 4]),
        t().additive_union(e()),
        t().map("y", with_mirror()).destroy(),
        t().select(
            "T",
            Pred::le(Expr::var("T").attr(1), Expr::var("T").attr(2)),
        )
        .project(&[2, 1]),
    ];
    let fixpoint = |body: Expr| Expr::var("G").ifp("T", body);
    let var = Var::from("T");
    for edges in [&cycle, &chain] {
        for seed in &seeds {
            let db = ifp_database(seed.clone(), edges.clone());
            for f in &eligible {
                let body = f.clone().dedup();
                assert!(ifp_delta_form(&var, &body), "declined: {body}");
                check("semi-naive", &fixpoint(body), &db);
            }
            for (name, body) in ifp_near_misses() {
                assert!(!ifp_delta_form(&var, &body), "accepted: {name}");
                check("semi-naive", &fixpoint(body), &db);
            }
        }
    }
    // One absolute answer, so both sides cannot be wrong together: the
    // closure of a 4-cycle is all 16 pairs, reached in four rounds, and
    // the fixpoint's frame says it ran semi-naively, after the join its
    // body ran.
    let db = ifp_database(cycle.clone(), cycle);
    let closure = fixpoint(hop(t(), e(), 1, 4).dedup());
    let traced = run(&closure, &db, &Limits::default(), false);
    assert_eq!(traced.outcome.unwrap().distinct_count(), 16);
    assert_eq!(traced.rounds, 4);
    assert_eq!(tags(&closure, &db, false), ["indexed-join", "semi-naive"]);
    // And an error that surfaces in round 2 with the same payload on both:
    // the first round derives unary rows, the second asks them for `α₂`.
    let failing = fixpoint(t().project(&[2]).dedup());
    check("semi-naive", &failing, &db);
    let [got, want] =
        [false, true].map(|reference| run(&failing, &db, &Limits::default(), reference));
    assert!(
        matches!(got.outcome, Err(EvalError::Bag(_))),
        "{:?}",
        got.outcome
    );
    assert_eq!((&got.outcome, got.rounds), (&want.outcome, 2));
}
