//! Differential gate for the semi-naive inflationary fixpoint.
//!
//! An `IFP` whose body is `ε(f)` with the fixpoint variable read once,
//! linearly, in `f` ([`ifp_delta_form`]) is evaluated on the tuples the
//! last round added instead of on the whole accumulator. The reference is
//! the same query with the body hidden behind a `∪ ∅`, which the
//! recogniser does not see through, so it runs the full-accumulator loop
//! and pays two more steps a round (the `∪` and the `∅`).
//!
//! * **Eligible bodies** (generated from σ/π/`MAP`/`×`/`∪⁺`/`δ` over `T`
//!   with `T`-free operands): the same outcome — bag or error, payload
//!   included — and `ifp_iterations`, at every `max_ifp_iterations` from 1
//!   to convergence, for no more steps than the reference spends on the
//!   same nodes.
//! * **Near misses** (no outer `ε`, `T × T`, `T ∪⁺ T`, `T` under
//!   `∸`/`∩`/`∪`/`nest`/`powerset`/an inner `IFP`, `T` read in a predicate
//!   or a `MAP` body): the recogniser declines, and the loop is the
//!   reference's step for step.
//!
//! Every comparison runs on the indexed, the `set_indexing(false)` and the
//! 4-chunk/threshold-0 path, which must also agree with each other.

use balg_core::analyze::ifp_delta_form;
use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

const PATHS: [&str; 3] = ["indexed", "scan", "chunked"];

/// Rounds allowed when the test is not sweeping the limit: more than any
/// eligible body needs over the four-value domain, few enough that a body
/// that never converges (multiplicities counting derivations) stays small.
const ROUNDS: u64 = 24;

struct Run {
    outcome: Result<Bag, EvalError>,
    steps: u64,
    rounds: u64,
}

fn run(q: &Expr, db: &Database, path: &str, max_ifp_iterations: u64) -> Run {
    let limits = Limits {
        max_ifp_iterations,
        ..Limits::default()
    };
    let mut ev = Evaluator::new(db, limits);
    match path {
        "scan" => ev.set_indexing(false),
        "chunked" => {
            ev.set_parallel_threads(4);
            ev.set_parallel_threshold(0);
        }
        _ => {}
    }
    let outcome = ev.eval_bag(q);
    Run {
        outcome,
        steps: ev.metrics().steps,
        rounds: ev.metrics().ifp_iterations,
    }
}

fn t() -> Expr {
    Expr::var("T")
}

fn e() -> Expr {
    Expr::var("E")
}

fn own(var: &str, i: usize) -> Expr {
    Expr::var(var).attr(i)
}

fn int(c: i64) -> Expr {
    Expr::lit(Value::int(c))
}

fn fixpoint(body: Expr) -> Expr {
    Expr::var("G").ifp("T", body)
}

/// The body behind `layers` of `∪ ∅`: same value, never in delta form.
fn hidden(body: &Expr, layers: usize) -> Expr {
    (0..layers).fold(body.clone(), |b, _| b.max_union(Expr::empty_bag()))
}

/// `π_{i,j}(σ_{α₂=α₃}(left × right))` — one step along an edge.
fn hop(left: Expr, right: Expr, i: usize, j: usize) -> Expr {
    left.product(right)
        .select("x", Pred::eq(own("x", 2), own("x", 3)))
        .project(&[i, j])
}

/// `λy.⟦y⟧ ∪⁺ ⟦[α₂(y), α₁(y)]⟧` — a row and its mirror image, for `δ`.
fn with_mirror() -> Expr {
    Expr::var("y")
        .singleton()
        .additive_union(Expr::tuple([own("y", 2), own("y", 1)]).singleton())
}

/// A `T`-free predicate on the row `x`. `α₃` misses a binary row: an
/// error, in whichever round first sees such a row.
fn row_pred() -> BoxedStrategy<Pred> {
    prop_oneof![
        Just(Pred::True),
        Just(Pred::lt(own("x", 1), own("x", 2))),
        (1usize..3, 0i64..4).prop_map(|(i, c)| Pred::eq(own("x", i), int(c))),
        (1usize..3, 0i64..4).prop_map(|(i, c)| Pred::le(own("x", i), int(c)).not()),
        Just(Pred::Member(Expr::var("x"), e())),
        (0i64..4)
            .prop_map(|c| Pred::lt(own("x", 1), own("x", 2)).or(Pred::eq(own("x", 3), int(c)))),
    ]
    .boxed()
}

/// A `T`-free bag operand.
fn constant_operand() -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(e()),
        (0i64..4).prop_map(|c| e().select("x", Pred::eq(own("x", 1), int(c)))),
        (0i64..4, 0i64..4)
            .prop_map(|(a, b)| Expr::bag_lit([Value::tuple([Value::int(a), Value::int(b)])])),
        // Its own λ is called `T`: bound there, so still `T`-free.
        Just(e().map("T", Expr::tuple([own("T", 2), own("T", 1)]))),
    ]
    .boxed()
}

/// `f` with exactly one linear read of `T`. Half the time the outermost
/// operator is a hop along `E`, so that the fixpoint takes several rounds
/// instead of closing on the seed.
fn linear_in_t() -> BoxedStrategy<Expr> {
    let f = linear_steps();
    prop_oneof![
        f.clone(),
        f.clone().prop_map(|f| hop(f, e(), 1, 4)),
        f.prop_map(|f| hop(e(), f, 1, 4)),
    ]
    .boxed()
}

fn linear_steps() -> BoxedStrategy<Expr> {
    Just(t())
        .boxed()
        .prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), row_pred()).prop_map(|(f, p)| f.select("x", p)),
                // A λ that rebinds the name `T` over the row.
                inner
                    .clone()
                    .prop_map(|f| f.select("T", Pred::le(own("T", 1), own("T", 2)))),
                (inner.clone(), 1usize..4, 1usize..3).prop_map(|(f, i, j)| f.project(&[i, j])),
                (inner.clone(), 0i64..4)
                    .prop_map(|(f, c)| f.map("y", Expr::tuple([own("y", 2), int(c)]))),
                (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                    .prop_map(|(f, k, i, j)| hop(f, k, i, j)),
                (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                    .prop_map(|(f, k, i, j)| hop(k, f, i, j)),
                (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                    .prop_map(|(f, k, i, j)| f.product(k).project(&[i, j])),
                (inner.clone(), constant_operand()).prop_map(|(f, k)| f.additive_union(k)),
                (inner.clone(), constant_operand()).prop_map(|(f, k)| k.additive_union(f)),
                inner.prop_map(|f| f.map("y", with_mirror()).destroy()),
            ]
        })
        .boxed()
}

/// The bodies the recogniser must decline, by name.
fn near_misses() -> Vec<(&'static str, Expr)> {
    let reach = |from: Expr| hop(from, e(), 1, 4);
    vec![
        // Multiplicity = number of derivations: every old tuple counts.
        ("no outer ε", reach(t())),
        ("no outer ε, ε inside", reach(t().dedup())),
        ("T × T", hop(t(), t(), 1, 4).dedup()),
        ("T ∪⁺ T", t().additive_union(t()).project(&[2, 1]).dedup()),
        ("T ∸ E", reach(t().subtract(e())).dedup()),
        ("E ∸ T", e().subtract(t()).project(&[2, 1]).dedup()),
        ("T ∩ E", reach(t().intersect(e())).dedup()),
        ("T ∪ E", reach(t().max_union(e())).dedup()),
        (
            "nest",
            t().nest(&[1])
                .map("y", own("y", 2))
                .destroy()
                .map("y", Expr::tuple([own("y", 1), own("y", 1)]))
                .dedup(),
        ),
        (
            "powerset",
            t().select("x", Pred::eq(own("x", 1), own("x", 2)))
                .powerset()
                .destroy()
                .project(&[2, 1])
                .dedup(),
        ),
        (
            "T in a σ predicate",
            e().select("x", Pred::Member(Expr::var("x"), t()))
                .project(&[2, 1])
                .dedup(),
        ),
        (
            "T in a MAP body",
            e().map("y", t().select("z", Pred::eq(own("z", 1), own("y", 2))))
                .destroy()
                .dedup(),
        ),
        // The inner fixpoint rebinds `T`; its seed is the outer `T`.
        (
            "inner IFP seeded by T",
            t().ifp("T", reach(t()).dedup()).dedup(),
        ),
        (
            "inner IFP reading T",
            e().ifp("S", hop(Expr::var("S"), t(), 1, 4).dedup()).dedup(),
        ),
    ]
}

fn database(g: Vec<(i64, i64, u64)>, e: Vec<(i64, i64, u64)>) -> Database {
    let bag = |rows: Vec<(i64, i64, u64)>| {
        Bag::from_counted(rows.into_iter().map(|(a, b, m)| {
            (
                Value::tuple([Value::int(a), Value::int(b)]),
                Natural::from(m),
            )
        }))
    };
    Database::new().with("G", bag(g)).with("E", bag(e))
}

/// Delta form against the full-accumulator reference, on every path.
fn assert_eligible(body: &Expr, db: &Database) {
    assert!(ifp_delta_form(&Var::from("T"), body), "declined: {body}");
    let (plain, reference) = (fixpoint(body.clone()), fixpoint(hidden(body, 1)));
    // `π` directly over `×` projects one side and scales it only when the
    // product outweighs its operands, and streams the pairs of a small one
    // at a step each: the one place a smaller operand can be charged more.
    let mut sized_plan = false;
    body.visit(&mut |node| {
        sized_plan |=
            matches!(node, Expr::Map { input, .. } if matches!(**input, Expr::Product(..)));
    });
    let mut first: Option<Run> = None;
    for path in PATHS {
        let got = run(&plain, db, path, ROUNDS);
        let want = run(&reference, db, path, ROUNDS);
        assert_eq!(got.outcome, want.outcome, "{path}: outcome of {plain}");
        assert_eq!(got.rounds, want.rounds, "{path}: rounds of {plain}");
        // The reference pays for its `∪` and `∅` every round; a round the
        // body fails in never reaches the `∅`.
        let fails_in_body = matches!(&got.outcome, Err(e) if !matches!(e, EvalError::IfpLimit(_)));
        assert!(
            sized_plan || got.steps + 2 * got.rounds <= want.steps + u64::from(fails_in_body),
            "{path}: {} steps over {} rounds against the reference's {} for {plain}",
            got.steps,
            got.rounds,
            want.steps
        );
        // `IfpLimit` fires in the same round; one round more converges.
        for limit in 1..=got.rounds {
            let (got, want) = (
                run(&plain, db, path, limit),
                run(&reference, db, path, limit),
            );
            assert_eq!(
                (got.outcome, got.rounds),
                (want.outcome, want.rounds),
                "{path}: max_ifp_iterations = {limit} for {plain}"
            );
        }
        match &first {
            None => first = Some(got),
            Some(first) => assert_eq!(
                (&got.outcome, got.steps),
                (&first.outcome, first.steps),
                "{path} against {} for {plain}",
                PATHS[0]
            ),
        }
    }
}

/// A declined body runs the reference's loop step for step. The rounds of
/// a nested fixpoint are not the outer loop's, so instead of subtracting
/// two steps a round the body is hidden twice: each layer of `∪ ∅` must
/// cost the same, which it does only if the bare body already ran once per
/// round over the same accumulator.
fn assert_declined(name: &str, body: &Expr, db: &Database) {
    assert!(!ifp_delta_form(&Var::from("T"), body), "accepted: {name}");
    let queries = [0, 1, 2].map(|layers| fixpoint(hidden(body, layers)));
    for path in PATHS {
        let [plain, once, twice] = queries.each_ref().map(|q| run(q, db, path, ROUNDS));
        assert_eq!(plain.outcome, once.outcome, "{path}: outcome of {name}");
        assert_eq!(plain.rounds, once.rounds, "{path}: rounds of {name}");
        assert_eq!(
            once.steps - plain.steps,
            twice.steps - once.steps,
            "{path}: {name} is not the full-accumulator loop ({} / {} / {} steps)",
            plain.steps,
            once.steps,
            twice.steps
        );
    }
}

/// Up to `max` binary rows over a four-value domain, multiplicities 1–3.
fn rows(max: usize) -> BoxedStrategy<Vec<(i64, i64, u64)>> {
    vec((0i64..4, 0i64..4, 1u64..4), 0..max).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_form_matches_the_full_accumulator(
        f in linear_in_t(),
        g in rows(5),
        e in rows(9),
    ) {
        assert_eligible(&f.dedup(), &database(g, e));
    }

    #[test]
    fn near_misses_run_the_full_loop(
        pick in 0usize..64,
        g in rows(5),
        e in rows(9),
    ) {
        let shapes = near_misses();
        let (name, body) = &shapes[pick % shapes.len()];
        assert_declined(name, body, &database(g, e));
    }
}

/// The shapes the issue names, on fixed data: a cycle (so the closure
/// saturates and `derived` is never empty), a chain, seeds with
/// multiplicities, and the empty seed.
#[test]
fn named_shapes() {
    let cycle = vec![(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)];
    let chain = vec![(0, 1, 1), (1, 2, 2), (2, 3, 1)];
    let seeds = [vec![], vec![(0, 1, 3)], chain.clone(), cycle.clone()];
    let eligible = [
        hop(t(), e(), 1, 4),
        hop(e(), t(), 1, 4),
        hop(
            t().select("x", Pred::lt(own("x", 1), own("x", 2))),
            e(),
            1,
            4,
        ),
        t().project(&[2, 1]),
        t().product(e()).project(&[1, 4]),
        t().additive_union(e()),
        t().map("y", with_mirror()).destroy(),
        t().select("T", Pred::le(own("T", 1), own("T", 2)))
            .project(&[2, 1]),
    ];
    for edges in [&cycle, &chain] {
        for seed in &seeds {
            let db = database(seed.clone(), edges.clone());
            for f in &eligible {
                assert_eligible(&f.clone().dedup(), &db);
            }
            for (name, body) in near_misses() {
                assert_declined(name, &body, &db);
            }
        }
    }
    // One absolute answer, so both sides cannot be wrong together: the
    // closure of a 4-cycle is all 16 pairs, reached in four rounds.
    let db = database(cycle.clone(), cycle);
    let closure = run(
        &fixpoint(hop(t(), e(), 1, 4).dedup()),
        &db,
        "indexed",
        ROUNDS,
    );
    assert_eq!(closure.outcome.unwrap().distinct_count(), 16);
    assert_eq!(closure.rounds, 4);
    // And an error that surfaces in round 2 with the same payload: the
    // first round derives unary rows, the second asks them for `α₂`.
    let body = t().project(&[2]).dedup();
    assert_eligible(&body, &db);
    let failed = run(&fixpoint(body), &db, "indexed", ROUNDS);
    assert!(
        matches!(failed.outcome, Err(EvalError::Bag(_))),
        "{:?}",
        failed.outcome
    );
    assert_eq!(failed.rounds, 2);
}
