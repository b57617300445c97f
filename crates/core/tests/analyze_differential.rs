//! The static analyzer's soundness gate: for random expressions over a
//! fixed schema and random conforming databases, every certificate the
//! analyzer issues is checked against an actual evaluation.
//!
//! Per accepted expression:
//!
//! - the **inferred type** must be compatible with the evaluated output's
//!   own inferred type (equal wherever both are concrete — `Unknown` only
//!   arises from empty bags in the output);
//! - a **`cannot_error`** certificate must never be contradicted: if
//!   evaluation fails anyway, the failure must be a *resource budget*
//!   (step / element / multiplicity / fixpoint limit, or a predicted
//!   `TooLarge`), never a shape error;
//! - a **set-ness** certificate (`duplicate_free`) means every
//!   multiplicity in the output bag is exactly one.
//!
//! Per generated expression, accepted or not, [`check_static`] holds the
//! typed pass against references that need no evaluation: the fragment
//! facts equal their syntactic definitions, the two tractability readings
//! (cost class, power nesting) agree, and `infer_type` is `analyze`'s type.
//!
//! Analyzer *rejections* assert nothing — the analyzer is deliberately
//! conservative (a doomed λ body over a bag that happens to be empty
//! evaluates fine but is still statically rejected). Linearity
//! certificates are checked against the incremental engine's counters in
//! `balg-incremental`'s `linearity_differential` suite instead.

mod expr_gen;

use balg_core::analyze::{analyze, infer_type, AnalyzeError, CostClass, Facts};
use balg_core::bag::{Bag, BagError};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::{Database, Schema};
use balg_core::types::Type;
use balg_core::value::Value;
use expr_gen::{db_strategy, pair, unary, Gen};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn limits() -> Limits {
    Limits {
        max_bag_elements: 1 << 10,
        max_multiplicity_bits: 1 << 9,
        max_steps: 1_000_000,
        max_ifp_iterations: 32,
    }
}

/// The suite's schema: two unary relations and one binary one.
fn schema() -> Schema {
    Schema::new()
        .with("R", Type::relation(1))
        .with("S", Type::relation(1))
        .with("G", Type::relation(2))
}

fn is_resource_limit(e: &EvalError) -> bool {
    matches!(
        e,
        EvalError::StepLimit(_)
            | EvalError::ElementLimit { .. }
            | EvalError::MultiplicityLimit { .. }
            | EvalError::IfpLimit(_)
            | EvalError::Bag(BagError::TooLarge { .. })
    )
}

/// One differential case: analyze, evaluate, cross-check every issued
/// certificate.
fn check_case(expr: &Expr, facts: &Facts, db: &Database) {
    let mut ev = Evaluator::new(db, limits());
    match ev.eval(expr) {
        Ok(value) => {
            let actual = value
                .infer_type()
                .expect("an analyzer-accepted expression evaluated to a non-object");
            assert!(
                actual.compatible(&facts.ty),
                "inferred type {} incompatible with actual output type {} for {expr}",
                facts.ty,
                actual
            );
            if facts.duplicate_free {
                if let Value::Bag(bag) = &value {
                    assert!(
                        bag.iter().all(|(_, mult)| mult.is_one()),
                        "set-ness certificate contradicted: {expr} produced {bag}"
                    );
                }
            }
        }
        Err(e) => {
            if facts.cannot_error {
                assert!(
                    is_resource_limit(&e),
                    "cannot-error certificate contradicted by a shape error: \
                     {e} for {expr}"
                );
            }
        }
    }
}

/// Syntactic reference for the power nesting: the maximal number of
/// `P`/`P_b` on a root-to-leaf path, predicates included.
fn power_nesting_ref(expr: &Expr) -> usize {
    let mut deepest = 0;
    let mut child = |e: &Expr| deepest = deepest.max(power_nesting_ref(e));
    match expr {
        Expr::Var(_) | Expr::Lit(_) => {}
        Expr::AdditiveUnion(a, b)
        | Expr::Subtract(a, b)
        | Expr::MaxUnion(a, b)
        | Expr::Intersect(a, b)
        | Expr::Product(a, b) => {
            child(a);
            child(b);
        }
        Expr::Tuple(fields) => fields.iter().for_each(&mut child),
        Expr::Singleton(e)
        | Expr::Powerset(e)
        | Expr::Powerbag(e)
        | Expr::Attr(e, _)
        | Expr::Destroy(e)
        | Expr::Dedup(e)
        | Expr::Nest { input: e, .. } => child(e),
        Expr::Map { body, input, .. } | Expr::Ifp { body, input, .. } => {
            child(body);
            child(input);
        }
        Expr::Select { pred, input, .. } => {
            child(input);
            pred.visit_exprs(&mut child);
        }
    }
    deepest + usize::from(matches!(expr, Expr::Powerset(_) | Expr::Powerbag(_)))
}

fn pred_uses_order(pred: &Pred) -> bool {
    match pred {
        Pred::Lt(_, _) | Pred::Le(_, _) => true,
        Pred::Not(p) => pred_uses_order(p),
        Pred::And(a, b) | Pred::Or(a, b) => pred_uses_order(a) || pred_uses_order(b),
        _ => false,
    }
}

/// The checks that need no database: fragment facts against their
/// syntactic definitions, the cost class against the power nesting, and
/// the type-only entry against the full analysis.
fn check_static(expr: &Expr, analyzed: &Result<Facts, AnalyzeError>) {
    assert_eq!(
        infer_type(expr, &schema()),
        analyzed.clone().map(|facts| facts.ty),
        "infer_type and analyze disagree on {expr}"
    );
    let Ok(facts) = analyzed else { return };
    assert_eq!(facts.power_nesting, power_nesting_ref(expr), "{expr}");
    let uses = |name: &str, flag: bool, wanted: fn(&Expr) -> bool| {
        let mut found = false;
        expr.visit(&mut |e| found |= wanted(e));
        assert_eq!(flag, found, "uses_{name} of {expr}");
    };
    uses("powerset", facts.uses_powerset, |e| {
        matches!(e, Expr::Powerset(_))
    });
    uses("powerbag", facts.uses_powerbag, |e| {
        matches!(e, Expr::Powerbag(_))
    });
    uses("ifp", facts.uses_ifp, |e| matches!(e, Expr::Ifp { .. }));
    uses("nest", facts.uses_nest, |e| matches!(e, Expr::Nest { .. }));
    uses("dedup", facts.uses_dedup, |e| matches!(e, Expr::Dedup(_)));
    uses("subtract", facts.uses_subtract, |e| {
        matches!(e, Expr::Subtract(_, _))
    });
    uses(
        "order",
        facts.uses_order,
        |e| matches!(e, Expr::Select { pred, .. } if pred_uses_order(pred)),
    );
    assert_eq!(
        matches!(facts.cost, CostClass::Polynomial(_)),
        facts.power_nesting == 0 && !facts.uses_ifp,
        "cost {} vs power nesting {} of {expr}",
        facts.cost,
        facts.power_nesting
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 random (expression, database) pairs spanning every operator,
    /// both arities, and the deliberately doomed shapes.
    #[test]
    fn certificates_survive_evaluation(
        seed in 0u64..1_000_000_000,
        depth in 1usize..5,
        arity in 1usize..3,
        db in db_strategy(),
    ) {
        let expr = Gen::new(seed).expr(depth, arity);
        let analyzed = analyze(&expr, &schema());
        check_static(&expr, &analyzed);
        if let Ok(facts) = analyzed {
            check_case(&expr, &facts, &db);
        }
    }
}

/// The generator actually exercises both sides of each certificate:
/// accepted and rejected expressions, duplicate-free and duplicate-prone
/// outputs, polynomial and blowup-class costs.
#[test]
fn generator_reaches_both_sides_of_every_certificate() {
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut dup_free = 0usize;
    let mut dup_prone = 0usize;
    let mut blowup = 0usize;
    for seed in 0..400u64 {
        let expr = Gen::new(seed).expr(3, 1 + (seed % 2) as usize);
        match analyze(&expr, &schema()) {
            Ok(facts) => {
                accepted += 1;
                if facts.duplicate_free {
                    dup_free += 1;
                } else {
                    dup_prone += 1;
                }
                if facts.cost.blowup_risk() {
                    blowup += 1;
                }
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    assert!(dup_free > 0 && dup_prone > 0, "{dup_free} / {dup_prone}");
    assert!(blowup > 0, "no powerset-class expression generated");
}

/// Deterministic pin of the full certificate bundle for one expression
/// of each headline class.
#[test]
fn headline_certificates_hold_on_a_concrete_database() {
    let db = Database::new()
        .with(
            "R",
            Bag::from_counted([(unary(0), Natural::from(2u64)), (unary(1), 1u64.into())]),
        )
        .with("S", Bag::from_values([unary(1), unary(2)]))
        .with("G", Bag::from_values([pair(0, 1), pair(1, 2), pair(0, 1)]));

    // ε(R) — duplicate-free, polynomial, cannot error.
    let dedup = Expr::var("R").dedup();
    let facts = analyze(&dedup, &schema()).unwrap();
    assert!(facts.duplicate_free && facts.cannot_error);
    assert!(!facts.cost.blowup_risk());
    check_case(&dedup, &facts, &db);

    // R ∪⁺ R — duplicate-prone; the evaluation confirms multiplicity 4.
    let doubled = Expr::var("R").additive_union(Expr::var("R"));
    let facts = analyze(&doubled, &schema()).unwrap();
    assert!(!facts.duplicate_free);
    check_case(&doubled, &facts, &db);
    let out = balg_core::eval::eval_bag(&doubled, &db).unwrap();
    assert_eq!(out.multiplicity(&unary(0)), Natural::from(4u64));

    // P(ε(R)) — certified a set *and* a blowup risk at once.
    let power = Expr::var("R").dedup().powerset();
    let facts = analyze(&power, &schema()).unwrap();
    assert!(facts.duplicate_free && facts.cost.blowup_risk());
    check_case(&power, &facts, &db);

    // A power operator and an order comparison reached only through a
    // predicate (the generator's predicates hold neither).
    let below = Expr::var("R").select(
        "x",
        Pred::SubBag(
            Expr::var("x").singleton(),
            Expr::var("S").powerset().destroy(),
        )
        .and(Pred::le(Expr::var("x").attr(1), Expr::lit(Value::int(1)))),
    );
    let analyzed = analyze(&below, &schema());
    check_static(&below, &analyzed);
    let facts = analyzed.unwrap();
    assert_eq!(facts.power_nesting, 1);
    assert!(facts.uses_order && facts.cost.blowup_risk());
    check_case(&below, &facts, &db);
}
