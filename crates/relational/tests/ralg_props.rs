//! Property tests for the RALG set semantics and the Prop 4.2 boundary.

use balg_core::bag::Bag;
use balg_core::eval::{eval_bag, Evaluator, Limits};
use balg_core::natural::Natural;
use balg_core::rewrite::optimize;
use balg_core::schema::{Database, Schema};
use balg_core::types::Type;
use balg_core::value::Value;
use balg_relational::prelude::*;
use proptest::prelude::*;

fn relation() -> impl Strategy<Value = Relation> {
    proptest::collection::btree_set(0u8..6, 0..6).prop_map(|elems| {
        Relation::from_values(
            elems
                .into_iter()
                .map(|e| Value::tuple([Value::int(e as i64)])),
        )
    })
}

fn noisy_bag() -> impl Strategy<Value = Bag> {
    proptest::collection::btree_map((0u8..4, 0u8..4), 1u64..5, 0..8).prop_map(|edges| {
        Bag::from_counted(edges.into_iter().map(|((a, b), m)| {
            (
                Value::tuple([Value::int(a as i64), Value::int(b as i64)]),
                Natural::from(m),
            )
        }))
    })
}

/// A literal small unary relation.
fn small_lit() -> impl Strategy<Value = RalgExpr> {
    proptest::collection::btree_set(0u8..4, 0..3).prop_map(|elems| {
        RalgExpr::Lit(Value::bag(
            elems
                .into_iter()
                .map(|e| Value::tuple([Value::int(e as i64)])),
        ))
    })
}

/// Random relation-valued RALG queries over the fixed `R`/`S` database:
/// the whole operator surface (union, intersection, difference, product,
/// selection, map, powerset, flatten) with attribute indices that may or
/// may not be in range — out-of-range queries must fail on *both*
/// evaluation routes.
fn ralg_query() -> impl Strategy<Value = RalgExpr> {
    let leaf = prop_oneof![
        Just(RalgExpr::var("R")),
        Just(RalgExpr::var("S")),
        small_lit(),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.product(b)),
            (inner.clone(), 1usize..4, 1usize..4).prop_map(|(e, i, j)| {
                e.select(
                    "x",
                    RalgPred::Eq(RalgExpr::var("x").attr(i), RalgExpr::var("x").attr(j)),
                )
            }),
            (inner.clone(), 1usize..4)
                .prop_map(|(e, i)| { e.map("x", RalgExpr::tuple([RalgExpr::var("x").attr(i)])) }),
            inner.prop_map(|e| e.map("x", RalgExpr::var("x").singleton())),
            // Powerset only over the small leaves, to keep 2^n tame.
            prop_oneof![Just(RalgExpr::var("S")), small_lit()].prop_map(RalgExpr::powerset),
            Just(RalgExpr::var("S").powerset().flatten()),
        ]
    })
}

/// The fixed database the differential test runs against: noisy
/// multiplicities so the `DB′` dedup view actually differs from the bags.
fn differential_db() -> Database {
    let mut r = Bag::new();
    for (a, b, m) in [(0, 1, 3u64), (1, 2, 1), (2, 0, 2), (1, 0, 1)] {
        r.insert_with_multiplicity(
            Value::tuple([Value::int(a), Value::int(b)]),
            Natural::from(m),
        );
    }
    let mut s = Bag::new();
    for (v, m) in [(0, 2u64), (1, 1), (3, 4)] {
        s.insert_with_multiplicity(Value::tuple([Value::int(v)]), Natural::from(m));
    }
    Database::new().with("R", r).with("S", s)
}

/// The schema `differential_db` conforms to.
fn differential_schema() -> Schema {
    Schema::new()
        .with("R", Type::relation(2))
        .with("S", Type::relation(1))
}

/// Why the optimized embedding is the fast RALG route: given a schema,
/// `optimize` drops the `ε` the embedding puts between `σ` and `×`, so
/// the BALG evaluator's fused join runs and the product is never built.
/// The raw embedding builds all n² pairs. The query is two-step paths,
/// `π₁,₄(σ_{α₂=α₃}(G × G))`, the one the README's RALG route table
/// measures.
#[test]
fn optimized_embedding_never_builds_the_join_product() {
    let n = 64;
    let cycle = (0..n).map(|i| Value::tuple([Value::int(i), Value::int((i + 1) % n)]));
    let db = Database::new().with("G", Bag::from_values(cycle));
    let q = RalgExpr::var("G")
        .product(RalgExpr::var("G"))
        .select(
            "x",
            RalgPred::eq(RalgExpr::var("x").attr(2), RalgExpr::var("x").attr(3)),
        )
        .map(
            "x",
            RalgExpr::tuple([RalgExpr::var("x").attr(1), RalgExpr::var("x").attr(4)]),
        );
    let reference = RalgEvaluator::new(&db, Limits::default())
        .eval_relation(&q)
        .unwrap();
    assert_eq!(reference.len(), 64);

    let raw = ralg_to_balg(&q);
    let optimized = optimize(&raw, &Schema::new().with("G", Type::relation(2)));
    let run = |expr| {
        let mut ev = Evaluator::new(&db, Limits::default());
        let bag = ev.eval_bag(expr).unwrap();
        (bag, ev.metrics().max_distinct_elements)
    };
    let (bag, widest) = run(&optimized);
    assert_eq!(&bag, reference.as_bag());
    assert!(widest <= 64, "{optimized} built a {widest}-element bag");
    let (bag, widest) = run(&raw);
    assert_eq!(&bag, reference.as_bag());
    assert_eq!(widest, 4_096);
}

proptest! {
    #[test]
    fn set_laws(a in relation(), b in relation(), c in relation()) {
        // Boolean-algebra laws that hold for sets but NOT for bags under
        // ∪⁺/−: idempotence and absorption.
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(
            a.union(&b).intersect(&a.union(&c)),
            a.union(&b.intersect(&c))
        );
        // Difference laws.
        prop_assert_eq!(a.difference(&b).intersect(&b), Relation::new());
        prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a.clone());
    }

    #[test]
    fn dedup_view_forgets_exactly_multiplicity(bag in noisy_bag()) {
        let rel = Relation::from_bag(&bag);
        prop_assert_eq!(rel.len(), bag.distinct_count());
        for value in bag.elements() {
            prop_assert!(rel.contains(value));
        }
    }

    #[test]
    fn prop_4_2_on_random_bags(bag in noisy_bag()) {
        // The subtraction-free identity query family commutes with
        // dedup via the translation.
        let db = Database::new().with("G", bag);
        let q = balg_core::expr::Expr::var("G")
            .project(&[2, 1])
            .additive_union(balg_core::expr::Expr::var("G").project(&[1, 2]));
        prop_assert!(check_prop_4_2(&q, &db).unwrap());
    }

    #[test]
    fn embedding_respects_powerset(rel in relation()) {
        // P on the RALG side == dedup'd bag powerset of the dedup'd bag.
        if rel.len() <= 8 {
            let db = Database::new().with("R", rel.as_bag().clone());
            let direct = RalgEvaluator::new(&db, balg_core::eval::Limits::default())
                .eval_relation(&RalgExpr::var("R").powerset())
                .unwrap();
            let embedded = ralg_to_balg(&RalgExpr::var("R").powerset());
            let via_balg = balg_core::eval::eval_bag(&embedded, &db).unwrap();
            prop_assert_eq!(Relation::from_bag(&via_balg), direct);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The differential property pinning the `ralg_to_balg` embedding to
    /// the direct set-semantics reference: every random RALG
    /// query must produce, via direct evaluation, exactly the bag the BALG
    /// embedding computes — not just the same support, the same
    /// (set-shaped) value. Queries that fail (out-of-range attributes,
    /// products over non-tuples) must fail on both routes. So is the fast
    /// route, the embedding through `optimize`, which hands an embedding
    /// `analyze` rejects under the database's schema back unchanged.
    #[test]
    fn direct_eval_agrees_with_balg_embedding(q in ralg_query()) {
        let db = differential_db();
        let schema = differential_schema();
        let direct = RalgEvaluator::new(&db, Limits::default()).eval_relation(&q);
        let embedded = ralg_to_balg(&q);
        let routes = [
            ("embedding", eval_bag(&embedded, &db)),
            ("optimized embedding", eval_bag(&optimize(&embedded, &schema), &db)),
        ];
        for (route, via) in routes {
            match (&direct, via) {
                (Ok(direct), Ok(via)) => {
                    prop_assert!(
                        is_set_value(&Value::Bag(via.clone())),
                        "{} produced duplicates: {}", route, via
                    );
                    prop_assert_eq!(direct.as_bag(), &via, "{}", route);
                }
                (Err(_), Err(_)) => {} // both routes reject, e.g. BadArity
                (direct, via) => panic!("{route} divergence: direct={direct:?} via={via:?}"),
            }
        }
    }
}
