//! Cross-crate fragment boundaries: Proposition 4.2 equivalence under
//! property testing, the hierarchy flags of the type checker, and the
//! Theorem 5.2 separation witnessed jointly by `balg-core`, `balg-games`
//! and `balg-calc`.

use balg::core::prelude::*;
use balg::relational::prelude::*;
use proptest::prelude::*;

/// Strategy: a random binary bag (graph with duplicate edges).
fn graph_bag() -> impl Strategy<Value = Bag> {
    proptest::collection::btree_map((0u8..4, 0u8..4), 1u64..4, 0..8).prop_map(|edges| {
        Bag::from_counted(edges.into_iter().map(|((a, b), m)| {
            (
                Value::tuple([Value::int(a as i64), Value::int(b as i64)]),
                Natural::from(m),
            )
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prop 4.2 on random graphs: membership equivalence for a
    /// subtraction-free query.
    #[test]
    fn prop_4_2_membership_equivalence(g in graph_bag()) {
        let db = Database::new().with("G", g);
        let q = Expr::var("G")
            .product(Expr::var("G"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4])
            .additive_union(Expr::var("G"));
        prop_assert!(check_prop_4_2(&q, &db).unwrap());
    }

    /// Embedding RALG into BALG with ε after every operator agrees with
    /// the direct set evaluator — including difference and powerset.
    #[test]
    fn ralg_embedding_agrees(g in graph_bag()) {
        let db = Database::new().with("G", g);
        let ralg_q = RalgExpr::var("G")
            .project(&[1])
            .difference(RalgExpr::var("G").project(&[2]));
        let direct = ralg_eval_relation(&ralg_q, &db).unwrap();
        let embedded = ralg_to_balg(&ralg_q);
        let via_balg = balg::core::eval::eval_bag(&embedded, &db).unwrap();
        prop_assert_eq!(Relation::from_bag(&via_balg), direct);
    }
}

#[test]
fn hierarchy_levels_match_the_paper() {
    let schema = Schema::new().with("G", Type::relation(2));
    // BALG¹: no P, no δ, flat types.
    let q1 = Expr::var("G").project(&[2, 1]).subtract(Expr::var("G"));
    let a1 = analyze(&q1, &schema).unwrap();
    assert_eq!(a1.balg_level(), 1);
    assert_eq!(a1.power_nesting, 0);
    // BALG²: one powerset.
    let q2 = Expr::var("G").powerset().destroy();
    let a2 = analyze(&q2, &schema).unwrap();
    assert_eq!(a2.balg_level(), 2);
    assert_eq!(a2.power_nesting, 1);
    // BALG³: two nested powersets — "due to the type limitation it was
    // not possible in BALG² to apply the powerset twice consecutively".
    let q3 = Expr::var("G").powerset().powerset().destroy().destroy();
    let a3 = analyze(&q3, &schema).unwrap();
    assert_eq!(a3.balg_level(), 3);
    assert_eq!(a3.power_nesting, 2);
}

#[test]
fn theorem_5_2_separation_is_jointly_witnessed() {
    use balg::calc::prelude::*;
    use balg::games::prelude::*;

    let n = 6;
    let (g, g_prime) = star_graphs(n);

    // (1) The BALG side separates: α's degrees differ.
    let alpha = alpha_node(n);
    let (din, dout) = degrees(&g, &alpha);
    let (pin, pout) = degrees(&g_prime, &alpha);
    assert_eq!(din, dout);
    assert!(pin > pout);

    // (2) The game side cannot: the duplicator survives k = 2 < n/2.
    let mut spoiler = RandomSpoiler::new(5, 3);
    let mut duplicator = ConstraintDuplicator::new(6);
    assert_eq!(
        play(&g, &g_prime, 2, &mut spoiler, &mut duplicator),
        Outcome::DuplicatorWins
    );

    // (3) Theorem 5.3's consequence: sampled depth-2 CALC1 sentences
    // agree on the pair.
    let mut generator = SentenceGenerator::new(11);
    for _ in 0..10 {
        let phi = generator.sentence(2);
        assert!(
            structures_agree(&phi, &g, &g_prime).unwrap(),
            "depth-2 sentence separated the pair: {phi}"
        );
    }
}

#[test]
fn extension_flags_partition_the_language() {
    let schema = Schema::new().with("R", Type::relation(1));
    let core_query = Expr::var("R").dedup();
    assert!(analyze(&core_query, &schema).unwrap().is_core_balg());
    let with_powerbag = Expr::var("R").powerbag();
    assert!(!analyze(&with_powerbag, &schema).unwrap().is_core_balg());
    let with_ifp = Expr::var("R").ifp("T", Expr::var("T"));
    assert!(!analyze(&with_ifp, &schema).unwrap().is_core_balg());
}
