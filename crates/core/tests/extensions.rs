//! Tests for the Conclusion-section extensions: the nest operator
//! ([PG88]/[Won93], "Nest vs Powerset") and the bounded fixpoint
//! ([Suc93]) — "transitive closure is expressible in the extension of
//! BALG¹ to bounded fixpoint".

use balg_core::prelude::*;

fn edge(a: &str, b: &str) -> Value {
    Value::tuple([Value::sym(a), Value::sym(b)])
}

#[test]
fn nest_groups_with_multiplicities() {
    // ⟦[a,1], [a,1], [a,2], [b,3]⟧ nested on attribute 1:
    // ⟦[a, ⟦[1]², [2]⟧], [b, ⟦[3]⟧]⟧.
    let mut bag = Bag::new();
    bag.insert_with_multiplicity(
        Value::tuple([Value::sym("a"), Value::int(1)]),
        Natural::from(2u64),
    );
    bag.insert(Value::tuple([Value::sym("a"), Value::int(2)]));
    bag.insert(Value::tuple([Value::sym("b"), Value::int(3)]));
    let db = Database::new().with("R", bag);
    let out = eval_bag(&Expr::var("R").nest(&[1]), &db).unwrap();
    assert_eq!(out.distinct_count(), 2);
    let mut expected_a_inner = Bag::new();
    expected_a_inner.insert_with_multiplicity(Value::tuple([Value::int(1)]), Natural::from(2u64));
    expected_a_inner.insert(Value::tuple([Value::int(2)]));
    let a_group = Value::tuple([Value::sym("a"), Value::Bag(expected_a_inner)]);
    assert_eq!(out.multiplicity(&a_group), Natural::one());
}

#[test]
fn nest_type_checks_and_is_flagged_extension() {
    let schema = Schema::new().with("R", Type::relation(2));
    let analysis = analyze(&Expr::var("R").nest(&[1]), &schema).unwrap();
    assert_eq!(
        analysis.ty,
        Type::bag(Type::Tuple(vec![
            Type::Atom,
            Type::bag(Type::Tuple(vec![Type::Atom]))
        ]))
    );
    assert!(analysis.uses_nest);
    assert!(!analysis.is_core_balg());
    // Nesting raises the type's bag nesting — the conservativity question
    // the Conclusion discusses.
    assert_eq!(analysis.max_bag_nesting, 2);
}

#[test]
fn nest_rejects_bad_attributes() {
    let schema = Schema::new().with("R", Type::relation(2));
    assert!(analyze(&Expr::var("R").nest(&[3]), &schema).is_err());
    let db = Database::new().with("R", Bag::singleton(edge("a", "b")));
    assert!(eval(&Expr::var("R").nest(&[3]), &db).is_err());
}

#[test]
fn nest_unnest_roundtrip() {
    // δ of the MAP re-tagging each group undoes the nest (up to group
    // order): unnest(nest_G(B)) = B.
    let mut bag = Bag::new();
    bag.insert_with_multiplicity(edge("a", "x"), Natural::from(3u64));
    bag.insert(edge("a", "y"));
    bag.insert(edge("b", "x"));
    let db = Database::new().with("R", bag.clone());
    // nest on attr 1 → [key, inner]; unnest: MAP each [k, inner] to
    // inner×⟦[k]⟧ re-paired... simplest algebraic unnest: δ(MAP_{λg.
    // MAP_{λr.[α₁(g), α₁(r)]}(α₂(g))}(nested)).
    let unnest = Expr::var("R")
        .nest(&[1])
        .map(
            "g",
            Expr::var("g").attr(2).map(
                "r",
                Expr::tuple([Expr::var("g").attr(1), Expr::var("r").attr(1)]),
            ),
        )
        .destroy();
    let out = eval_bag(&unnest, &db).unwrap();
    assert_eq!(out, bag);
}

#[test]
fn bounded_ifp_computes_transitive_closure() {
    // The Conclusion's claim: transitive closure via bounded fixpoint.
    // Bound = all node pairs (a BALG¹-computable bound).
    let g = Bag::from_values([edge("1", "2"), edge("2", "3"), edge("3", "4")]);
    let db = Database::new().with("G", g);
    let all_pairs = Expr::var("G")
        .project(&[1])
        .additive_union(Expr::var("G").project(&[2]))
        .dedup();
    let bound = all_pairs.clone().product(all_pairs).dedup();
    let step = Expr::var("T")
        .product(Expr::var("G"))
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        )
        .project(&[1, 4])
        .dedup();
    let tc = Expr::var("G").bounded_ifp("T", step, bound);
    let out = eval_bag(&tc, &db).unwrap();
    assert!(out.contains(&edge("1", "4")));
    assert!(out.contains(&edge("2", "4")));
    assert!(!out.contains(&edge("4", "1")));
    assert_eq!(out.distinct_count(), 6);
}

#[test]
fn bounded_ifp_converges_where_unbounded_diverges() {
    // step(X) = X ∪⁺ X inflates forever; bounded by a fixed bag it stops.
    let b = Bag::singleton(Value::tuple([Value::sym("a")]));
    let db = Database::new().with("B", b);
    let mut bound_bag = Bag::new();
    bound_bag.insert_with_multiplicity(Value::tuple([Value::sym("a")]), Natural::from(8u64));
    let bounded = Expr::var("B").bounded_ifp(
        "X",
        Expr::var("X").additive_union(Expr::var("X")),
        Expr::Lit(Value::Bag(bound_bag.clone())),
    );
    let limits = Limits {
        max_ifp_iterations: 64,
        ..Limits::default()
    };
    let db2 = db.clone();
    let mut evaluator = Evaluator::new(&db2, limits.clone());
    let out = evaluator.eval_bag(&bounded).unwrap();
    // Fixpoint: the bound itself (multiplicity saturates at 8).
    assert_eq!(out, bound_bag);
    // The unbounded version exhausts the iteration budget.
    let unbounded = Expr::var("B").ifp("X", Expr::var("X").additive_union(Expr::var("X")));
    let mut evaluator = Evaluator::new(&db, limits);
    assert!(matches!(
        evaluator.eval(&unbounded),
        Err(EvalError::IfpLimit(_))
    ));
}

#[test]
fn nest_on_empty_and_key_only_tuples() {
    let db = Database::new().with("R", Bag::new());
    let out = eval_bag(&Expr::var("R").nest(&[1]), &db).unwrap();
    assert!(out.is_empty());
    // Grouping on ALL attributes: residual is the empty tuple.
    let db = Database::new().with("R", Bag::from_values([edge("a", "b"), edge("a", "b")]));
    let out = eval_bag(&Expr::var("R").nest(&[1, 2]), &db).unwrap();
    assert_eq!(out.distinct_count(), 1);
    let (group, _) = out.iter().next().unwrap();
    let fields = group.as_tuple().unwrap();
    // inner bag: ⟦[]²⟧ — the empty residual tuple twice.
    assert_eq!(
        fields[2]
            .as_bag()
            .unwrap()
            .multiplicity(&Value::Tuple(vec![].into())),
        Natural::from(2u64)
    );
}
