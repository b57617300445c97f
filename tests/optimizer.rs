//! Optimizer equivalence: every rewrite must be multiplicity-exact on
//! random databases — the constraint bag semantics adds to classical
//! rewriting (Section 3's optimization remark, [CV93]).

#[path = "../crates/core/tests/expr_gen/mod.rs"]
mod expr_gen;

use balg::complexity::generator::{random_database, zoo, ExprZoo};
use balg::core::prelude::*;
use balg::sql::prelude::*;
use expr_gen::{db_strategy, Gen};
use proptest::prelude::*;

fn zoo_schema() -> Schema {
    Schema::new()
        .with("G", Type::relation(2))
        .with("R", Type::relation(1))
        .with("S", Type::relation(1))
        .with("B", Type::relation(1))
}

#[test]
fn optimizer_preserves_zoo_query_semantics() {
    let schema = zoo_schema();
    for (name, expr) in zoo() {
        let optimized = optimize(&expr, &schema);
        for seed in 0..4u64 {
            let db = random_database(seed, 5, 3);
            let before = eval_bag(&expr, &db).unwrap();
            let after = eval_bag(&optimized, &db).unwrap();
            assert_eq!(before, after, "optimizer broke {name} on seed {seed}");
        }
    }
}

#[test]
fn optimizer_preserves_random_expressions() {
    let schema = zoo_schema();
    let mut generator = ExprZoo::new(21);
    for i in 0..25 {
        let expr = generator.unary_expr(3);
        let optimized = optimize(&expr, &schema);
        for n in [0u64, 1, 3, 6] {
            let db = Database::new().with("B", Bag::repeated(Value::tuple([Value::sym("a")]), n));
            let before = eval_bag(&expr, &db).unwrap();
            let after = eval_bag(&optimized, &db).unwrap();
            assert_eq!(
                before, after,
                "expr #{i} differs at n={n}:\n{expr}\n→\n{optimized}"
            );
        }
    }
}

/// A budget error, which a rewrite may move (it changes how much work
/// the evaluation does), as opposed to an error in the answer.
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

/// `db` with every bag deeply deduplicated: a set database, where a
/// wrongly dropped `ε` shows.
fn set_database(db: &Database) -> Database {
    let mut out = Database::new();
    for (name, bag) in db.iter() {
        match balg::relational::deep_dedup(&Value::Bag(bag.clone())) {
            Value::Bag(set) => out.insert(name, set),
            other => unreachable!("a bag deduplicates to a bag, not {other}"),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The generator's expressions, λs binding `x` or `y`, nested λs
    /// reading an outer binder and rebinding one included. One that
    /// `analyze` rejects comes back unchanged. For a well-typed one, over a bag
    /// database and over its deep deduplication, the optimized form gives
    /// the same answer wherever the original gives one within the budget.
    #[test]
    fn optimizer_preserves_generated_expressions(
        seed in 0u64..1_000_000_000,
        depth in 1usize..5,
        arity in 1usize..3,
        db in db_strategy(),
    ) {
        let expr = Gen::new(seed).expr(depth, arity);
        let schema = Schema::new()
            .with("R", Type::relation(1))
            .with("S", Type::relation(1))
            .with("G", Type::relation(2));
        let optimized = optimize(&expr, &schema);
        if analyze(&expr, &schema).is_err() {
            prop_assert_eq!(optimized, expr);
        } else {
            let limits = Limits {
                max_bag_elements: 1 << 10,
                max_multiplicity_bits: 1 << 9,
                max_steps: 1_000_000,
                max_ifp_iterations: 32,
            };
            for db in [set_database(&db), db] {
                let run = |e: &Expr| Evaluator::new(&db, limits.clone()).eval(e);
                match (run(&expr), run(&optimized)) {
                    (Err(e), _) | (_, Err(e)) if is_resource_limit(&e) => {}
                    (before, after) => prop_assert_eq!(before, after, "{} → {}", expr, optimized),
                }
            }
        }
    }
}

#[test]
fn optimizer_is_idempotent() {
    let schema = zoo_schema();
    for (_, expr) in zoo() {
        let once = optimize(&expr, &schema);
        let twice = optimize(&once, &schema);
        assert_eq!(once, twice);
    }
}

#[test]
fn optimized_sql_agrees_with_unoptimized() {
    let catalog = Catalog::new()
        .with_table(
            "orders",
            &[("customer", false), ("item", false), ("qty", true)],
        )
        .with_table("vip", &[("customer", false)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let db = database_from_rows(
        &catalog,
        &[
            (
                "orders",
                vec![
                    vec![s("ann"), s("apple"), SqlValue::Int(3)],
                    vec![s("ann"), s("apple"), SqlValue::Int(3)],
                    vec![s("bob"), s("pear"), SqlValue::Int(5)],
                ],
            ),
            ("vip", vec![vec![s("ann")]]),
        ],
    )
    .unwrap();
    let queries = [
        "SELECT customer FROM orders WHERE item = 'apple'",
        "SELECT DISTINCT customer FROM orders",
        "SELECT o.item FROM orders o, vip v WHERE o.customer = v.customer",
        "SELECT COUNT(*) FROM orders",
        "SELECT SUM(qty) FROM orders",
        "SELECT customer FROM orders UNION ALL SELECT customer FROM vip",
    ];
    for sql in queries {
        let plain = run(sql, &catalog, &db).unwrap();
        let optimized = run_optimized(sql, &catalog, &db).unwrap();
        assert_eq!(plain.rows(), optimized.rows(), "optimizer broke: {sql}");
    }
}

#[test]
fn pushdown_shrinks_intermediates_on_selective_join() {
    // SELECT ... FROM big, small WHERE big-side filter: the pushed plan
    // must build a smaller product.
    let schema = Schema::new()
        .with("Big", Type::relation(2))
        .with("Small", Type::relation(1));
    let big =
        Bag::from_values((0..40i64).map(|i| Value::tuple([Value::int(i), Value::int(i % 4)])));
    let small = Bag::from_values((0..4i64).map(|i| Value::tuple([Value::int(i)])));
    let db = Database::new().with("Big", big).with("Small", small);
    let q = Expr::var("Big").product(Expr::var("Small")).select(
        "x",
        Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::int(7))),
    );
    let optimized = optimize(&q, &schema);
    let (r1, m1) = eval_with_metrics(&q, &db, Limits::default());
    let (r2, m2) = eval_with_metrics(&optimized, &db, Limits::default());
    assert_eq!(r1.unwrap(), r2.unwrap());
    assert!(
        m2.max_distinct_elements < m1.max_distinct_elements,
        "pushdown did not shrink intermediates: {} vs {}",
        m2.max_distinct_elements,
        m1.max_distinct_elements
    );
}

// ----- the join normal form ----------------------------------------------

/// How many `σ_{αᵢ=αⱼ}` sit directly on a `×` — the shape both engines
/// fuse.
fn joins_on_products(expr: &Expr) -> usize {
    let mut count = 0;
    expr.visit(&mut |e| {
        if let Expr::Select { var, pred, input } = e {
            let fusable = matches!(**input, Expr::Product(_, _))
                && balg::core::eval::equi_join_attrs(pred, var).is_some();
            count += usize::from(fusable);
        }
    });
    count
}

#[test]
fn optimizer_keeps_the_sql_join_normal_form() {
    let catalog = Catalog::new()
        .with_table(
            "orders",
            &[("id", true), ("customer", false), ("qty", true)],
        )
        .with_table("cust", &[("customer", false), ("region", false)])
        .with_table("reg", &[("region", false), ("zone", true)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let i = SqlValue::Int;
    let db = database_from_rows(
        &catalog,
        &[
            (
                "orders",
                vec![
                    vec![i(1), s("ann"), i(3)],
                    vec![i(1), s("ann"), i(3)],
                    vec![i(2), s("bob"), i(5)],
                    vec![i(3), s("cleo"), i(9)],
                ],
            ),
            (
                "cust",
                vec![
                    vec![s("ann"), s("north")],
                    vec![s("bob"), s("south")],
                    vec![s("bob"), s("south")],
                ],
            ),
            ("reg", vec![vec![s("north"), i(1)], vec![s("south"), i(7)]]),
        ],
    )
    .unwrap();
    let schema = catalog.to_schema();
    // (query, joins in its plan)
    let queries = [
        (
            "SELECT o.id, c.region FROM orders o, cust c \
             WHERE o.customer = c.customer AND o.qty >= 4",
            1,
        ),
        (
            "SELECT o.id FROM orders o, cust c WHERE o.qty >= 4 AND c.customer = o.customer",
            1,
        ),
        (
            "SELECT o.id, r.zone FROM orders o, cust c, reg r \
             WHERE o.customer = c.customer AND c.region = r.region AND r.zone < o.qty",
            2,
        ),
        (
            "SELECT a.id, b.id FROM orders a, orders b WHERE a.customer = b.customer",
            1,
        ),
        (
            "SELECT o.id FROM orders o, reg r WHERE o.qty = r.zone AND r.region <> 'west'",
            1,
        ),
        ("SELECT o.id FROM orders o, reg r WHERE o.qty < r.zone", 0),
    ];
    for (sql, joins) in queries {
        let compiled = compile_query(&parse(sql).unwrap(), &catalog).unwrap();
        assert_eq!(joins_on_products(&compiled.expr), joins, "{sql}");
        let once = optimize(&compiled.expr, &schema);
        assert_eq!(joins_on_products(&once), joins, "{sql}: {once}");
        assert_eq!(optimize(&once, &schema), once, "not idempotent on {sql}");
        let plain = run(sql, &catalog, &db).unwrap();
        let optimized = run_optimized(sql, &catalog, &db).unwrap();
        assert_eq!(plain.rows(), optimized.rows(), "optimizer broke: {sql}");
    }
}

#[test]
fn optimizer_splits_a_hand_written_conjunction_into_a_fused_join() {
    // select(x, x.1 = x.3 and x.2 >= 4, G × K)
    let schema = Schema::new()
        .with("G", Type::relation(2))
        .with("K", Type::relation(2));
    let g = Bag::from_values((0..30i64).map(|i| Value::tuple([Value::int(i % 10), Value::int(i)])));
    let k = Bag::from_values((0..12i64).map(|i| Value::tuple([Value::int(i), Value::int(-i)])));
    let product = (g.distinct_count() * k.distinct_count()) as u64;
    let db = Database::new().with("G", g).with("K", k);
    let x = |i| Expr::var("x").attr(i);
    let q = Expr::var("G").product(Expr::var("K")).select(
        "x",
        Pred::eq(x(1), x(3)).and(Pred::le(Expr::lit(Value::int(4)), x(2))),
    );
    let optimized = optimize(&q, &schema);
    assert_eq!(joins_on_products(&optimized), 1, "{optimized}");
    assert_eq!(optimize(&optimized, &schema), optimized);
    let (r1, m1) = eval_with_metrics(&q, &db, Limits::default());
    let (r2, m2) = eval_with_metrics(&optimized, &db, Limits::default());
    assert_eq!(r1.unwrap(), r2.unwrap());
    assert_eq!(m1.max_distinct_elements, product);
    assert!(
        m2.max_distinct_elements < product,
        "the optimized plan still held {} of {product} elements",
        m2.max_distinct_elements
    );
}

#[test]
fn dedup_moves_below_a_product_only_when_both_arities_are_known() {
    // ε(A × B) = ε(A) × ε(B) needs tuple concatenation to be injective:
    // over A = {{[a], [a,b]}} and B = {{[b,c], [c]}}, [a] ++ [b,c] and
    // [a,b] ++ [c] are the same tuple, so ε after the product leaves it
    // once while the pushed form keeps it twice.
    let t = |fields: &[&str]| Value::tuple(fields.iter().map(|f| Value::sym(f)));
    let a = Bag::from_values([t(&["a"]), t(&["a", "b"])]);
    let b = Bag::from_values([t(&["b", "c"]), t(&["c"])]);
    // The schema a REPL session derives from the loaded bags: a bag of
    // mixed arities gets no entry.
    let mut schema = Schema::new();
    for (name, bag) in [("A", &a), ("B", &b)] {
        if let Some(ty) = Value::Bag(bag.clone()).infer_type() {
            schema = schema.with(name, ty);
        }
    }
    let db = Database::new().with("A", a).with("B", b);
    let q = Expr::var("A").product(Expr::var("B")).dedup();
    let optimized = optimize(&q, &schema);
    assert_eq!(optimized, q, "ε moved below a product of unknown arities");
    assert_eq!(
        eval_bag(&optimized, &db).unwrap(),
        eval_bag(&q, &db).unwrap()
    );

    // With both arities derivable the rule still fires.
    let schema = Schema::new()
        .with("A", Type::relation(1))
        .with("B", Type::relation(2));
    assert_eq!(
        optimize(&q, &schema),
        Expr::var("A").dedup().product(Expr::var("B").dedup())
    );
}

// ----- witness pins: one named test per kept arm the generator misses -----

/// The schema and database of the witness pins: `G` holds nine distinct
/// pairs, `R` three unary rows.
fn witness_db() -> (Schema, Database) {
    let schema = Schema::new()
        .with("G", Type::relation(2))
        .with("R", Type::relation(1));
    let g = (0..9i64).map(|i| Value::tuple([Value::int(i / 3), Value::int(i % 3)]));
    let r = (0..3i64).map(|i| Value::tuple([Value::int(i)]));
    let db = Database::new()
        .with("G", Bag::from_values(g))
        .with("R", Bag::from_values(r));
    (schema, db)
}

/// `optimize(witness)` is `expected`, gives the witness's answer, and
/// evaluates in `steps` steps with at most `max_distinct` distinct
/// elements in any intermediate bag.
fn pin_witness(witness: &Expr, expected: &Expr, steps: u64, max_distinct: u64) {
    let (schema, db) = witness_db();
    let optimized = optimize(witness, &schema);
    assert_eq!(&optimized, expected, "{witness}");
    let (answer, metrics) = eval_with_metrics(&optimized, &db, Limits::default());
    assert_eq!(answer.unwrap(), eval(witness, &db).unwrap(), "{witness}");
    assert_eq!(
        (metrics.steps, metrics.max_distinct_elements),
        (steps, max_distinct),
        "{witness} → {optimized}"
    );
}

fn empty_bag() -> Expr {
    Expr::lit(Value::Bag(Bag::new()))
}

/// `MAP(∅) → ∅` on an operand constant folding cannot fold, since the
/// body reads `G`: `δ(MAP[λx.σ[α1(y)=α2(x)](G)]((G − G)))` is `∅` in one
/// step (three with the arm removed).
#[test]
fn witness_map_over_empty() {
    let body = Expr::var("G").select(
        "y",
        Pred::eq(Expr::var("y").attr(1), Expr::var("x").attr(2)),
    );
    let witness = Expr::var("G")
        .subtract(Expr::var("G"))
        .map("x", body)
        .destroy();
    pin_witness(&witness, &empty_bag(), 1, 0);
}

/// `∅ ∪⁺ e → e`: `((G − G) ∪⁺ G)` is `G` in one step (three, with nine
/// distinct elements, with the arm removed).
#[test]
fn witness_empty_additive_union() {
    let witness = Expr::var("G")
        .subtract(Expr::var("G"))
        .additive_union(Expr::var("G"));
    pin_witness(&witness, &Expr::var("G"), 1, 0);
}

/// `e × ∅ → ∅`: `ε((ε(R) × {{}}))` is `∅` in one step (five with the arm
/// removed).
#[test]
fn witness_product_with_empty() {
    let witness = Expr::var("R").dedup().product(empty_bag()).dedup();
    pin_witness(&witness, &empty_bag(), 1, 0);
}

/// `σ[λx.α1(x) = 1](input)`.
fn first_is_one(input: Expr) -> Expr {
    input.select(
        "x",
        Pred::eq(Expr::var("x").attr(1), Expr::lit(Value::int(1))),
    )
}

/// `ε(σ) → σ(ε)`: `ε(σ[α1=1]((R ∪⁺ R)))` dedups `R` before the filter,
/// and then the `ε(A ∪⁺ B)` and `e ∪ e` arms leave `σ[α1=1](ε(R))`, in
/// 15 steps (17 with the arm removed).
#[test]
fn witness_dedup_below_select() {
    let witness = first_is_one(Expr::var("R").additive_union(Expr::var("R"))).dedup();
    pin_witness(&witness, &first_is_one(Expr::var("R").dedup()), 15, 3);
}

/// `∅ ∪ e → e`: `({{}} ∪ ε(R))` is `ε(R)` in two steps (four with the
/// arm removed).
#[test]
fn witness_empty_max_union_left() {
    let witness = empty_bag().max_union(Expr::var("R").dedup());
    pin_witness(&witness, &Expr::var("R").dedup(), 2, 3);
}

/// `e ∪ ∅ → e`: `(ε(R) ∪ {{}})` is `ε(R)` in two steps (four with the
/// arm removed).
#[test]
fn witness_empty_max_union_right() {
    let witness = Expr::var("R").dedup().max_union(empty_bag());
    pin_witness(&witness, &Expr::var("R").dedup(), 2, 3);
}

/// `e ∪ e → e`: `(G ∪ G)` is `G` in one step (three, with nine distinct
/// elements, with the arm removed).
#[test]
fn witness_max_union_with_itself() {
    let witness = Expr::var("G").max_union(Expr::var("G"));
    pin_witness(&witness, &Expr::var("G"), 1, 0);
}

/// `∅ ∩ e → ∅`: `({{}} ∩ ε(R))` is `∅` in one step (four with the arm
/// removed).
#[test]
fn witness_intersect_with_empty() {
    let witness = empty_bag().intersect(Expr::var("R").dedup());
    pin_witness(&witness, &empty_bag(), 1, 0);
}

/// `e ∸ ∅ → e`: in `(G − (G − G))` the `e ∸ e` arm empties the right
/// operand, and this arm leaves `G`, in one step (three, with nine
/// distinct elements, with the arm removed).
#[test]
fn witness_subtract_empty() {
    let witness = Expr::var("G").subtract(Expr::var("G").subtract(Expr::var("G")));
    pin_witness(&witness, &Expr::var("G"), 1, 0);
}
