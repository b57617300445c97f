//! Differential test: SQL compiled by `balg-sql` must evaluate to exactly
//! the same bag as the hand-written BALG expression for the same query,
//! on the same database — exercising `sql::parse` → `sql::compile` →
//! `core::eval` end-to-end against independently constructed `Expr`s.
//!
//! The hand-written side of every join case is the naive lowering —
//! one `σ` of the whole conjunction over the plain product chain — so the
//! join planner in `sql::compile` is checked against the plan it
//! replaced, and the fused cases also assert that no intermediate bag
//! reached the size of the product.

use balg::core::derived::int_lit;
use balg::core::eval::{eval_bag, eval_with_metrics, Limits};
use balg::core::expr::{Expr, Pred};
use balg::core::schema::Database;
use balg::core::value::Value;
use balg::sql::prelude::*;
use proptest::prelude::*;

mod sql_gen;

/// Two plain (non-numeric) tables with duplicate rows, so bag semantics
/// is observable: `t(name, tag)` and `u(name)`.
fn fixture() -> (Catalog, Database) {
    let catalog = Catalog::new()
        .with_table("t", &[("name", false), ("tag", false)])
        .with_table("u", &[("name", false)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let t_rows = vec![
        vec![s("a"), s("x")],
        vec![s("a"), s("x")],
        vec![s("a"), s("y")],
        vec![s("b"), s("x")],
        vec![s("b"), s("y")],
        vec![s("c"), s("z")],
    ];
    let u_rows = vec![vec![s("a")], vec![s("a")], vec![s("b")], vec![s("d")]];
    let db = database_from_rows(&catalog, &[("t", t_rows), ("u", u_rows)]).unwrap();
    (catalog, db)
}

/// Compile `sql` and assert its evaluation equals the hand-written
/// expression's evaluation on the same database.
fn assert_differential(sql: &str, hand_written: &Expr, catalog: &Catalog, db: &Database) {
    let parsed = parse(sql).unwrap_or_else(|e| panic!("parse failed for {sql:?}: {e}"));
    let compiled = compile_query(&parsed, catalog)
        .unwrap_or_else(|e| panic!("compile failed for {sql:?}: {e}"));
    let via_sql = eval_bag(&compiled.expr, db)
        .unwrap_or_else(|e| panic!("compiled eval failed for {sql:?}: {e}"));
    let direct = eval_bag(hand_written, db)
        .unwrap_or_else(|e| panic!("direct eval failed for {sql:?}: {e}"));
    assert_eq!(
        via_sql, direct,
        "SQL and hand-written BALG disagree for {sql:?}"
    );
}

#[test]
fn projection_preserves_duplicates() {
    let (catalog, db) = fixture();
    // π₁(t): three 'a' rows survive as multiplicity 3.
    assert_differential(
        "SELECT name FROM t",
        &Expr::var("t").project(&[1]),
        &catalog,
        &db,
    );
}

#[test]
fn distinct_is_epsilon() {
    let (catalog, db) = fixture();
    assert_differential(
        "SELECT DISTINCT name FROM t",
        &Expr::var("t").project(&[1]).dedup(),
        &catalog,
        &db,
    );
}

#[test]
fn where_is_selection() {
    let (catalog, db) = fixture();
    assert_differential(
        "SELECT name, tag FROM t WHERE tag = 'x'",
        &Expr::var("t")
            .select(
                "r",
                Pred::eq(Expr::var("r").attr(2), Expr::lit(Value::sym("x"))),
            )
            .project(&[1, 2]),
        &catalog,
        &db,
    );
}

#[test]
fn union_all_is_additive_union() {
    let (catalog, db) = fixture();
    assert_differential(
        "SELECT name FROM t UNION ALL SELECT name FROM u",
        &Expr::var("t")
            .project(&[1])
            .additive_union(Expr::var("u").project(&[1])),
        &catalog,
        &db,
    );
}

#[test]
fn except_all_is_monus() {
    let (catalog, db) = fixture();
    // t has a×3, b×2, c×1; u has a×2, b×1, d×1 ⇒ monus leaves a×1, b×1, c×1.
    assert_differential(
        "SELECT name FROM t EXCEPT ALL SELECT name FROM u",
        &Expr::var("t")
            .project(&[1])
            .subtract(Expr::var("u").project(&[1])),
        &catalog,
        &db,
    );
}

#[test]
fn intersect_dedups_both_sides() {
    let (catalog, db) = fixture();
    assert_differential(
        "SELECT name FROM t INTERSECT SELECT name FROM u",
        &Expr::var("t")
            .project(&[1])
            .dedup()
            .intersect(Expr::var("u").project(&[1]).dedup()),
        &catalog,
        &db,
    );
}

#[test]
fn join_is_product_select_project() {
    let (catalog, db) = fixture();
    // Scope columns: t.name = 1, t.tag = 2, u.name = 3.
    assert_differential(
        "SELECT t.name FROM t, u WHERE t.name = u.name",
        &Expr::var("t")
            .product(Expr::var("u"))
            .select(
                "r",
                Pred::eq(Expr::var("r").attr(1), Expr::var("r").attr(3)),
            )
            .project(&[1]),
        &catalog,
        &db,
    );
}

#[test]
fn multiplicities_multiply_through_joins() {
    let (catalog, db) = fixture();
    // Independent sanity check of the shared pipeline: 'a' appears 3× in
    // t and 2× in u, so the join row ('a') has multiplicity 6.
    let result = run(
        "SELECT t.name FROM t, u WHERE t.name = u.name",
        &catalog,
        &db,
    )
    .unwrap();
    let a_row = result
        .rows()
        .into_iter()
        .find(|(row, _)| row[0] == SqlValue::Str("a".into()))
        .expect("join must produce an 'a' row");
    assert_eq!(a_row.1, 6);
}

// ----- join planning ---------------------------------------------------

/// `orders(id, customer, qty)` with duplicate rows, `cust(customer,
/// region)` and `reg(region, zone)`: 10 × 4 × 3 distinct rows.
fn join_fixture() -> (Catalog, Database) {
    let catalog = Catalog::new()
        .with_table(
            "orders",
            &[("id", true), ("customer", false), ("qty", true)],
        )
        .with_table("cust", &[("customer", false), ("region", false)])
        .with_table("reg", &[("region", false), ("zone", true)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let i = SqlValue::Int;
    let mut orders: Vec<Vec<SqlValue>> = (0..10i64)
        .map(|n| {
            vec![
                i(n),
                s(["ann", "bob", "cleo", "zed"][n as usize % 4]),
                i(n % 7),
            ]
        })
        .collect();
    orders.push(orders[1].clone()); // bob's order, twice
    orders.push(orders[6].clone()); // cleo's order, twice
    let cust = vec![
        vec![s("ann"), s("north")],
        vec![s("bob"), s("south")],
        vec![s("bob"), s("south")], // a duplicate on the other side too
        vec![s("cleo"), s("north")],
        vec![s("dave"), s("east")],
    ];
    let reg = vec![
        vec![s("north"), i(1)],
        vec![s("south"), i(4)],
        vec![s("west"), i(9)],
    ];
    let db = database_from_rows(
        &catalog,
        &[("orders", orders), ("cust", cust), ("reg", reg)],
    )
    .unwrap();
    (catalog, db)
}

fn attr(i: usize) -> Expr {
    Expr::var("r").attr(i)
}

/// [`assert_differential`], plus: the compiled plan never held a bag as
/// large as the product of `tables` (it ran as a join).
fn assert_fused(sql: &str, naive: &Expr, tables: &[&str], catalog: &Catalog, db: &Database) {
    assert_differential(sql, naive, catalog, db);
    let compiled = compile_query(&parse(sql).unwrap(), catalog).unwrap();
    let (result, metrics) = eval_with_metrics(&compiled.expr, db, Limits::default());
    result.unwrap();
    let product: u64 = tables
        .iter()
        .map(|t| db.get(t).unwrap().distinct_count() as u64)
        .product();
    assert!(
        metrics.max_distinct_elements < product,
        "{sql:?} held {} elements, the product has {product}",
        metrics.max_distinct_elements
    );
}

#[test]
fn join_with_a_one_sided_filter_fuses_in_either_conjunct_order() {
    let (catalog, db) = join_fixture();
    // Scope: o.id 1, o.customer 2, o.qty 3, c.customer 4, c.region 5.
    let naive = |pred: Pred| {
        Expr::var("orders")
            .product(Expr::var("cust"))
            .select("r", pred)
            .project(&[1, 5])
    };
    let key = || Pred::eq(attr(2), attr(4));
    let filter = || Pred::le(int_lit(4u64), attr(3));
    assert_fused(
        "SELECT o.id, c.region FROM orders o, cust c \
         WHERE o.customer = c.customer AND o.qty >= 4",
        &naive(key().and(filter())),
        &["orders", "cust"],
        &catalog,
        &db,
    );
    assert_fused(
        "SELECT o.id, c.region FROM orders o, cust c \
         WHERE o.qty >= 4 AND c.customer = o.customer",
        &naive(filter().and(Pred::eq(attr(4), attr(2)))),
        &["orders", "cust"],
        &catalog,
        &db,
    );
}

#[test]
fn three_way_chain_is_two_joins() {
    let (catalog, db) = join_fixture();
    // … r.region 6, r.zone 7.
    let naive = Expr::var("orders")
        .product(Expr::var("cust"))
        .product(Expr::var("reg"))
        .select(
            "r",
            Pred::eq(attr(2), attr(4))
                .and(Pred::eq(attr(5), attr(6)))
                .and(Pred::le(int_lit(3u64), attr(3)))
                .and(Pred::lt(attr(7), attr(3))),
        )
        .project(&[1, 7]);
    assert_fused(
        "SELECT o.id, r.zone FROM orders o, cust c, reg r \
         WHERE o.customer = c.customer AND c.region = r.region \
         AND o.qty >= 3 AND r.zone < o.qty",
        &naive,
        &["orders", "cust", "reg"],
        &catalog,
        &db,
    );
}

#[test]
fn self_join_under_two_aliases_fuses() {
    let (catalog, db) = join_fixture();
    let naive = Expr::var("orders")
        .product(Expr::var("orders"))
        .select(
            "r",
            Pred::eq(attr(2), attr(5)).and(Pred::lt(attr(1), attr(4))),
        )
        .project(&[1, 4]);
    assert_fused(
        "SELECT a.id, b.id FROM orders a, orders b \
         WHERE a.customer = b.customer AND a.id < b.id",
        &naive,
        &["orders", "orders"],
        &catalog,
        &db,
    );
}

#[test]
fn equality_on_a_numeric_column_fuses() {
    let (catalog, db) = join_fixture();
    // Integer-bag values are join keys like any other value.
    let naive = Expr::var("orders")
        .product(Expr::var("reg"))
        .select("r", Pred::eq(attr(3), attr(5)))
        .project(&[1, 4]);
    assert_fused(
        "SELECT o.id, r.region FROM orders o, reg r WHERE o.qty = r.zone",
        &naive,
        &["orders", "reg"],
        &catalog,
        &db,
    );
}

#[test]
fn spanning_comparisons_without_an_equality_stay_a_correct_product() {
    let (catalog, db) = join_fixture();
    let naive = Expr::var("orders")
        .product(Expr::var("reg"))
        .select(
            "r",
            Pred::eq(attr(2), attr(4))
                .not()
                .and(Pred::lt(attr(3), attr(5))),
        )
        .project(&[1, 4]);
    let sql = "SELECT o.id, r.region FROM orders o, reg r \
               WHERE o.customer <> r.region AND o.qty < r.zone";
    assert_differential(sql, &naive, &catalog, &db);
    // Nothing to key a join on: the plan is σ over the bare product.
    let compiled = compile_query(&parse(sql).unwrap(), &catalog).unwrap();
    let mut products = 0;
    compiled.expr.visit(&mut |e| {
        if let Expr::Select { input, .. } = e {
            products += usize::from(matches!(**input, Expr::Product(_, _)));
        }
    });
    assert_eq!(products, 1, "{}", compiled.expr);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random conjunctive WHERE clauses over two or three small tables
    /// with duplicate rows: the planned lowering evaluates to the same bag
    /// — multiplicities included — as one σ over the product chain.
    #[test]
    fn planned_joins_agree_with_the_naive_lowering(case in sql_gen::case()) {
        let db = sql_gen::database(&case);
        let (sql, naive) = sql_gen::query(&case);
        let compiled = compile_query(&parse(&sql).unwrap(), &sql_gen::catalog()).unwrap();
        prop_assert_eq!(
            eval_bag(&compiled.expr, &db).unwrap(),
            eval_bag(&naive, &db).unwrap(),
            "{} planned as {}", sql, compiled.expr
        );
    }
}
