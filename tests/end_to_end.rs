//! End-to-end pipelines across crates: SQL → BALG → results,
//! TM → IFP → decoded tape, arithmetic → BALG²+P_b → truth values.

use balg::core::eval::Limits;
use balg::sql::prelude::*;

#[test]
fn sql_pipeline_with_duplicates_and_aggregates() {
    let catalog = Catalog::new().with_table(
        "events",
        &[("user", false), ("kind", false), ("weight", true)],
    );
    let s = |x: &str| SqlValue::Str(x.into());
    let i = SqlValue::Int;
    // A clickstream with repeated identical events — the bags of real
    // systems ("often to save the cost of duplicate elimination").
    let rows = vec![
        vec![s("u1"), s("click"), i(1)],
        vec![s("u1"), s("click"), i(1)],
        vec![s("u1"), s("click"), i(1)],
        vec![s("u2"), s("view"), i(4)],
        vec![s("u2"), s("click"), i(2)],
    ];
    let db = database_from_rows(&catalog, &[("events", rows)]).unwrap();

    let count = run("SELECT COUNT(*) FROM events", &catalog, &db).unwrap();
    assert_eq!(count.scalar(), Some(5));
    let users = run("SELECT COUNT(DISTINCT user) FROM events", &catalog, &db).unwrap();
    assert_eq!(users.scalar(), Some(2));
    let weight = run("SELECT SUM(weight) FROM events", &catalog, &db).unwrap();
    assert_eq!(weight.scalar(), Some(9));
    // Duplicates are preserved through projections.
    let kinds = run("SELECT kind FROM events WHERE user = 'u1'", &catalog, &db).unwrap();
    assert_eq!(kinds.total_rows(), 3);
    let rows = kinds.rows();
    assert_eq!(rows.len(), 1); // one distinct row, multiplicity 3
    assert_eq!(rows[0].1, 3);
}

#[test]
fn tm_pipeline_agrees_with_simulator_on_all_machines() {
    use balg::machine::prelude::*;
    let machines: Vec<(Tm, Vec<Sym>, usize)> = vec![
        (flip_machine(), vec!['0', '1'], 2),
        (parity_machine(), vec!['1', '1', '1', '1'], 2),
        (unary_successor_machine(), vec!['1'], 2),
        (zigzag_machine(), vec![], 3),
    ];
    for (tm, input, padding) in machines {
        let direct = tm.run(&input, padding, 500).unwrap();
        let compiled = compile(&tm, &input, padding);
        let bag_run = compiled.run(Limits::default()).unwrap();
        assert!(compiled.agrees_with(&direct, &bag_run));
        assert_eq!(bag_run.accepted, direct.accepted);
    }
}

#[test]
fn arithmetic_pipeline_matches_direct_semantics() {
    use balg::arith::prelude::*;
    for n in 0..=10u64 {
        let (algebra, direct) = check_on_input(
            &even_formula(),
            "x",
            DomainKind::Linear,
            n,
            Limits::default(),
        )
        .unwrap();
        assert_eq!(algebra, direct);
        assert_eq!(algebra, n % 2 == 0);
    }
}

#[test]
fn game_pipeline_certifies_an_indistinguishable_pair() {
    use balg::games::prelude::*;
    // Exact certification via the solver at the smallest size.
    let (g, gp) = star_graphs(4);
    let mut solver = GameSolver::new(&g, &gp, &[2, 4], 1 << 22);
    assert_eq!(solver.solve(1), Verdict::DuplicatorWins);
    // The BALG query still tells them apart.
    let alpha = alpha_node(4);
    let (din, dout) = degrees(&g, &alpha);
    let (pin, pout) = degrees(&gp, &alpha);
    assert!(din == dout && pin > pout);
}

#[test]
fn limits_protect_every_pipeline() {
    use balg::core::prelude::*;
    // An expression that would materialize 2^1000 subbags fails cleanly
    // at the *prediction* stage in well under a second.
    let huge = Bag::from_values((0..1000).map(Value::int));
    let db = Database::new().with("B", huge);
    let q = Expr::var("B")
        .map("x", Expr::var("x").singleton())
        .powerset();
    let limits = Limits {
        max_bag_elements: 1 << 16,
        ..Limits::default()
    };
    let mut evaluator = Evaluator::new(&db, limits);
    let started = std::time::Instant::now();
    assert!(evaluator.eval(&q).is_err());
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
}
