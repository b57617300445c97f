//! Error paths of the statement layer: malformed `CREATE VIEW` /
//! `INSERT` / `DELETE` syntax, arity mismatches, and unknown bases must
//! surface *specific* [`SqlError`] variants — not just `is_err()` — so a
//! refactor cannot silently reroute one failure class into another.

use balg_incremental::UpdateError;
use balg_sql::compile::{CompileError, SqlError};
use balg_sql::prelude::*;

fn runtime() -> SqlRuntime {
    let catalog = Catalog::new()
        .with_table("orders", &[("customer", false), ("qty", true)])
        .with_table("vip", &[("customer", false)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let db = database_from_rows(
        &catalog,
        &[("orders", vec![vec![s("ann"), SqlValue::Int(3)]])],
    )
    .unwrap();
    SqlRuntime::new(catalog, db)
}

// ----- parse-layer failures (Statement grammar) -----

#[test]
fn malformed_statement_syntax_is_a_parse_error() {
    let cases = [
        // CREATE VIEW grammar.
        "CREATE orders AS SELECT * FROM orders", // VIEW missing
        "CREATE VIEW v SELECT * FROM orders",    // AS missing
        "CREATE VIEW AS SELECT * FROM orders",   // name missing
        // INSERT grammar.
        "INSERT orders VALUES (1)",                // INTO missing
        "INSERT INTO orders (1)",                  // VALUES missing
        "INSERT INTO orders VALUES 1",             // ( missing
        "INSERT INTO orders VALUES ()",            // empty row
        "INSERT INTO orders VALUES ('x', 1",       // ) missing
        "INSERT INTO orders VALUES ('x', 1) x",    // trailing tokens
        "INSERT INTO orders VALUES ('x', SELECT)", // keyword as literal
        // DELETE grammar (delete-by-row form only).
        "DELETE orders VALUES (1)",            // FROM missing
        "DELETE FROM orders WHERE qty = 1",    // WHERE unsupported
        "DELETE FROM orders VALUES ('x', 1),", // dangling comma
    ];
    for sql in cases {
        assert!(
            parse_statement(sql).is_err(),
            "{sql:?} must not parse as a statement"
        );
        // Through the runtime the same failure is the Parse variant.
        let err = runtime().execute(sql).unwrap_err();
        assert!(matches!(err, SqlError::Parse(_)), "{sql:?} → {err:?}");
    }
}

#[test]
fn plain_queries_and_wellformed_statements_still_parse() {
    assert!(matches!(
        parse_statement("SELECT * FROM orders"),
        Ok(Statement::Query(_))
    ));
    assert!(matches!(
        parse_statement("CREATE VIEW v AS SELECT customer FROM orders"),
        Ok(Statement::CreateView { .. })
    ));
    assert!(matches!(
        parse_statement("INSERT INTO orders VALUES ('x', 1), ('y', 2)"),
        Ok(Statement::Insert { ref rows, .. }) if rows.len() == 2
    ));
    assert!(matches!(
        parse_statement("DELETE FROM orders VALUES ('ann', 3)"),
        Ok(Statement::Delete { .. })
    ));
}

// ----- compile-layer failures -----

#[test]
fn unknown_tables_and_columns_are_compile_errors() {
    let mut rt = runtime();
    assert!(matches!(
        rt.execute("INSERT INTO missing VALUES (1)").unwrap_err(),
        SqlError::Compile(CompileError::UnknownTable(ref t)) if t == "missing"
    ));
    assert!(matches!(
        rt.execute("DELETE FROM missing VALUES (1)").unwrap_err(),
        SqlError::Compile(CompileError::UnknownTable(ref t)) if t == "missing"
    ));
    assert!(matches!(
        rt.execute("CREATE VIEW v AS SELECT nope FROM orders")
            .unwrap_err(),
        SqlError::Compile(CompileError::UnknownColumn(ref c)) if c == "nope"
    ));
    assert!(matches!(
        rt.execute("CREATE VIEW orders AS SELECT customer FROM orders")
            .unwrap_err(),
        SqlError::Compile(CompileError::ViewShadowsTable(ref n)) if n == "orders"
    ));
    // Nothing was registered along the way.
    assert_eq!(rt.view_names().count(), 0);
}

// ----- static-analysis failures (BALG view form) -----

/// Byte offset of the expression tail in `CREATE VIEW v AS BALG <expr>`.
const BALG_EXPR_AT: usize = "CREATE VIEW v AS BALG ".len();

#[test]
fn statically_doomed_balg_views_are_analysis_errors() {
    let mut rt = runtime();
    // α₀ — attribute indices are 1-based.
    let err = rt
        .execute("CREATE VIEW v AS BALG map(x, attr(x, 0), orders)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { at, ref message }
            if at == BALG_EXPR_AT && message.contains("1-based")),
        "{err:?}"
    );
    // Out-of-bounds attribute: orders rows have arity 2, α₅ cannot exist.
    let err = rt
        .execute("CREATE VIEW v AS BALG map(x, attr(x, 5), orders)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { at, ref message }
            if at == BALG_EXPR_AT && message.contains("attribute")),
        "{err:?}"
    );
    // Arity mismatch: a set operation over differently shaped branches.
    let err = rt
        .execute("CREATE VIEW v AS BALG union(orders, vip)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { at, .. } if at == BALG_EXPR_AT),
        "{err:?}"
    );
    // Powerset blowup: statically classified exponential — the TooLarge
    // trip is predicted at CREATE VIEW time instead of at the first
    // unlucky INSERT.
    let err = rt
        .execute("CREATE VIEW v AS BALG powerset(vip)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { at, ref message }
            if at == BALG_EXPR_AT && message.contains("exponential")),
        "{err:?}"
    );
    // Unbound variables are caught by the same gate.
    let err = rt
        .execute("CREATE VIEW v AS BALG dedup(missing)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { ref message, .. } if message.contains("unbound")),
        "{err:?}"
    );
    // Nothing registered along the way, and the rendered diagnostics
    // carry the byte position.
    assert_eq!(rt.view_names().count(), 0);
    let err = rt
        .execute("CREATE VIEW v AS BALG powerset(vip)")
        .unwrap_err();
    assert!(
        err.to_string()
            .starts_with(&format!("analysis error at byte {BALG_EXPR_AT}")),
        "{err}"
    );
}

#[test]
fn non_row_shaped_balg_views_are_rejected() {
    let mut rt = runtime();
    // A bag of atoms is not a row shape the SQL layer can decode.
    let err = rt
        .execute("CREATE VIEW v AS BALG map(x, attr(x, 1), vip)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Analysis { ref message, .. } if message.contains("row shape")),
        "{err:?}"
    );
}

// ----- parse positions (byte offsets through the statement layer) -----

#[test]
fn statement_parse_errors_carry_byte_offsets() {
    // The unterminated string starts at byte 26.
    let err = parse_statement("INSERT INTO orders VALUES ('x").unwrap_err();
    assert_eq!(err.at, 27);
    assert!(err.to_string().contains("at byte 27"), "{err}");
    // A statement-grammar error points at the offending token's byte.
    let err = parse_statement("CREATE VIEW v SELECT * FROM orders").unwrap_err();
    assert_eq!(err.at, 14, "{err:?}"); // SELECT where AS belongs
}

// ----- row-shape failures -----

#[test]
fn arity_and_type_mismatches_are_decode_errors() {
    let mut rt = runtime();
    // Too few and too many literals for the two-column table.
    for sql in [
        "INSERT INTO orders VALUES ('x')",
        "INSERT INTO orders VALUES ('x', 1, 2)",
        "DELETE FROM orders VALUES ('ann')",
    ] {
        let err = rt.execute(sql).unwrap_err();
        assert!(matches!(err, SqlError::Decode(_)), "{sql:?} → {err:?}");
    }
    // A string literal in the numeric qty column.
    let err = rt
        .execute("INSERT INTO orders VALUES ('x', 'not a number')")
        .unwrap_err();
    assert!(matches!(err, SqlError::Decode(_)), "{err:?}");
    // The failed statements committed nothing.
    let Response::Rows(rows) = rt.execute("SELECT * FROM orders").unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(rows.total_rows(), 1);
}

// ----- update-layer failures -----

#[test]
fn bad_updates_surface_the_update_variant() {
    let mut rt = runtime();
    // Deleting a row that is not present is NegativeBase, atomically:
    // the valid half of the same statement must not commit.
    let err = rt
        .execute("DELETE FROM orders VALUES ('ann', 3), ('ghost', 9)")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Update(UpdateError::NegativeBase { ref base, .. }) if base == "orders"),
        "{err:?}"
    );
    let Response::Rows(rows) = rt.execute("SELECT * FROM orders").unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(rows.total_rows(), 1, "partial delete must not commit");
    // Reading an unregistered view is the UnknownView update error.
    assert!(matches!(
        rt.view_rows("missing").unwrap_err(),
        SqlError::Update(UpdateError::UnknownView(ref v)) if v == "missing"
    ));
}

// ----- nesting depth -----

/// Parentheses, set-operation chains, `FROM` lists and `WHERE`
/// conjunctions each deepen the plan by one level per item; all four stop
/// at `MAX_EXPR_DEPTH` with a positioned parse error, and a statement just
/// inside the cap still compiles, runs and drops on a test thread's 2 MiB
/// stack.
#[test]
fn nesting_depth_is_capped() {
    use balg_core::expr::MAX_EXPR_DEPTH;
    let select = "SELECT customer FROM orders";
    let parens = |n: usize| format!("{}{select}{}", "(".repeat(n), ")".repeat(n));
    let unions = |n: usize| vec![select; n].join(" UNION ALL ");
    let tables = |n: usize| {
        let from: Vec<String> = (0..n).map(|i| format!("vip v{i}")).collect();
        format!("SELECT v0.customer FROM {}", from.join(", "))
    };
    let conjuncts = |n: usize| format!("{select} WHERE {}", vec!["qty = 3"; n].join(" AND "));
    let mut rt = runtime();
    for (shape, inside) in [
        (&parens as &dyn Fn(usize) -> String, MAX_EXPR_DEPTH - 1),
        (&unions, MAX_EXPR_DEPTH),
        (&conjuncts, MAX_EXPR_DEPTH),
    ] {
        let ok = rt.execute(&shape(inside));
        assert!(ok.is_ok(), "{ok:?}");
        // A hostile size, far past what the stack could take.
        let err = rt.execute(&shape(20_000)).unwrap_err();
        let SqlError::Parse(err) = err else {
            panic!("expected a parse error, got {err:?}")
        };
        assert!(err.message.contains("nested deeper than"), "{err}");
        assert!(err.at > 0, "{err}");
    }
    assert!(matches!(
        rt.execute(&tables(3_000)),
        Err(SqlError::Parse(_))
    ));
    assert!(parse_statement(&tables(MAX_EXPR_DEPTH)).is_ok());
}
