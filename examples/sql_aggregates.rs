//! SQL with honest bag semantics: duplicates flow through SELECT, and the
//! aggregates are the paper's Section 3 algebra constructions — `COUNT`
//! via the product-with-⟦[a]⟧ trick, `SUM` via `δ`, and `AVG` as the
//! two divided, an error when the quotient is not an integer.
//!
//! ```sh
//! cargo run --example sql_aggregates
//! ```

use balg::sql::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::new()
        .with_table(
            "orders",
            &[("customer", false), ("item", false), ("qty", true)],
        )
        .with_table("vip", &[("customer", false)]);

    let s = |x: &str| SqlValue::Str(x.into());
    let i = SqlValue::Int;
    let db = database_from_rows(
        &catalog,
        &[
            (
                "orders",
                vec![
                    vec![s("ann"), s("apple"), i(3)],
                    vec![s("ann"), s("apple"), i(3)], // the same order twice!
                    vec![s("bob"), s("pear"), i(5)],
                    vec![s("bob"), s("apple"), i(1)],
                    vec![s("cay"), s("plum"), i(7)],
                ],
            ),
            ("vip", vec![vec![s("ann")], vec![s("cay")]]),
        ],
    )?;

    let queries = [
        "SELECT customer FROM orders",
        "SELECT DISTINCT customer FROM orders",
        "SELECT COUNT(*) FROM orders",
        "SELECT COUNT(DISTINCT customer) FROM orders",
        "SELECT SUM(qty) FROM orders",
        "SELECT AVG(qty) FROM orders WHERE customer = 'bob'",
        "SELECT o.item FROM orders o, vip v WHERE o.customer = v.customer",
        "SELECT customer FROM orders WHERE qty >= 3",
        "SELECT customer FROM orders EXCEPT ALL SELECT customer FROM vip",
        "SELECT customer FROM orders INTERSECT SELECT customer FROM vip",
    ];
    for sql in queries {
        let result = run(sql, &catalog, &db)?;
        println!("{sql}");
        let header: Vec<&str> = result.columns().iter().map(|c| c.name.as_str()).collect();
        println!("  columns: {header:?}");
        for (row, mult) in result.rows() {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            if mult == 1 {
                println!("  {}", cells.join(" | "));
            } else {
                println!("  {}  ×{mult}", cells.join(" | "));
            }
        }
        println!();
    }

    // The headline: the duplicated order *counts* — SUM sees 19, not 16.
    let sum = run("SELECT SUM(qty) FROM orders", &catalog, &db)?;
    assert_eq!(sum.scalar(), Some(19));
    println!("SUM(qty) = 19: the duplicate row contributed — bag semantics, as in real SQL.");

    // 19 over 5 rows has no integral average, and the subset has neither
    // NULL nor decimals: the read fails rather than answer a wrong number.
    match run("SELECT AVG(qty) FROM orders", &catalog, &db) {
        Err(err @ SqlError::NoAverage { sum: 19, count: 5 }) => println!("AVG(qty): {err}."),
        other => return Err(format!("unexpected AVG(qty): {other:?}").into()),
    }
    Ok(())
}
