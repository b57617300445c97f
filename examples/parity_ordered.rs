//! Section 4's parity query: with an order on the domain, BALG¹ expresses
//! "the cardinality of R is even" — a query that is not first-order
//! definable even with order, and not BALG¹-definable *without* order
//! (Proposition 4.5 / [LW94]).
//!
//! ```sh
//! cargo run --example parity_ordered
//! ```

use balg::core::derived::parity_even_ordered;
use balg::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("σ_{{λx. |⟦y ≤ x⟧| = |⟦y > x⟧|}}(R) ≠ ∅  ⟺  |R| even\n");
    println!("| n  | witness x | even? |");
    println!("|----|-----------|-------|");
    for n in 0u64..=12 {
        let r = Bag::from_values((0..n as i64).map(|i| Value::tuple([Value::int(i)])));
        let db = Database::new().with("R", r);
        let witnesses = eval_bag(&parity_even_ordered(Expr::var("R")), &db)?;
        let even = !witnesses.is_empty();
        // The witness is the median element: #(≤x) = #(>x) = n/2.
        let witness = witnesses
            .elements()
            .next()
            .map_or_else(|| "—".into(), |v| v.to_string());
        println!("| {n:>2} | {witness:>9} | {even:>5} |");
        assert_eq!(even, n > 0 && n % 2 == 0);
    }

    // The same query runs on any ordered atoms, not just integers.
    let names = Bag::from_values(
        ["ada", "bo", "cy", "dee"]
            .iter()
            .map(|s| Value::tuple([Value::sym(s)])),
    );
    let db = Database::new().with("R", names);
    let even = !eval_bag(&parity_even_ordered(Expr::var("R")), &db)?.is_empty();
    println!("\n4 names sorted lexicographically → even: {even}");

    // Static analysis confirms the fragment: BALG¹ + order.
    let schema = Schema::new().with("R", Type::relation(1));
    let analysis = analyze(&parity_even_ordered(Expr::var("R")), &schema)?;
    println!(
        "fragment: BALG level {}, uses order: {} (core BALG¹ alone cannot express parity)",
        analysis.balg_level(),
        analysis.uses_order
    );
    Ok(())
}
