//! Quickstart: build bags, run every operator, inspect multiplicities.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use balg::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Bags carry exact multiplicities -------------------------------
    let mut inventory = Bag::new();
    inventory.insert_with_multiplicity(Value::tuple([Value::sym("bolt")]), Natural::from(120u64));
    inventory.insert_with_multiplicity(Value::tuple([Value::sym("nut")]), Natural::from(120u64));
    inventory.insert_with_multiplicity(Value::tuple([Value::sym("washer")]), Natural::from(45u64));
    let mut shipment = Bag::new();
    shipment.insert_with_multiplicity(Value::tuple([Value::sym("bolt")]), Natural::from(30u64));
    shipment.insert_with_multiplicity(Value::tuple([Value::sym("gear")]), Natural::from(5u64));

    println!("inventory = {inventory}");
    println!("shipment  = {shipment}");

    let db = Database::new()
        .with("inv", inventory)
        .with("ship", shipment);

    // --- The four unions behave differently on duplicates --------------
    let additive = eval_bag(&Expr::var("inv").additive_union(Expr::var("ship")), &db)?;
    let maximal = eval_bag(&Expr::var("inv").max_union(Expr::var("ship")), &db)?;
    let common = eval_bag(&Expr::var("inv").intersect(Expr::var("ship")), &db)?;
    let after = eval_bag(&Expr::var("inv").subtract(Expr::var("ship")), &db)?;
    println!("\ninv ∪⁺ ship = {additive}");
    println!("inv ∪  ship = {maximal}");
    println!("inv ∩  ship = {common}");
    println!("inv −  ship = {after}");

    // --- Counting is native: count/sum as algebra expressions ----------
    let total = eval_bag(&balg::core::derived::count(Expr::var("inv")), &db)?;
    println!(
        "\ncount(inv) = {} (as the integer bag ⟦[a]ⁿ⟧)",
        balg::core::derived::decode_int(&Value::Bag(total)).unwrap()
    );

    // --- The powerset and its budget ------------------------------------
    let small = Bag::repeated(Value::sym("x"), 3u64);
    println!("\nP({small}) = {}", small.powerset(1 << 10)?);
    println!("P_b({small}) = {}", small.powerbag(1 << 10)?);
    // A powerset that would explode is rejected up front, never OOM:
    let huge = Bag::repeated(Value::sym("x"), 1_000_000u64);
    match huge.powerset(1 << 10) {
        Err(BagError::TooLarge { predicted, limit }) => {
            println!("P(x^1000000) rejected: {predicted} subbags > budget {limit}");
        }
        other => println!("unexpected: {other:?}"),
    }

    // --- Static analysis: which fragment is a query in? ----------------
    let schema = Schema::new()
        .with("inv", Type::relation(1))
        .with("ship", Type::relation(1));
    let q1 = Expr::var("inv").subtract(Expr::var("ship"));
    let q2 = Expr::var("inv").powerset().destroy();
    for (name, q) in [("inv − ship", q1), ("δ(P(inv))", q2)] {
        let analysis = analyze(&q, &schema)?;
        println!(
            "\n{name}: type {}, BALG level {}, power nesting {}",
            analysis.ty,
            analysis.balg_level(),
            analysis.power_nesting
        );
    }
    Ok(())
}
