//! Derived operations: the paper's Section 3 constructions, executable.
//!
//! Bags give the algebra *counting power*: an integer `i` is represented by
//! a bag containing `i` occurrences of a fixed constant (here the unary
//! tuple `[a]`, so that Cartesian products apply). On that representation,
//! this module builds — as BALG *expressions*, not native Rust — the
//! aggregate functions `count`, `sum`, `average`, the cardinality
//! comparisons of Examples 4.1/4.2 (Härtig/Rescher quantifiers), the
//! parity-with-order query of Section 4, and the redundancy identities of
//! Proposition 3.1 and Section 3 (ε, −, and ∪⁺ defined from the other
//! operations). Each identity is exercised by the E4–E6 experiments.

use crate::bag::Bag;
use crate::expr::{Expr, Pred};
use crate::natural::Natural;
use crate::value::{Atom, Value};

/// The fixed constant used by integer encodings (the paper's `a`).
pub const UNIT_ATOM: &str = "a";

/// A second fixed constant (the paper's `b`), used by the ∪⁺-from-∪
/// tagging construction.
pub const UNIT_ATOM_B: &str = "b";

/// The unary tuple `[a]` as a value.
pub fn unit_tuple() -> Value {
    Value::tuple([Value::sym(UNIT_ATOM)])
}

/// The integer `n` as a bag value: `⟦[a]ⁿ⟧`.
pub fn int_value(n: impl Into<Natural>) -> Value {
    Value::Bag(Bag::repeated(unit_tuple(), n.into()))
}

/// The integer `n` as a literal expression.
pub fn int_lit(n: impl Into<Natural>) -> Expr {
    Expr::Lit(int_value(n))
}

/// Decode an integer bag back to a [`Natural`]: the cardinality of a bag
/// of `[a]` tuples. Returns `None` if the value is not an integer bag.
/// The `[a]` shape is checked in place, so decoding allocates nothing
/// unless the count itself spills past `u64`.
pub fn decode_int(value: &Value) -> Option<Natural> {
    let bag = value.as_bag()?;
    let is_unit = |v: &Value| match v.as_tuple() {
        Some([Value::Atom(Atom::Str(s))]) => &**s == UNIT_ATOM,
        _ => false,
    };
    if bag.elements().all(is_unit) {
        Some(bag.cardinality())
    } else {
        None
    }
}

/// `count(B) = π₁(⟦[a]⟧ × B)` — the paper's Section 3 construction for a
/// bag of tuples: the product tags every occurrence with `[a]` and the
/// projection collapses them, summing multiplicities.
pub fn count_product(b: Expr) -> Expr {
    Expr::Lit(Value::Bag(Bag::singleton(unit_tuple())))
        .product(b)
        .project(&[1])
}

/// `count(B)` for a bag of *any* element type, via
/// `MAP_{λx.[a]}(B)` — every element maps to the same unit tuple, and MAP
/// sums preimage multiplicities (Section 3's MAP semantics), yielding
/// `⟦[a]^|B|⟧`.
pub fn count(b: Expr) -> Expr {
    b.map("ċ", Expr::tuple([Expr::lit(Value::sym(UNIT_ATOM))]))
}

/// `sum(B) = δ(B)` for a bag of integer bags (Section 3).
pub fn sum(b: Expr) -> Expr {
    b.destroy()
}

/// Integer multiplication on the bag encoding:
/// `x · y = π₁(x × y)` — `⟦[a]ⁱ⟧ × ⟦[a]ʲ⟧` has `i·j` occurrences of
/// `[a, a]`, and the projection keeps that multiplicity.
pub fn int_mul(x: Expr, y: Expr) -> Expr {
    x.product(y).project(&[1])
}

/// Integer addition on the bag encoding: `x + y = x ∪⁺ y`.
pub fn int_add(x: Expr, y: Expr) -> Expr {
    x.additive_union(y)
}

/// `average(B)` for a nonempty bag `B` of integer bags, when the average
/// is integral (Section 3's `average` uses the same powerset-guess idea;
/// the journal text of the formula is corrupted, so we state the
/// construction it describes): guess a candidate integer `y ⊑ sum(B)`
/// from the powerset, and keep the one with `y · count(B) = sum(B)`.
///
/// ```text
/// average(B) = δ( σ_{λy. π₁(y × count(B)) = δ(B)} ( P(δ(B)) ) )
/// ```
///
/// The intermediate `P(δ(B))` has bag nesting 2 — this is why aggregates
/// live in BALG² (Section 5).
pub fn average(b: Expr) -> Expr {
    let total = sum(b.clone());
    let candidates = total.clone().powerset();
    candidates
        .select("ȳ", Pred::eq(int_mul(Expr::var("ȳ"), count(b)), total))
        .destroy()
}

/// Example 4.2: boolean query `|R| > |S|` for bags of tuples, as
/// `π₁(R×R) − π₁(R×S) ≠ ∅`. The result bag is nonempty iff the
/// cardinality of `R` exceeds that of `S`. This query witnesses both the
/// failure of the 0–1 law (asymptotic probability ½) and the AC⁰
/// separation from RALG (it computes MAJORITY).
pub fn card_gt(r: Expr, s: Expr) -> Expr {
    r.clone()
        .product(r.clone())
        .project(&[1])
        .subtract(r.product(s).project(&[1]))
}

/// The Härtig quantifier `|R| = |S|` (equally many), definable per
/// Section 4: neither `|R| > |S|` nor `|S| > |R|` — computed as
/// `(count(R) − count(S)) ∪⁺ (count(S) − count(R)) = ∅`, so this
/// expression is **empty iff** the cardinalities are equal.
pub fn card_diff_symmetric(r: Expr, s: Expr) -> Expr {
    let cr = count(r);
    let cs = count(s);
    cr.clone()
        .subtract(cs.clone())
        .additive_union(cs.subtract(cr))
}

/// The counting quantifier `∃≥i x` (Section 4, \[IL90\]): nonempty iff
/// `|R| ≥ i`. Computed as `count(R) − (i−1)` for `i ≥ 1`.
pub fn card_ge_const(r: Expr, i: u64) -> Expr {
    assert!(i >= 1, "∃≥i requires i ≥ 1");
    count(r).subtract(int_lit(i - 1))
}

/// Example 4.1: the in-degree of node `a` in graph `G` (a binary edge
/// relation, possibly with duplicate edges) is **bigger** than its
/// out-degree, as `π₂(σ_{α₂=a}G) − π₁(σ_{α₁=a}G) ≠ ∅`.
///
/// This BALG¹ query is not expressible in the infinitary logic `L^ω_{∞ω}`
/// (Section 4) and witnesses BALG¹ ⊋ RALG (Proposition 4.3).
pub fn in_degree_gt_out_degree(g: Expr, node: Value) -> Expr {
    let incoming = g
        .clone()
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::lit(node.clone())),
        )
        .project(&[2]);
    let outgoing = g
        .select("x", Pred::eq(Expr::var("x").attr(1), Expr::lit(node)))
        .project(&[1]);
    incoming.subtract(outgoing)
}

/// Section 4's parity query in the presence of an order: nonempty iff the
/// cardinality of the *relation* (unary, duplicate-free) `R` is **even**.
///
/// ```text
/// σ_{λx. MAP_{[a]}(σ_{λy. y ≤ x}(R)) = MAP_{[a]}(σ_{λy. x < y}(R))}(R) ≠ ∅
/// ```
///
/// There is an `x` with as many elements `≤ x` as `> x` iff `|R|` is even.
/// Parity is **not** first-order definable even with order, and not
/// BALG¹-definable *without* order (Proposition 4.5 / \[LW94\]) — this is
/// the separation experiment E9.
pub fn parity_even_ordered(r: Expr) -> Expr {
    let le_count = count(r.clone().select(
        "ŷ",
        Pred::le(Expr::var("ŷ").attr(1), Expr::var("x̂").attr(1)),
    ));
    let gt_count = count(r.clone().select(
        "ŷ",
        Pred::lt(Expr::var("x̂").attr(1), Expr::var("ŷ").attr(1)),
    ));
    r.select("x̂", Pred::eq(le_count, gt_count))
}

/// Proposition 3.1, flat case: for `B` a bag of tuples,
/// `ε(B) = δ(P(B) ∩ MAP_β(B))`.
///
/// `MAP_β(B)` holds each singleton `⟦o⟧` with multiplicity `n_o`; `P(B)`
/// holds every subbag once; the intersection keeps each singleton exactly
/// once and `δ` unwraps. Note the intermediate types have bag nesting one
/// higher than the input — the increase the paper proves essential for
/// BALG¹.
pub fn dedup_via_powerset_flat(b: Expr) -> Expr {
    let singletons = b.clone().map("x̂", Expr::var("x̂").singleton());
    b.powerset().intersect(singletons).destroy()
}

/// Proposition 3.1, nested case: for `B` a bag of bags,
/// `ε(B) = P(δ(B)) ∩ B`.
pub fn dedup_via_powerset_nested(b: Expr) -> Expr {
    b.clone().destroy().powerset().intersect(b)
}

/// Section 3: subtraction defined in BALG₋₋ via the powerset,
/// `B₁ − B₂ = δ(σ_{λx. x ∪⁺ (B₁ ∩ B₂) = B₁}(P(B₁)))` — the unique subbag
/// of `B₁` that restores `B₁` when the common part is added back.
pub fn subtract_via_powerset(b1: Expr, b2: Expr) -> Expr {
    let common = b1.clone().intersect(b2);
    b1.clone()
        .powerset()
        .select("x̂", Pred::eq(Expr::var("x̂").additive_union(common), b1))
        .destroy()
}

/// Section 3: additive union defined from maximal union by tagging,
/// `B₁ ∪⁺ B₂ = π_{1..k}((B₁ × ⟦[a]⟧) ∪ (B₂ × ⟦[b]⟧))` for `k`-ary bags.
/// The disjoint tags make the supports disjoint, so maximal union acts as
/// a disjoint sum, and the projection's MAP re-merges with *added*
/// multiplicities.
pub fn additive_union_via_max(b1: Expr, b2: Expr, k: usize) -> Expr {
    let tag_a = Expr::Lit(Value::Bag(Bag::singleton(Value::tuple([Value::sym(
        UNIT_ATOM,
    )]))));
    let tag_b = Expr::Lit(Value::Bag(Bag::singleton(Value::tuple([Value::sym(
        UNIT_ATOM_B,
    )]))));
    let indices: Vec<usize> = (1..=k).collect();
    b1.product(tag_a)
        .max_union(b2.product(tag_b))
        .project(&indices)
}

/// Membership test as an expression: `σ_{λx. x = o}(B)` — nonempty iff
/// `o ∈ B` (Section 3: "membership and containment tests can be expressed
/// using the algebra operators and equality testing").
pub fn member(o: Value, b: Expr) -> Expr {
    b.select("x̂", Pred::eq(Expr::var("x̂"), Expr::lit(o)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::eval::{eval_bag, EvalError};
    use crate::schema::Database;
    use crate::schema::Schema;
    use crate::types::Type;

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    fn tuples(pairs: &[(&str, &str)]) -> Bag {
        Bag::from_values(
            pairs
                .iter()
                .map(|(x, y)| Value::tuple([Value::sym(x), Value::sym(y)])),
        )
    }

    fn unary(elems: &[&str]) -> Bag {
        Bag::from_values(elems.iter().map(|e| Value::tuple([Value::sym(e)])))
    }

    #[test]
    fn count_both_constructions_agree() {
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::tuple([Value::sym("x"), Value::sym("y")]), nat(3));
        b.insert(Value::tuple([Value::sym("u"), Value::sym("v")]));
        let db = Database::new().with("B", b);
        let via_map = eval_bag(&count(Expr::var("B")), &db).unwrap();
        let via_product = eval_bag(&count_product(Expr::var("B")), &db).unwrap();
        assert_eq!(via_map, via_product);
        assert_eq!(decode_int(&Value::Bag(via_map)), Some(nat(4)));
    }

    #[test]
    fn sum_is_destroy() {
        // B = ⟦int(2), int(3), int(3)⟧ → sum = 8.
        let mut b = Bag::new();
        b.insert(int_value(2u64));
        b.insert_with_multiplicity(int_value(3u64), nat(2));
        let db = Database::new().with("B", b);
        let out = eval_bag(&sum(Expr::var("B")), &db).unwrap();
        assert_eq!(decode_int(&Value::Bag(out)), Some(nat(8)));
    }

    #[test]
    fn int_arithmetic() {
        let db = Database::new();
        let prod = eval_bag(&int_mul(int_lit(6u64), int_lit(7u64)), &db).unwrap();
        assert_eq!(decode_int(&Value::Bag(prod)), Some(nat(42)));
        let total = eval_bag(&int_add(int_lit(6u64), int_lit(7u64)), &db).unwrap();
        assert_eq!(decode_int(&Value::Bag(total)), Some(nat(13)));
        let zero = eval_bag(&int_mul(int_lit(0u64), int_lit(7u64)), &db).unwrap();
        assert!(zero.is_empty());
    }

    #[test]
    fn average_of_integers() {
        // avg(⟦2, 4, 6⟧) = 4.
        let b = Bag::from_values([int_value(2u64), int_value(4u64), int_value(6u64)]);
        let db = Database::new().with("B", b);
        let out = eval_bag(&average(Expr::var("B")), &db).unwrap();
        assert_eq!(decode_int(&Value::Bag(out)), Some(nat(4)));
    }

    #[test]
    fn average_lives_in_balg2() {
        let schema = Schema::new().with("B", Type::bag(Type::relation(1)));
        let analysis = analyze(&average(Expr::var("B")), &schema).unwrap();
        assert!(analysis.is_core_balg());
        // Input ⟦⟦[a]⟧⟧ has nesting 2; the P(δ(B)) intermediate stays at 2:
        // aggregates are exactly BALG² queries (Section 5).
        assert_eq!(analysis.balg_level(), 2);
        assert!(analysis.uses_powerset);
    }

    #[test]
    fn example_4_2_cardinality_comparison() {
        let r = unary(&["r1", "r2", "r3"]);
        let s = unary(&["s1", "s2"]);
        let db = Database::new().with("R", r).with("S", s);
        let gt = eval_bag(&card_gt(Expr::var("R"), Expr::var("S")), &db).unwrap();
        assert!(!gt.is_empty());
        let lt = eval_bag(&card_gt(Expr::var("S"), Expr::var("R")), &db).unwrap();
        assert!(lt.is_empty());
        // equal cardinalities → both empty
        let db_eq = Database::new()
            .with("R", unary(&["r1", "r2"]))
            .with("S", unary(&["s1", "s2"]));
        assert!(eval_bag(&card_gt(Expr::var("R"), Expr::var("S")), &db_eq)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn haertig_quantifier() {
        let db = Database::new()
            .with("R", unary(&["r1", "r2"]))
            .with("S", unary(&["s1", "s2"]));
        let diff = eval_bag(&card_diff_symmetric(Expr::var("R"), Expr::var("S")), &db).unwrap();
        assert!(diff.is_empty());
        let db2 = Database::new()
            .with("R", unary(&["r1"]))
            .with("S", unary(&["s1", "s2"]));
        let diff2 = eval_bag(&card_diff_symmetric(Expr::var("R"), Expr::var("S")), &db2).unwrap();
        assert!(!diff2.is_empty());
    }

    #[test]
    fn counting_quantifier() {
        let db = Database::new().with("R", unary(&["x", "y", "z"]));
        assert!(!eval_bag(&card_ge_const(Expr::var("R"), 3), &db)
            .unwrap()
            .is_empty());
        assert!(eval_bag(&card_ge_const(Expr::var("R"), 4), &db)
            .unwrap()
            .is_empty());
        assert!(!eval_bag(&card_ge_const(Expr::var("R"), 1), &db)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn example_4_1_degree_comparison() {
        // a has in-degree 2 (b→a, c→a) and out-degree 1 (a→b).
        let g = tuples(&[("b", "a"), ("c", "a"), ("a", "b")]);
        let db = Database::new().with("G", g);
        let q = in_degree_gt_out_degree(Expr::var("G"), Value::sym("a"));
        assert!(!eval_bag(&q, &db).unwrap().is_empty());
        // Balanced node b: in 1 (a→b), out 1 (b→a).
        let q_b = in_degree_gt_out_degree(Expr::var("G"), Value::sym("b"));
        assert!(eval_bag(&q_b, &db).unwrap().is_empty());
    }

    #[test]
    fn degree_query_counts_duplicate_edges() {
        // Bags: duplicate edges count toward degrees.
        let mut g = Bag::new();
        g.insert_with_multiplicity(Value::tuple([Value::sym("b"), Value::sym("a")]), nat(3));
        g.insert_with_multiplicity(Value::tuple([Value::sym("a"), Value::sym("b")]), nat(2));
        let db = Database::new().with("G", g);
        let q = in_degree_gt_out_degree(Expr::var("G"), Value::sym("a"));
        assert!(!eval_bag(&q, &db).unwrap().is_empty()); // 3 > 2
    }

    #[test]
    fn parity_with_order() {
        for n in 0u64..9 {
            let r = Bag::from_values((0..n as i64).map(|i| Value::tuple([Value::int(i)])));
            let db = Database::new().with("R", r);
            let out = eval_bag(&parity_even_ordered(Expr::var("R")), &db).unwrap();
            assert_eq!(
                !out.is_empty(),
                n % 2 == 0 && n > 0,
                "parity query wrong at n={n}"
            );
        }
    }

    #[test]
    fn parity_query_uses_order_flag() {
        let schema = Schema::new().with("R", Type::relation(1));
        let analysis = analyze(&parity_even_ordered(Expr::var("R")), &schema).unwrap();
        assert!(analysis.uses_order);
        assert_eq!(analysis.balg_level(), 1);
    }

    #[test]
    fn prop_3_1_dedup_flat_identity() {
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::tuple([Value::sym("p")]), nat(4));
        b.insert_with_multiplicity(Value::tuple([Value::sym("q")]), nat(1));
        let db = Database::new().with("B", b.clone());
        let via_powerset = eval_bag(&dedup_via_powerset_flat(Expr::var("B")), &db).unwrap();
        assert_eq!(via_powerset, b.dedup());
    }

    #[test]
    fn prop_3_1_dedup_nested_identity() {
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::bag([Value::sym("p"), Value::sym("p")]), nat(3));
        b.insert(Value::bag([Value::sym("q")]));
        let db = Database::new().with("B", b.clone());
        let via_powerset = eval_bag(&dedup_via_powerset_nested(Expr::var("B")), &db).unwrap();
        assert_eq!(via_powerset, b.dedup());
    }

    #[test]
    fn subtract_via_powerset_identity() {
        let mut b1 = Bag::new();
        b1.insert_with_multiplicity(Value::tuple([Value::sym("p")]), nat(5));
        b1.insert_with_multiplicity(Value::tuple([Value::sym("q")]), nat(2));
        let mut b2 = Bag::new();
        b2.insert_with_multiplicity(Value::tuple([Value::sym("p")]), nat(3));
        b2.insert_with_multiplicity(Value::tuple([Value::sym("r")]), nat(9));
        let db = Database::new()
            .with("B1", b1.clone())
            .with("B2", b2.clone());
        let via_powerset = eval_bag(
            &subtract_via_powerset(Expr::var("B1"), Expr::var("B2")),
            &db,
        )
        .unwrap();
        assert_eq!(via_powerset, b1.subtract(&b2));
    }

    #[test]
    fn additive_union_via_max_identity() {
        let b1 = tuples(&[("x", "y"), ("x", "y"), ("u", "v")]);
        let b2 = tuples(&[("x", "y")]);
        let db = Database::new()
            .with("B1", b1.clone())
            .with("B2", b2.clone());
        let via_tagging = eval_bag(
            &additive_union_via_max(Expr::var("B1"), Expr::var("B2"), 2),
            &db,
        )
        .unwrap();
        assert_eq!(via_tagging, b1.additive_union(&b2));
    }

    #[test]
    fn member_expression() {
        let db = Database::new().with("B", unary(&["x", "y"]));
        let hit = member(Value::tuple([Value::sym("x")]), Expr::var("B"));
        assert!(!eval_bag(&hit, &db).unwrap().is_empty());
        let miss = member(Value::tuple([Value::sym("z")]), Expr::var("B"));
        assert!(eval_bag(&miss, &db).unwrap().is_empty());
    }

    #[test]
    fn decode_int_rejects_non_integers() {
        assert_eq!(decode_int(&Value::sym("a")), None);
        assert_eq!(
            decode_int(&Value::bag([Value::tuple([Value::sym("z")])])),
            None
        );
        // `⟦[b]⟧`, `⟦[a, a]⟧` and `⟦[a], a⟧`: the wrong atom, the wrong
        // arity, and a unit tuple mixed with a bare atom.
        assert_eq!(
            decode_int(&Value::bag([Value::tuple([Value::sym(UNIT_ATOM_B)])])),
            None
        );
        assert_eq!(
            decode_int(&Value::bag([Value::tuple([
                Value::sym(UNIT_ATOM),
                Value::sym(UNIT_ATOM)
            ])])),
            None
        );
        assert_eq!(
            decode_int(&Value::bag([unit_tuple(), Value::sym(UNIT_ATOM)])),
            None
        );
        // `⟦[1]⟧`: an integer atom is not the symbol `a`.
        assert_eq!(
            decode_int(&Value::bag([Value::tuple([Value::int(1)])])),
            None
        );
        assert_eq!(decode_int(&Value::tuple([Value::sym(UNIT_ATOM)])), None);
        assert_eq!(decode_int(&int_value(17u64)), Some(nat(17)));
        assert_eq!(decode_int(&Value::empty_bag()), Some(nat(0)));
    }

    #[test]
    fn decode_int_round_trips_int_value() {
        for n in [0u64, 1, 2, 17, 1 << 40, u64::MAX] {
            assert_eq!(decode_int(&int_value(n)), Some(nat(n)));
        }
        // Counts past `u64` spill to limbs and still round-trip.
        for n in [u64::MAX as u128 + 1, u128::MAX] {
            let n = Natural::from(n);
            assert_eq!(decode_int(&int_value(n.clone())), Some(n));
        }
    }

    #[test]
    fn derived_ops_are_resource_safe() {
        // average over a big sum must fail with a budget error, not hang.
        let b = Bag::from_values([int_value(1_000_000u64)]);
        let db = Database::new().with("B", b);
        let limits = crate::eval::Limits {
            max_bag_elements: 1024,
            ..crate::eval::Limits::default()
        };
        let mut ev = crate::eval::Evaluator::new(&db, limits);
        match ev.eval(&average(Expr::var("B"))) {
            Err(EvalError::Bag(_)) | Err(EvalError::ElementLimit { .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
