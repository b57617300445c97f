//! Property tests for the signed multiplicity group `ZInt`, cross-checked
//! against an `i128` reference model — the one `zbag` layer PR 4 shipped
//! without its own proptest.
//!
//! Magnitudes are drawn from three bands: ordinary `i64`-sized values,
//! and windows straddling `±u64::MAX` — the boundary where the underlying
//! `Natural` spills from the inline word to heap limbs, which is exactly
//! where a sign/monus bookkeeping slip would hide.
//!
//! The last property holds `ZBag::split` to the rule the view engine
//! builds on it: a linear operator maps a delta as the evaluator's image
//! of the positive part minus its image of the negative part, which must
//! equal the element-by-element sum `Σ m·F({x})` with signed `m`. The
//! one after it holds `ZBag::pointwise`, the delta rule of `ε` and the
//! keywise merges, to `F(new) − F(old)`.

use balg_core::bag::{Bag, MergeOp};
use balg_core::eval::{Evaluator, Limits};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_core::zbag::{ZBag, ZBagBuilder, ZInt};
use proptest::prelude::*;

/// A `Natural` from a `u128` (splitting at the 64-bit limb boundary).
fn nat(v: u128) -> Natural {
    &(&Natural::from((v >> 64) as u64) * &Natural::pow2(64)) + &Natural::from(v as u64)
}

/// The reference embedding `i128 → ZInt`.
fn z(v: i128) -> ZInt {
    ZInt::from_parts(v < 0, nat(v.unsigned_abs()))
}

/// Values from the three interesting bands. Every band stays within
/// `±2^65`, so sums of two values always fit the `i128` model.
fn value() -> BoxedStrategy<i128> {
    prop_oneof![
        any::<i64>().prop_map(i128::from),
        (0u64..33).prop_map(|d| u64::MAX as i128 - 16 + d as i128),
        (0u64..33).prop_map(|d| -(u64::MAX as i128) + 16 - d as i128),
    ]
    .boxed()
}

/// Canonical form: zero is never negative.
fn assert_canonical(x: &ZInt) {
    assert!(
        !x.is_zero() || !x.is_negative(),
        "negative zero leaked: {x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_i128(a in value(), b in value()) {
        let sum = z(a).add(&z(b));
        assert_canonical(&sum);
        prop_assert_eq!(sum, z(a + b));
    }

    #[test]
    fn add_is_commutative_with_neg_inverse(a in value(), b in value()) {
        prop_assert_eq!(z(a).add(&z(b)), z(b).add(&z(a)));
        let cancelled = z(a).add(&z(a).neg());
        prop_assert!(cancelled.is_zero());
        assert_canonical(&cancelled);
    }

    #[test]
    fn neg_matches_i128_and_is_involutive(a in value()) {
        prop_assert_eq!(z(a).neg(), z(-a));
        prop_assert_eq!(z(a).neg().neg(), z(a));
        assert_canonical(&z(a).neg());
    }

    #[test]
    fn mul_matches_i128(a in any::<i32>(), b in value()) {
        // One factor stays 32-bit so the model product fits in i128 even
        // against the u64-boundary band.
        let prod = z(i128::from(a)).mul(&z(b));
        assert_canonical(&prod);
        prop_assert_eq!(prod, z(i128::from(a) * b));
    }

    #[test]
    fn ord_matches_i128(a in value(), b in value()) {
        prop_assert_eq!(z(a).cmp(&z(b)), a.cmp(&b));
    }

    #[test]
    fn sign_accessors_match_i128(a in value()) {
        let x = z(a);
        prop_assert_eq!(x.is_zero(), a == 0);
        prop_assert_eq!(x.is_negative(), a < 0);
        prop_assert_eq!(x.magnitude(), &nat(a.unsigned_abs()));
        match x.to_natural() {
            Some(n) => {
                prop_assert!(a >= 0);
                prop_assert_eq!(n, nat(a.unsigned_abs()));
            }
            None => prop_assert!(a < 0),
        }
    }

    #[test]
    fn from_parts_normalizes_negative_zero(negative in any::<bool>()) {
        let zero = ZInt::from_parts(negative, Natural::zero());
        prop_assert!(zero.is_zero());
        prop_assert!(!zero.is_negative());
        prop_assert_eq!(zero, ZInt::zero());
    }

    #[test]
    fn split_parts_map_like_the_delta(
        changes in proptest::collection::vec((0i64..12, -3i64..4), 0..10),
        op in 0usize..3,
    ) {
        let delta = ZBag::from_counted(changes.iter().map(|&(k, m)| (row(k), ZInt::from(m))));
        let (positive, negative) = delta.split();
        prop_assert_eq!(&ZBag::diff(&positive, &negative), &delta);
        prop_assert!(positive.iter().all(|(v, _)| negative.multiplicity(v).is_zero()));

        let probe = linear_probe(op);
        let db = Database::new();
        let mut ev = Evaluator::new(&db, Limits::default());
        let mut image = |part: Bag| ev.eval_open(&probe, &[(input(), Value::Bag(part))]);
        let (plus, minus) = (image(positive).unwrap(), image(negative).unwrap());
        let by_parts = ZBag::diff(plus.as_bag().unwrap(), minus.as_bag().unwrap());

        let mut by_element = ZBagBuilder::new();
        for (value, mult) in delta.iter() {
            let one = image(Bag::singleton(value.clone())).unwrap();
            for (out, times) in one.as_bag().unwrap().iter() {
                by_element.push(out.clone(), mult.mul(&ZInt::from_natural(times.clone())));
            }
        }
        prop_assert_eq!(by_parts, by_element.build());
    }

    /// `ZBag::pointwise` against its definition: for `ε` and each keywise
    /// merge, the delta it reads off the new inputs and their deltas is
    /// `F(new) − F(old)`, with keys entering, leaving and changing
    /// multiplicity on either side.
    #[test]
    fn pointwise_delta_is_the_change_of_the_operator(
        old_a in proptest::collection::vec((0i64..8, 0u64..4), 0..8),
        new_a in proptest::collection::vec((0i64..8, 0u64..4), 0..8),
        old_b in proptest::collection::vec((0i64..8, 0u64..4), 0..8),
        new_b in proptest::collection::vec((0i64..8, 0u64..4), 0..8),
        op in 0usize..5,
    ) {
        let (old_a, new_a, old_b, new_b) =
            (counted(&old_a), counted(&new_a), counted(&old_b), counted(&new_b));
        let (delta_a, delta_b) = (ZBag::diff(&new_a, &old_a), ZBag::diff(&new_b, &old_b));
        let (pointwise, expected) = match op {
            0 => (
                ZBag::pointwise([&new_a], [&delta_a], |[m]| {
                    if m.is_zero() { Natural::zero() } else { Natural::one() }
                }),
                ZBag::diff(&new_a.dedup(), &old_a.dedup()),
            ),
            _ => {
                let op = [MergeOp::Add, MergeOp::Monus, MergeOp::Max, MergeOp::Min][op - 1];
                (
                    ZBag::pointwise([&new_a, &new_b], [&delta_a, &delta_b], |[p, q]| {
                        op.combine(p, q)
                    }),
                    ZBag::diff(&new_a.merge(&new_b, op), &old_a.merge(&old_b, op)),
                )
            }
        };
        prop_assert_eq!(pointwise.unwrap(), expected);
    }
}

/// A bag of atoms `k` with multiplicity `m`, duplicates accumulated.
fn counted(pairs: &[(i64, u64)]) -> Bag {
    Bag::from_counted(
        pairs
            .iter()
            .map(|&(k, m)| (Value::int(k), Natural::from(m))),
    )
}

/// A delta that deletes what its input never held is an error, not a
/// monus: the old multiplicity would be negative.
#[test]
fn pointwise_rejects_a_delta_its_input_cannot_have_moved_by() {
    let added = ZBag::from_counted([(Value::int(1), ZInt::one())]);
    let dedup = |[m]: [&Natural; 1]| Natural::from(u64::from(!m.is_zero()));
    // An empty input that gained a row, i.e. held −1 before.
    assert!(ZBag::pointwise([&Bag::new()], [&added], dedup).is_err());
    // An empty input that lost its one row: so did its `ε`.
    let removed = ZBag::from_counted([(Value::int(1), ZInt::neg_one())]);
    assert_eq!(
        ZBag::pointwise([&Bag::new()], [&removed], dedup).unwrap(),
        removed
    );
}

fn input() -> Var {
    Var::from("·Δ0")
}

/// Row `k` of the split property: a tuple whose first attribute collides
/// across rows (so `MAP` images of added and removed rows cancel), with a
/// bag in its third attribute for `δ`.
fn row(k: i64) -> Value {
    Value::tuple([
        Value::int(k % 3),
        Value::int(k),
        Value::bag([Value::int(k % 2), Value::int(k % 4)]),
    ])
}

/// `MAP λx.[α₁(x)]`, `σ α₂(x) < 6` and `δ(MAP λx.α₃(x))` over the input.
fn linear_probe(op: usize) -> Expr {
    let x = || Expr::var("x");
    let input = Expr::Var(input());
    match op {
        0 => input.map("x", Expr::tuple([x().attr(1)])),
        1 => input.select("x", Pred::lt(x().attr(2), Expr::lit(Value::int(6)))),
        _ => input.map("x", x().attr(3)).destroy(),
    }
}

/// Deterministic spot checks pinned exactly at the inline/limb spill
/// boundary (`u64::MAX` ± 1), where `Natural` changes representation.
#[test]
fn arithmetic_across_the_limb_spill_boundary() {
    let max = u64::MAX as i128;
    // Crossing upward by addition…
    assert_eq!(z(max).add(&ZInt::one()), z(max + 1));
    // …and back down, through zero, and past it.
    assert_eq!(z(max + 1).add(&z(-1)), z(max));
    assert_eq!(z(max + 1).add(&z(-(max + 1))), ZInt::zero());
    assert_eq!(z(max + 1).add(&z(-(max + 2))), z(-1));
    // Subtraction that lands exactly on the boundary from both sides.
    assert_eq!(z(-(max + 1)).add(&ZInt::one()), z(-max));
    assert_eq!(z(2 * max), z(max).add(&z(max)));
    // Multiplication across the boundary.
    assert_eq!(z(max).mul(&z(2)), z(2 * max));
    assert_eq!(z(-max).mul(&z(2)), z(-2 * max));
    // Ordering around the boundary, both signs.
    assert!(z(max) < z(max + 1));
    assert!(z(-(max + 1)) < z(-max));
}
