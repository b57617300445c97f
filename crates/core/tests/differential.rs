//! Differential testing: the counted `Bag` against the naive expanded
//! standard-encoding oracle, across every duplicate-sensitive operator,
//! on arbitrary inputs.

use balg_core::bag::Bag;
use balg_core::natural::Natural;
use balg_core::value::Value;
use proptest::prelude::*;

mod standard;
use standard::ExpandedBag;

fn flat_bag() -> impl Strategy<Value = Bag> {
    proptest::collection::btree_map(0u8..5, 1u64..8, 0..6).prop_map(|entries| {
        Bag::from_counted(
            entries
                .into_iter()
                .map(|(atom, mult)| (Value::tuple([Value::int(atom as i64)]), Natural::from(mult))),
        )
    })
}

proptest! {
    #[test]
    fn binary_operators_agree(a in flat_bag(), b in flat_bag()) {
        let ea = ExpandedBag::from_bag(&a).unwrap();
        let eb = ExpandedBag::from_bag(&b).unwrap();
        prop_assert_eq!(ea.additive_union(&eb).to_bag(), a.additive_union(&b));
        prop_assert_eq!(ea.subtract(&eb).to_bag(), a.subtract(&b));
        prop_assert_eq!(ea.max_union(&eb).to_bag(), a.max_union(&b));
        prop_assert_eq!(ea.intersect(&eb).to_bag(), a.intersect(&b));
    }

    #[test]
    fn product_agrees(a in flat_bag(), b in flat_bag()) {
        let ea = ExpandedBag::from_bag(&a).unwrap();
        let eb = ExpandedBag::from_bag(&b).unwrap();
        prop_assert_eq!(
            ea.product(&eb).unwrap().to_bag(),
            a.product(&b, u64::MAX).unwrap()
        );
    }

    #[test]
    fn unary_operators_agree(a in flat_bag()) {
        let ea = ExpandedBag::from_bag(&a).unwrap();
        prop_assert_eq!(ea.dedup().to_bag(), a.dedup());
        // MAP to a constant (full collision) and MAP identity.
        let collapse = |_: &Value| Value::tuple([Value::sym("k")]);
        let counted_collapsed: Bag = a
            .map(|v| Ok::<_, std::convert::Infallible>(collapse(v)))
            .unwrap();
        prop_assert_eq!(ea.map(collapse).to_bag(), counted_collapsed);
        // σ on first attribute.
        let keep = |v: &Value| {
            v.as_tuple().and_then(|f| f.first()).is_some_and(|x| *x < Value::int(2))
        };
        let counted_kept: Bag = a
            .select(|v| Ok::<_, std::convert::Infallible>(keep(v)))
            .unwrap();
        prop_assert_eq!(ea.select(keep).to_bag(), counted_kept);
    }

    #[test]
    fn destroy_agrees(inners in proptest::collection::vec((flat_bag(), 1u64..4), 0..4)) {
        let outer = Bag::from_counted(
            inners
                .into_iter()
                .map(|(inner, mult)| (Value::Bag(inner), Natural::from(mult))),
        );
        let expanded = ExpandedBag::from_bag(&outer).unwrap();
        prop_assert_eq!(
            expanded.destroy().unwrap().to_bag(),
            outer.destroy().unwrap()
        );
    }

    #[test]
    fn roundtrip_and_cardinality(a in flat_bag()) {
        let ea = ExpandedBag::from_bag(&a).unwrap();
        prop_assert_eq!(ea.to_bag(), a.clone());
        prop_assert_eq!(ea.encoded_cardinality(), a.cardinality());
    }

    #[test]
    fn powerset_and_powerbag_agree_with_mask_enumeration(a in small_bag()) {
        // Naive reference: expand to an occurrence list and enumerate all
        // 2^n occurrence subsets (Definition 5.1's renaming, concretely).
        // Each mask yields one powerbag occurrence; the distinct subbags,
        // each once, form the powerset.
        let occurrences: Vec<Value> = a
            .iter()
            .flat_map(|(v, m)| {
                std::iter::repeat_with(|| v.clone()).take(m.to_u64().unwrap() as usize)
            })
            .collect();
        let n = occurrences.len();
        let mut naive_powerbag = Bag::new();
        for mask in 0u32..(1 << n) {
            let subset = occurrences
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, v)| v.clone());
            naive_powerbag.insert(Value::Bag(Bag::from_values(subset)));
        }
        prop_assert_eq!(a.powerbag(1 << 20).unwrap(), naive_powerbag.clone());
        prop_assert_eq!(a.powerset(1 << 20).unwrap(), naive_powerbag.dedup());
    }
}

/// A bag small enough for 2^|B| mask enumeration.
fn small_bag() -> impl Strategy<Value = Bag> {
    proptest::collection::btree_map(0u8..4, 1u64..4, 0..4).prop_map(|entries| {
        Bag::from_counted(
            entries
                .into_iter()
                .map(|(atom, mult)| (Value::tuple([Value::int(atom as i64)]), Natural::from(mult))),
        )
    })
}

/// The oracle itself on fixed samples: a round trip, a multiplicity it
/// cannot expand, and each operator against the counted bag.
mod samples {
    use super::*;

    fn counted(pairs: &[(&str, u64)]) -> Bag {
        Bag::from_counted(
            pairs
                .iter()
                .map(|(s, m)| (Value::tuple([Value::sym(s)]), Natural::from(*m))),
        )
    }

    #[test]
    fn roundtrip() {
        let bag = counted(&[("a", 3), ("b", 1)]);
        let expanded = ExpandedBag::from_bag(&bag).unwrap();
        assert_eq!(expanded.len(), 4);
        assert_eq!(expanded.to_bag(), bag);
    }

    #[test]
    fn huge_multiplicities_rejected() {
        let bag = Bag::repeated(Value::sym("a"), Natural::pow2(40));
        assert!(ExpandedBag::from_bag(&bag).is_none());
    }

    #[test]
    fn operations_agree_with_counted_on_samples() {
        let b1 = counted(&[("a", 3), ("b", 1)]);
        let b2 = counted(&[("a", 1), ("c", 2)]);
        let e1 = ExpandedBag::from_bag(&b1).unwrap();
        let e2 = ExpandedBag::from_bag(&b2).unwrap();
        assert_eq!(e1.additive_union(&e2).to_bag(), b1.additive_union(&b2));
        assert_eq!(e1.subtract(&e2).to_bag(), b1.subtract(&b2));
        assert_eq!(e1.max_union(&e2).to_bag(), b1.max_union(&b2));
        assert_eq!(e1.intersect(&e2).to_bag(), b1.intersect(&b2));
        assert_eq!(e1.dedup().to_bag(), b1.dedup());
        assert_eq!(
            e1.product(&e2).unwrap().to_bag(),
            b1.product(&b2, u64::MAX).unwrap()
        );
    }

    #[test]
    fn destroy_agrees() {
        let inner1 = counted(&[("x", 2)]);
        let inner2 = counted(&[("y", 1)]);
        let mut outer = Bag::new();
        outer.insert_with_multiplicity(Value::Bag(inner1), Natural::from(2u64));
        outer.insert(Value::Bag(inner2));
        let expanded = ExpandedBag::from_bag(&outer).unwrap();
        assert_eq!(
            expanded.destroy().unwrap().to_bag(),
            outer.destroy().unwrap()
        );
    }
}
