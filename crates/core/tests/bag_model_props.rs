//! Differential property tests pinning the sorted-slice `Bag`
//! representation against a retained `BTreeMap<Value, Natural>` reference
//! model — the representation the bag used before PR 3. Every operation
//! is computed twice, once by `Bag` and once by naive map arithmetic, and
//! the results must agree; each produced bag is also checked against the
//! representation invariant (strictly ascending keys, no zeros).
//!
//! The key-run kernels, `Bag::nest` and `Bag::project`, which read groups
//! off the sorted slice (or a stable sort of it), are held to a naive
//! group-by over the occurrences of an [`ExpandedBag`] instead: every
//! distinct key is collected by a selection over all occurrences, and the
//! first error is the first bad row in slice order, with the variant and
//! fields the row-by-row operators raised.

use std::collections::BTreeMap;

use balg_core::bag::{Bag, BagBuilder, BagError, MergeOp};
use balg_core::expanded::ExpandedBag;
use balg_core::natural::Natural;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

type Model = BTreeMap<Value, Natural>;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

/// `(key, multiplicity)` insertions into a bag of integers.
type Script = Vec<(i64, u64)>;

/// A raw insertion script: keys from a tiny domain (forcing collisions)
/// with multiplicities including zero (which must be dropped).
fn script() -> impl Strategy<Value = Script> {
    proptest::collection::vec((0i64..10, 0u64..6), 0..24)
}

/// Two merge operands and whether the second is the first's own
/// representation. Both from the tiny domain (the two-pointer walk), or
/// one with at most 3 keys against one with more than 48 on a wide
/// domain, in either order (the kernel's binary search once one side
/// holds more than 16× the other's keys, with keys below, between and
/// above the bigger side's), or one bag merged with a clone of itself
/// (the shared-representation short cut). The small side is also drawn
/// from the big side's own entries, so the skewed subbag walk finds every
/// key and answers `true` as well as `false`.
fn merge_operands() -> impl Strategy<Value = (Script, Script, bool)> {
    let small = || proptest::collection::vec((-5i64..205, 1u64..6), 0..4);
    let big = || proptest::collection::vec((0i64..200, 1u64..6), 100..200);
    let drawn = big()
        .prop_flat_map(|big| {
            let picks = proptest::collection::vec((0..big.len(), 0u64..3), 1..4);
            (Just(big), picks)
        })
        .prop_map(|(big, picks)| {
            // Each pick at most its entry's multiplicity: a subbag of
            // `big` unless two picks share a key.
            let small = picks
                .iter()
                .map(|&(ix, cut)| (big[ix].0, big[ix].1.saturating_sub(cut).max(1)))
                .collect();
            (big, small, false)
        });
    prop_oneof![
        (script(), script(), Just(false)),
        (small(), big(), Just(false)),
        (big(), small(), Just(false)),
        drawn,
        (script(), Just(Vec::new()), Just(true)),
        (big(), Just(Vec::new()), Just(true)),
    ]
}

fn tuple_script() -> impl Strategy<Value = Vec<((i64, i64), u64)>> {
    proptest::collection::vec(((0i64..4, 0i64..4), 1u64..5), 0..8)
}

fn model_from(script: &[(Value, Natural)]) -> Model {
    let mut model = Model::new();
    for (value, mult) in script {
        if !mult.is_zero() {
            *model.entry(value.clone()).or_default() += mult;
        }
    }
    model
}

fn bag_matches_model(bag: &Bag, model: &Model) -> bool {
    bag.distinct_count() == model.len()
        && bag
            .iter()
            .zip(model.iter())
            .all(|((bv, bm), (mv, mm))| bv == mv && bm == mm)
}

/// The representation invariant the sorted slice must uphold — the same
/// check [`Bag::debug_validate`] runs at every builder exit.
fn assert_invariant(bag: &Bag) {
    assert!(
        bag.debug_validate(),
        "bag invariant violated (unsorted keys or stored zero): {bag}"
    );
}

fn atoms_script_to_values(script: Script) -> Vec<(Value, Natural)> {
    script
        .into_iter()
        .map(|(k, m)| (Value::int(k), nat(m)))
        .collect()
}

proptest! {
    #[test]
    fn construction_agrees_with_map_model(raw in script()) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);

        // Three construction paths must coincide: COW inserts, the
        // builder, and the bulk constructor.
        let mut inserted = Bag::new();
        for (value, mult) in &script {
            inserted.insert_with_multiplicity(value.clone(), mult.clone());
        }
        let mut builder = BagBuilder::new();
        for (value, mult) in &script {
            builder.push(value.clone(), mult.clone());
        }
        let built = builder.build();
        let bulk = Bag::from_counted(script.iter().cloned());

        for bag in [&inserted, &built, &bulk] {
            assert_invariant(bag);
            prop_assert!(bag_matches_model(bag, &model));
        }
        prop_assert_eq!(&inserted, &built);
        prop_assert_eq!(&inserted, &bulk);
        prop_assert_eq!(
            inserted.cardinality(),
            model.values().fold(Natural::zero(), |mut acc, m| { acc += m; acc })
        );
    }

    #[test]
    fn merge_operations_agree_with_map_model(operands in merge_operands()) {
        let (ra, rb, shared) = operands;
        let sa = atoms_script_to_values(ra);
        let ma = model_from(&sa);
        let a = Bag::from_counted(sa);
        let (b, mb) = if shared {
            (a.clone(), ma.clone())
        } else {
            let sb = atoms_script_to_values(rb);
            (Bag::from_counted(sb.clone()), model_from(&sb))
        };

        let keys: Vec<&Value> = ma.keys().chain(mb.keys()).collect();
        let get = |m: &Model, k: &Value| m.get(k).cloned().unwrap_or_default();

        let mut add = Model::new();
        let mut sub = Model::new();
        let mut max = Model::new();
        let mut min = Model::new();
        for key in keys {
            let (x, y) = (get(&ma, key), get(&mb, key));
            let mut sum = x.clone();
            sum += &y;
            for (model, value) in [
                (&mut add, sum),
                (&mut sub, x.monus(&y)),
                (&mut max, x.clone().max(y.clone())),
                (&mut min, x.min(y)),
            ] {
                if !value.is_zero() {
                    model.insert(key.clone(), value);
                }
            }
        }

        for (op, model) in [
            (MergeOp::Add, add),
            (MergeOp::Monus, sub),
            (MergeOp::Max, max),
            (MergeOp::Min, min),
        ] {
            let bag = a.merge(&b, op);
            assert_invariant(&bag);
            prop_assert!(bag_matches_model(&bag, &model), "{:?}", op);
        }

        // Point lookups agree with the model everywhere on the domain.
        for k in -5i64..205 {
            let key = Value::int(k);
            prop_assert_eq!(a.multiplicity(&key), get(&ma, &key));
            prop_assert_eq!(a.contains(&key), ma.contains_key(&key));
        }

        // Subbag tests, both ways, vs the model inequality.
        let model_subbag = |x: &Model, y: &Model| x.iter().all(|(k, m)| &get(y, k) >= m);
        prop_assert_eq!(a.is_subbag_of(&b), model_subbag(&ma, &mb));
        prop_assert_eq!(b.is_subbag_of(&a), model_subbag(&mb, &ma));
    }

    #[test]
    fn dedup_and_scale_agree_with_map_model(raw in script(), factor in 0u64..5) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);
        let bag = Bag::from_counted(script);

        let deduped = bag.dedup();
        assert_invariant(&deduped);
        prop_assert_eq!(deduped.distinct_count(), model.len());
        prop_assert!(deduped.iter().all(|(_, m)| m.is_one()));

        let scaled = bag.scale(&nat(factor));
        assert_invariant(&scaled);
        let scaled_model: Model = if factor == 0 {
            Model::new()
        } else {
            model.iter().map(|(k, m)| (k.clone(), m * &nat(factor))).collect()
        };
        prop_assert!(bag_matches_model(&scaled, &scaled_model));
    }

    #[test]
    fn product_agrees_with_map_model(ra in tuple_script(), rb in tuple_script()) {
        let to_pairs = |raw: Vec<((i64, i64), u64)>| -> Vec<(Value, Natural)> {
            raw.into_iter()
                .map(|((x, y), m)| (Value::tuple([Value::int(x), Value::int(y)]), nat(m)))
                .collect()
        };
        let (sa, sb) = (to_pairs(ra), to_pairs(rb));
        let (ma, mb) = (model_from(&sa), model_from(&sb));
        let (a, b) = (Bag::from_counted(sa), Bag::from_counted(sb));

        let mut model = Model::new();
        for (lv, lm) in &ma {
            for (rv, rm) in &mb {
                let concat = Value::concat_tuples(
                    lv.as_tuple().unwrap(),
                    rv.as_tuple().unwrap(),
                );
                *model.entry(concat).or_default() += &(lm * rm);
            }
        }
        let prod = a.product(&b, u64::MAX).unwrap();
        assert_invariant(&prod);
        prop_assert!(bag_matches_model(&prod, &model));
    }

    #[test]
    fn powerset_agrees_with_map_model(raw in proptest::collection::vec((0i64..4, 1u64..4), 0..4)) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);
        let bag = Bag::from_counted(script);

        let predicted: u64 = model
            .values()
            .map(|m| m.to_u64().unwrap() + 1)
            .product();
        let ps = bag.powerset(1 << 16).unwrap();
        assert_invariant(&ps);
        prop_assert_eq!(ps.cardinality(), nat(predicted));
        for (sub, mult) in ps.iter() {
            prop_assert!(mult.is_one());
            let sub = sub.as_bag().unwrap();
            assert_invariant(sub);
            prop_assert!(sub.is_subbag_of(&bag));
        }

        // Powerbag: same distinct elements, total cardinality 2^|B|.
        let pb = bag.powerbag(1 << 16).unwrap();
        assert_invariant(&pb);
        prop_assert_eq!(pb.distinct_count(), ps.distinct_count());
        prop_assert_eq!(
            pb.cardinality(),
            Natural::pow2(bag.cardinality().to_u64().unwrap())
        );
    }

    #[test]
    fn destroy_agrees_with_map_model(
        raw in proptest::collection::vec((proptest::collection::vec((0i64..6, 1u64..4), 0..5), 1u64..3), 0..5)
    ) {
        let mut outer = Bag::new();
        let mut model = Model::new();
        for (inner_raw, outer_mult) in raw {
            let inner = Bag::from_counted(atoms_script_to_values(inner_raw));
            outer.insert_with_multiplicity(Value::Bag(inner), nat(outer_mult));
        }
        // Model δ over the final outer bag (equal inner bags have already
        // collapsed, accumulating their outer multiplicities).
        for (value, outer_mult) in outer.iter() {
            let inner = value.as_bag().unwrap();
            for (elem, m) in inner.iter() {
                *model.entry(elem.clone()).or_default() += &(m * outer_mult);
            }
        }
        let flat = outer.destroy().unwrap();
        assert_invariant(&flat);
        prop_assert!(bag_matches_model(&flat, &model));
    }
}

/// The `αᵢ` checks of the row-by-row operators, written out: index zero,
/// then a positive index past the row's arity.
fn check_row(row: &Value, indices: &[usize]) -> Result<(), BagError> {
    let fields = row
        .as_tuple()
        .ok_or_else(|| BagError::NotATuple(row.clone()))?;
    for &ix in indices {
        if ix == 0 {
            return Err(BagError::AttrIndexZero);
        }
        if ix > fields.len() {
            return Err(BagError::BadArity {
                index: ix,
                arity: fields.len(),
            });
        }
    }
    Ok(())
}

fn check_rows(bag: &Bag, indices: &[usize]) -> Result<ExpandedBag, BagError> {
    for (row, _) in bag.iter() {
        check_row(row, indices)?;
    }
    Ok(ExpandedBag::from_bag(bag).expect("small multiplicities"))
}

fn pick(row: &Value, indices: &[usize]) -> Vec<Value> {
    let fields = row.as_tuple().expect("checked");
    indices.iter().map(|&ix| fields[ix - 1].clone()).collect()
}

fn naive_project(bag: &Bag, indices: &[usize]) -> Result<Bag, BagError> {
    Ok(check_rows(bag, indices)?
        .map(|row| Value::tuple(pick(row, indices)))
        .to_bag())
}

fn naive_nest(bag: &Bag, group: &[usize]) -> Result<Bag, BagError> {
    let occurrences = check_rows(bag, group)?;
    let residual = |row: &Value| {
        let fields = row.as_tuple().expect("checked");
        Value::tuple(
            (1..=fields.len())
                .filter(|ix| !group.contains(ix))
                .map(|ix| fields[ix - 1].clone()),
        )
    };
    let keys = occurrences
        .map(|row| Value::tuple(pick(row, group)))
        .dedup()
        .to_bag();
    Ok(Bag::from_values(keys.elements().map(|key| {
        let members = occurrences.select(|row| Value::tuple(pick(row, group)) == *key);
        let mut fields = key.as_tuple().expect("a key tuple").to_vec();
        fields.push(Value::Bag(members.map(residual).to_bag()));
        Value::tuple(fields)
    })))
}

/// Up to nine rows of arity 1 to 4 over a three-value domain, so keys
/// repeat, arities interleave inside a run, and short rows occur; now and
/// then an atom or a bag element as well.
fn key_run_rows() -> BoxedStrategy<Bag> {
    (vec((vec(0i64..3, 1..5), 1u64..4), 0..10), 0u8..6)
        .prop_map(|(rows, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(fields, m)| {
                (
                    Value::tuple(fields.into_iter().map(Value::int)),
                    Natural::from(m),
                )
            }));
            match stray {
                0 => bag.insert(Value::int(7)),
                1 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

/// Prefixes `1..=k`, permuted and duplicated keys, and arbitrary index
/// lists (zero and past-every-arity included).
fn key_indices() -> BoxedStrategy<Vec<usize>> {
    prop_oneof![
        (0usize..4).prop_map(|k| (1..=k).collect::<Vec<_>>()),
        Just(vec![2, 1]),
        Just(vec![1, 1]),
        Just(vec![3, 1]),
        vec(0usize..6, 0..4),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nest_matches_a_naive_group_by(bag in key_run_rows(), group in key_indices()) {
        let got = bag.nest(&group);
        if let Ok(out) = &got {
            assert!(out.debug_validate(), "nest{group:?}({bag}) broke the invariant");
        }
        assert_eq!(got, naive_nest(&bag, &group), "nest{group:?}({bag})");
    }

    #[test]
    fn project_matches_a_naive_map(bag in key_run_rows(), indices in key_indices()) {
        assert_eq!(
            bag.project(&indices),
            naive_project(&bag, &indices),
            "π{indices:?}({bag})"
        );
    }
}

/// The key-run cases the random inputs must also reach, fixed.
#[test]
fn key_run_named_shapes() {
    let t = |fields: &[i64]| Value::tuple(fields.iter().copied().map(Value::int));
    let g = Bag::from_counted([
        (t(&[0, 2]), nat(2)),
        (t(&[0, 2, 1]), nat(1)),
        (t(&[1, 0]), nat(3)),
        (t(&[1, 0, 0]), nat(1)),
        (t(&[1, 1, 2, 2]), nat(1)),
    ]);
    for group in [vec![], vec![1], vec![1, 2], vec![2], vec![2, 1], vec![1, 1]] {
        let out = g.nest(&group).unwrap();
        assert_eq!(Ok(out), naive_nest(&g, &group), "nest{group:?}");
    }
    // `nest(G, 1)`: two groups, each holding its residuals, short first.
    let nested = g.nest(&[1]).unwrap();
    let inner = |key: i64| {
        nested
            .elements()
            .find(|row| row.as_tuple().unwrap()[0] == Value::int(key))
            .and_then(|row| row.as_tuple().unwrap()[1].as_bag().cloned())
            .unwrap()
    };
    assert_eq!(
        inner(0),
        Bag::from_counted([(t(&[2]), nat(2)), (t(&[2, 1]), Natural::one())])
    );
    assert_eq!(inner(1).distinct_count(), 3);

    // The first bad row in slice order raises, with the parent's fields:
    // `[0, 2]` is the first row too short for `α₃`.
    assert_eq!(g.nest(&[3]), Err(BagError::BadArity { index: 3, arity: 2 }));
    assert_eq!(g.nest(&[1, 0]), Err(BagError::AttrIndexZero));
    assert_eq!(
        g.project(&[1, 2, 3]),
        Err(BagError::BadArity { index: 3, arity: 2 })
    );
    // Atoms sort before tuples: the stray is the first row of all.
    let mut polluted = g;
    polluted.insert(Value::int(7));
    assert_eq!(polluted.nest(&[1]), Err(BagError::NotATuple(Value::int(7))));
    assert_eq!(
        polluted.project(&[1]),
        Err(BagError::NotATuple(Value::int(7)))
    );
    // No rows, no row to fail: a bad index on the empty bag stays `Ok`.
    for group in [vec![0], vec![9], vec![2, 1]] {
        assert_eq!(Bag::new().nest(&group), Ok(Bag::new()));
        assert_eq!(Bag::new().project(&group), Ok(Bag::new()));
    }
}
