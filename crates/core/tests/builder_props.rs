//! Adversarial property tests for `BagBuilder`'s out-of-order
//! overflow-buffer path — named as untested in ROADMAP's hot-spot notes.
//!
//! The builder keeps a sorted prefix plus an unsorted overflow of
//! out-of-order keys, bulk-merged when the overflow passes
//! `max(32, sorted/2)`. The delicate cases are interleaved duplicate keys
//! that straddle that boundary (the same key living in the sorted prefix,
//! the overflow, *and* arriving again after a compaction) and mid-build
//! budget checks taken while the overflow is non-empty. Everything here
//! is pinned against a `BTreeMap` model and against element-by-element
//! `Bag::insert`. The builder is one type over both multiplicities, so the
//! push scripts also run signed through `BagBuilder<ZInt>`, where pairs
//! cancel inside the overflow, across the sorted prefix and down to the
//! empty bag.

use std::collections::BTreeMap;

use balg_core::bag::{Bag, BagBuilder};
use balg_core::natural::Natural;
use balg_core::value::Value;
use balg_core::zbag::ZInt;
use proptest::prelude::*;

type Model = BTreeMap<Value, Natural>;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

/// An adversarial push script: interleaves ascending in-order runs (which
/// grow the sorted prefix) with bursts of descending out-of-order keys
/// (which grow the overflow), over a small key domain so the same key
/// recurs in every region. `(ascending?, start, len, mult)` per segment.
fn segments() -> impl Strategy<Value = Vec<(bool, i64, i64, u64)>> {
    proptest::collection::vec((any::<bool>(), 0i64..96, 1i64..48, 0u64..4), 1..12)
}

fn script_from_segments(segments: &[(bool, i64, i64, u64)]) -> Vec<(Value, Natural)> {
    let mut script = Vec::new();
    for &(ascending, start, len, mult) in segments {
        for offset in 0..len {
            let key = if ascending {
                start + offset
            } else {
                start + len - offset
            };
            script.push((Value::int(key), nat(mult)));
        }
    }
    script
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

fn assert_matches_model(bag: &Bag, model: &Model) {
    assert_eq!(bag.distinct_count(), model.len());
    for ((bv, bm), (mv, mm)) in bag.iter().zip(model.iter()) {
        assert_eq!(bv, mv);
        assert_eq!(bm, mm);
    }
    assert!(bag.debug_validate(), "bag invariant violated");
}

/// The segments signed for the ℤ builder: segment `i` is negated when bit
/// `i` of `signs` is set, and each segment whose bit in `undo` is set is
/// pushed once more after the whole script, negated and in reverse order,
/// so it cancels what it pushed. An ascending segment cancels across the
/// sorted prefix, a descending one inside the overflow, and with every
/// `undo` bit set the script cancels down to the empty bag.
fn signed_script(segments: &[(bool, i64, i64, u64)], signs: u16, undo: u16) -> Vec<(Value, i128)> {
    let mut script = Vec::new();
    let mut undone = Vec::new();
    for (i, segment) in segments.iter().enumerate() {
        let sign = if signs >> i & 1 == 1 { -1 } else { 1 };
        let pushes = script_from_segments(std::slice::from_ref(segment));
        let pushes = pushes
            .into_iter()
            .map(|(value, mult)| (value, sign * i128::from(mult.to_u64().unwrap())));
        let pushes: Vec<_> = pushes.collect();
        if undo >> i & 1 == 1 {
            undone.extend(pushes.iter().rev().map(|(value, m)| (value.clone(), -m)));
        }
        script.extend(pushes);
    }
    script.extend(undone);
    script
}

fn z(v: i128) -> ZInt {
    ZInt::from_parts(v < 0, Natural::from(v.unsigned_abs()))
}

proptest! {
    /// Interleaved duplicate keys straddling the bulk-merge boundary:
    /// the built bag must match the map model and the one-at-a-time
    /// `Bag::insert` reference exactly, with ℕ multiplicities and, signed
    /// ([`signed_script`]), with ℤ ones, where the builder must also read
    /// as empty after every push exactly when the model is.
    #[test]
    fn overflow_path_matches_model(raw in segments(), signs in any::<u16>(), undo in any::<u16>()) {
        let script = script_from_segments(&raw);
        let model = model_from(&script);
        let mut builder = BagBuilder::new();
        let mut reference = Bag::new();
        for (value, mult) in &script {
            builder.push(value.clone(), mult.clone());
            reference.insert_with_multiplicity(value.clone(), mult.clone());
        }
        let built = builder.build();
        assert_matches_model(&built, &model);
        prop_assert_eq!(built, reference);

        let mut model = BTreeMap::<Value, i128>::new();
        let mut builder = BagBuilder::<ZInt>::new();
        let mut reference = Bag::<ZInt>::new();
        for (value, mult) in signed_script(&raw, signs, undo) {
            let entry = model.entry(value.clone()).or_default();
            *entry += mult;
            if *entry == 0 {
                model.remove(&value);
            }
            builder.push(value.clone(), z(mult));
            reference.insert_with_multiplicity(value, z(mult));
            prop_assert_eq!(builder.is_empty(), model.is_empty());
        }
        let built = builder.build();
        let expected: Vec<(Value, ZInt)> = model.into_iter().map(|(v, m)| (v, z(m))).collect();
        prop_assert_eq!(built.pairs(), &expected[..]);
        prop_assert!(built.debug_validate(), "ℤ-bag invariant violated");
        prop_assert_eq!(built, reference);
    }

    /// Mid-build budget trips with a non-empty overflow buffer:
    /// `ensure_distinct_within` must error exactly when the true distinct
    /// count exceeds the limit, reporting the exact count — never a value
    /// inflated by overflow duplicates, never a miss.
    #[test]
    fn budget_trips_are_exact_mid_build(raw in segments(), limit in 1u64..24) {
        let script = script_from_segments(&raw);
        let mut builder = BagBuilder::new();
        let mut model = Model::new();
        let mut tripped = false;
        for (value, mult) in script {
            if !mult.is_zero() {
                *model.entry(value.clone()).or_default() += &mult;
            }
            builder.push(value, mult);
            let true_distinct = model.len() as u64;
            match builder.ensure_distinct_within(limit) {
                Ok(()) => prop_assert!(
                    true_distinct <= limit,
                    "missed a budget violation: {true_distinct} > {limit}"
                ),
                Err(observed) => {
                    prop_assert!(true_distinct > limit);
                    prop_assert_eq!(observed, true_distinct, "inexact observed count");
                    tripped = true; // the evaluator stops at the first trip
                    break;
                }
            }
            // The upper bound never undercounts.
            prop_assert!(builder.distinct_upper_bound() as u64 >= true_distinct);
        }
        if !tripped {
            let built = builder.build();
            assert_matches_model(&built, &model);
        }
    }
}

/// A deterministic straddle: the same keys placed in the sorted prefix,
/// then re-pushed as part of an overflow burst sized exactly to the
/// compaction threshold, then pushed again after the bulk merge.
#[test]
fn duplicates_across_the_compaction_boundary() {
    let mut builder = BagBuilder::new();
    let mut model = Model::new();
    let push = |builder: &mut BagBuilder, model: &mut Model, key: i64, mult: u64| {
        builder.push(Value::int(key), nat(mult));
        *model.entry(Value::int(key)).or_default() += &nat(mult);
    };
    // Sorted prefix 100..140.
    for key in 100..140 {
        push(&mut builder, &mut model, key, 1);
    }
    // 32 new out-of-order keys (descending, interleaved with duplicates
    // of sorted keys that merge in place) — the 32nd new key triggers the
    // bulk merge with the duplicates still pending.
    for i in 0..32 {
        push(&mut builder, &mut model, 99 - i, 2); // new: goes to overflow
        push(&mut builder, &mut model, 100 + i, 3); // duplicate of sorted
        if i % 4 == 0 {
            push(&mut builder, &mut model, 99 - i, 5); // duplicate inside overflow
        }
    }
    // After the merge, hit the same keys once more from a third region.
    for i in 0..32 {
        push(&mut builder, &mut model, 99 - i, 7);
    }
    let built = builder.build();
    assert_matches_model(&built, &model);
}

/// The budget must also be exact when the overflow holds duplicates of
/// one key (upper bound inflated) right at the trip point.
#[test]
fn budget_not_tripped_by_overflow_duplicates() {
    let mut builder = BagBuilder::new();
    // Sorted prefix of 6 distinct keys.
    for key in 10..16 {
        builder.push_one(Value::int(key));
    }
    // Four pushes of the SAME new out-of-order key: upper bound says 10,
    // truth says 7.
    for _ in 0..4 {
        builder.push_one(Value::int(5));
    }
    assert_eq!(builder.distinct_upper_bound(), 10);
    assert!(builder.ensure_distinct_within(7).is_ok(), "false positive");
    assert_eq!(builder.ensure_distinct_within(6), Err(7));
}
