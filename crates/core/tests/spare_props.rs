//! Property tests for `ZBag::patch`, the patch rule that reuses a bag's
//! previous buffer (its `Spare`) while a published snapshot shares the
//! current one.
//!
//! `patch_matches_a_private_copy_under_any_pin_schedule` draws a bag, a
//! stream of small and large deltas (some of them over-deleting), a pin
//! schedule (each result held by a snapshot clone for 0–3 versions) and
//! wholesale replacements between patches, either by a fresh bag or by a
//! still-pinned older version. Every result, and every error, must equal
//! `apply_to` on a private copy, and every pinned clone must still hold
//! the version it pinned.
//!
//! `unpinned_versions_lend_their_buffers` is the server's publication
//! pattern: only the newest version is pinned, so from the second patch on
//! each patch must return the buffer of the version before the one it
//! replaces (compared by `pairs().as_ptr()`). Its deltas never add a key,
//! so no in-place patch can reallocate a buffer.

use std::collections::BTreeMap;

use balg_core::bag::Bag;
use balg_core::natural::Natural;
use balg_core::value::Value;
use balg_core::zbag::{Spare, ZBag, ZInt};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    /// Patch with `(key, change)` pairs; unless `exact` is false, a
    /// deletion is clamped to the multiplicity present. The result stays
    /// pinned for `pin` more versions.
    Patch {
        changes: Vec<(i64, i64)>,
        exact: bool,
        pin: usize,
    },
    /// Replace the bag by a fresh one.
    Replace(Vec<(i64, u64)>),
    /// Replace the bag by the `n`-th live pin (modulo their count), an
    /// older version still shared with a snapshot.
    Revert(usize),
}

fn bag_of(pairs: &[(i64, u64)]) -> Bag {
    Bag::from_counted(
        pairs
            .iter()
            .map(|&(k, m)| (Value::int(k), Natural::from(m))),
    )
}

/// An independent copy: same content, its own allocation.
fn deep_copy(bag: &Bag) -> Bag {
    Bag::from_counted(bag.iter().map(|(v, m)| (v.clone(), m.clone())))
}

/// The delta of `changes`, summed per key; when `exact`, a net deletion is
/// clamped to the multiplicity `model` holds.
fn delta_for(model: &Bag, changes: &[(Value, i64)], exact: bool) -> ZBag {
    let mut net: BTreeMap<&Value, i64> = BTreeMap::new();
    for (key, c) in changes {
        *net.entry(key).or_default() += c;
    }
    ZBag::from_counted(net.into_iter().map(|(key, c)| {
        let present = model.multiplicity(key).to_u64().unwrap_or(u64::MAX);
        let c = if exact && c < 0 {
            -(c.unsigned_abs().min(present) as i64)
        } else {
            c
        };
        (key.clone(), ZInt::from(c))
    }))
}

fn rows() -> impl Strategy<Value = Vec<(i64, u64)>> {
    proptest::collection::vec((0i64..200, 1u64..4), 16..120)
}

/// A patch (six in ten small, two large), a fresh bag, or a revert. One
/// patch in ten skips the clamp, so it may over-delete.
fn step() -> impl Strategy<Value = Step> {
    (0u8..10).prop_flat_map(|kind| {
        let changes = |len| proptest::collection::vec((0i64..200, -3i64..4), len);
        let patch = move |len| {
            (changes(len), 0u8..10, 0usize..4)
                .prop_map(|(changes, clamp, pin)| Step::Patch {
                    changes,
                    exact: clamp > 0,
                    pin,
                })
                .boxed()
        };
        match kind {
            0..=5 => patch(1..3),
            6 | 7 => patch(16..80),
            8 => rows().prop_map(Step::Replace).boxed(),
            _ => any::<usize>().prop_map(Step::Revert).boxed(),
        }
    })
}

/// A published clone, the private copy of its content, and the version
/// after which it is released.
struct Pin {
    clone: Bag,
    model: Bag,
    until: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patch_matches_a_private_copy_under_any_pin_schedule(
        initial in rows(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let mut current = bag_of(&initial);
        let mut model = deep_copy(&current);
        let mut spare = Spare::default();
        let mut pins: Vec<Pin> = Vec::new();
        for (version, step) in steps.into_iter().enumerate() {
            pins.retain(|pin| pin.until >= version);
            match step {
                Step::Patch { changes, exact, pin } => {
                    let changes: Vec<(Value, i64)> =
                        changes.into_iter().map(|(k, c)| (Value::int(k), c)).collect();
                    let delta = delta_for(&model, &changes, exact);
                    let expected = delta.apply_to(&model);
                    match (delta.patch(current, &mut spare), expected) {
                        (Ok(patched), Ok(expected)) => {
                            prop_assert!(patched.debug_validate());
                            prop_assert_eq!(&patched, &expected);
                            model = expected;
                            current = patched;
                        }
                        (Err(got), Err(expected)) => {
                            prop_assert_eq!(got, expected);
                            // The failed patch consumed the bag.
                            current = deep_copy(&model);
                        }
                        (got, expected) => {
                            prop_assert!(false, "patch {:?} vs private copy {:?}", got, expected);
                            unreachable!();
                        }
                    }
                    if pin > 0 {
                        pins.push(Pin {
                            clone: current.clone(),
                            model: deep_copy(&model),
                            until: version + pin,
                        });
                    }
                }
                Step::Replace(rows) => {
                    current = bag_of(&rows);
                    model = deep_copy(&current);
                }
                Step::Revert(n) => {
                    if !pins.is_empty() {
                        let pin = &pins[n % pins.len()];
                        current = pin.clone.clone();
                        model = deep_copy(&pin.model);
                    }
                }
            }
            for pin in &pins {
                prop_assert_eq!(&pin.clone, &pin.model, "a pinned clone changed");
            }
        }
    }

    #[test]
    fn unpinned_versions_lend_their_buffers(
        initial in proptest::collection::vec((0i64..1000, 1u64..4), 96..160),
        deltas in proptest::collection::vec(
            proptest::collection::vec((any::<usize>(), -3i64..4), 1..5),
            2..12,
        ),
    ) {
        let mut current = bag_of(&initial);
        // The published snapshot: always a clone of the newest version.
        let mut published = current.clone();
        let mut spare = Spare::default();
        let mut buffers = vec![current.pairs().as_ptr()];
        // After each publication, an empty buffer of the bag's size takes
        // any buffer of that size the publication freed, so a patch that
        // copies cannot come back to a recycled address.
        let mut decoys: Vec<Vec<(Value, Natural)>> = Vec::new();
        for changes in deltas {
            // Only keys already present, so no patch inserts a pair.
            let keys = current.pairs();
            let changes: Vec<(Value, i64)> = changes
                .iter()
                .map(|(ix, c)| (keys[ix % keys.len()].0.clone(), *c))
                .collect();
            let delta = delta_for(&current, &changes, true);
            if delta.is_empty() {
                continue;
            }
            let expected = delta.apply_to(&current).unwrap();
            let patched = delta.patch(current, &mut spare).unwrap();
            prop_assert_eq!(&patched, &expected);
            // Publishing releases the version before.
            published = patched.clone();
            decoys.push(Vec::with_capacity(patched.distinct_count()));
            current = patched;
            buffers.push(current.pairs().as_ptr());
            let k = buffers.len() - 1;
            if k >= 2 {
                prop_assert_eq!(buffers[k], buffers[k - 2], "patch {} copied", k);
            }
        }
        drop(published);
    }
}
