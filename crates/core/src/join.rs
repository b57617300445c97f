//! The equi-join kernel: the one place that enumerates the surviving
//! pairs of `σ_{αᵢ=αⱼ}(L × R)`.
//!
//! The paper has no join operator — a join is product then selection,
//! both inside BALG¹ — so the evaluator recognises that shape and fuses
//! it. The kernel's pieces live here, once: **classify** ([`equi_attrs`],
//! [`uniform_arity`], [`spanning_keys`]), **probe** a [`BagIndex`]
//! ([`probe`]), and the index-free **reference scan** the differential
//! suites compare the probe against ([`scan`]). Every loop here runs on
//! the calling thread, as every kernel does.
//!
//! The evaluator is the kernel's one caller — the incremental view
//! engine's join deltas are evaluator probes over `ℕ`-bag halves of a
//! delta — so every pair combines `ℕ·ℕ`. What stays with the caller is
//! *policy*, passed in as closures the compiler monomorphises: where a
//! pair goes, what it costs (a step and an element-budget check per
//! pair) and which operand gets indexed.

use crate::index::BagIndex;
use crate::natural::Natural;
use crate::value::Value;

/// The normal form of an equality `αᵢ = αⱼ` read off a σ predicate:
/// `i < j`, or `None` when it is no join — `i = j` is trivially true, and
/// `α₀` is not an attribute (1-based), so such a σ must stay unfused for
/// the per-element rule to raise `AttrIndexZero`.
pub fn equi_attrs(i: usize, j: usize) -> Option<(usize, usize)> {
    (i != j && i != 0 && j != 0).then(|| (i.min(j), i.max(j)))
}

/// `Some(arity)` iff every row is a tuple of one arity (no rows, no
/// witness: `None`, and the caller falls back).
pub fn uniform_arity<M>(rows: &[(Value, M)]) -> Option<usize> {
    let (first, rest) = rows.split_first()?;
    let arity = first.0.as_tuple()?.len();
    rest.iter()
        .all(|(row, _)| row.as_tuple().is_some_and(|fields| fields.len() == arity))
        .then_some(arity)
}

/// The boundary test: with `i < j` numbering the concatenated tuple,
/// `αᵢ = αⱼ` is a probe join iff `i` falls on the left operand and `j` on
/// the right. Returns the keys in each side's own 1-based numbering.
pub fn spanning_keys(
    i: usize,
    j: usize,
    left_arity: usize,
    right_arity: usize,
) -> Option<(usize, usize)> {
    (1 <= i && i <= left_arity && left_arity < j && j <= left_arity + right_arity)
        .then(|| (i, j - left_arity))
}

/// Look the `key`-th field (1-based) of every row up in `index` and hand
/// each match to `sink` as `(left fields, right fields, probe
/// multiplicity, match multiplicity)` — fields in operand order,
/// whichever side is probing. The first error from `sink` ends the walk.
/// Rows must be tuples at least `key` wide ([`spanning_keys`] over their
/// [`uniform_arity`] establishes it).
pub fn probe<P, E>(
    rows: &[(Value, P)],
    index: &BagIndex,
    key: usize,
    probe_is_left: bool,
    mut sink: impl FnMut(&[Value], &[Value], &P, &Natural) -> Result<(), E>,
) -> Result<(), E> {
    for (row, probe_mult) in rows {
        let fields = row.as_tuple().expect("probe rows are tuples");
        for (matched, match_mult) in index.group(&fields[key - 1]) {
            let other = matched.as_tuple().expect("indexed rows are tuples");
            if probe_is_left {
                sink(fields, other, probe_mult, match_mult)?;
            } else {
                sink(other, fields, probe_mult, match_mult)?;
            }
        }
    }
    Ok(())
}

/// The `k`-th (1-based) field of the virtual concatenation `left ++ right`.
fn pair_field<'x>(left: &'x [Value], right: &'x [Value], k: usize) -> &'x Value {
    if k <= left.len() {
        &left[k - 1]
    } else {
        &right[k - left.len() - 1]
    }
}

/// The reference loop: pair every row of `rows` (the outer loop, playing
/// the probe side) with every row of `other` and keep the pairs whose
/// concatenation satisfies `αᵢ = αⱼ` — any in-range `i`, `j`, spanning or
/// not. Same sink contract as [`probe`], and deliberately independent of
/// [`BagIndex`]: this is what the indexed paths are checked against.
pub fn scan<P, M, E>(
    rows: &[(Value, P)],
    other: &[(Value, M)],
    (i, j): (usize, usize),
    rows_are_left: bool,
    mut sink: impl FnMut(&[Value], &[Value], &P, &M) -> Result<(), E>,
) -> Result<(), E> {
    for (row, row_mult) in rows {
        let fields = row.as_tuple().expect("scan rows are tuples");
        for (other_row, other_mult) in other {
            let other_fields = other_row.as_tuple().expect("scan rows are tuples");
            let (left, right) = if rows_are_left {
                (fields, other_fields)
            } else {
                (other_fields, fields)
            };
            if pair_field(left, right, i) == pair_field(left, right, j) {
                sink(left, right, row_mult, other_mult)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::{Bag, BagBuilder};

    fn rows(pairs: &[(i64, i64, u64)]) -> Bag {
        Bag::from_counted(pairs.iter().map(|&(a, b, m)| {
            (
                Value::tuple([Value::int(a), Value::int(b)]),
                Natural::from(m),
            )
        }))
    }

    #[test]
    fn normal_form_orders_and_rejects() {
        assert_eq!(equi_attrs(3, 2), Some((2, 3)));
        assert_eq!(equi_attrs(2, 2), None);
        assert_eq!(equi_attrs(0, 2), None);
        assert_eq!(equi_attrs(2, 0), None);
    }

    #[test]
    fn boundary_test_yields_per_side_keys() {
        assert_eq!(spanning_keys(2, 3, 2, 2), Some((2, 1)));
        assert_eq!(spanning_keys(1, 4, 2, 2), Some((1, 2)));
        assert_eq!(spanning_keys(1, 2, 2, 2), None); // both on the left
        assert_eq!(spanning_keys(3, 4, 2, 2), None); // both on the right
        assert_eq!(spanning_keys(2, 5, 2, 2), None); // past both sides
        assert_eq!(spanning_keys(0, 3, 2, 2), None);
    }

    #[test]
    fn arity_needs_a_witness_and_one_width() {
        assert_eq!(
            uniform_arity(rows(&[(1, 2, 1), (3, 4, 2)]).pairs()),
            Some(2)
        );
        assert_eq!(uniform_arity(Bag::new().pairs()), None);
        let mut mixed = rows(&[(1, 2, 1)]);
        mixed.insert(Value::tuple([Value::int(9)]));
        assert_eq!(uniform_arity(mixed.pairs()), None);
        assert_eq!(
            uniform_arity(Bag::from_values([Value::int(1)]).pairs()),
            None
        );
    }

    /// `σ_{α₂=α₃}(L × R)` through `f`, multiplicities multiplied.
    fn joined(
        f: impl FnOnce(&mut dyn FnMut(&[Value], &[Value], &Natural, &Natural) -> Result<(), ()>),
    ) -> Bag {
        let mut out = BagBuilder::new();
        f(&mut |l, r, a, b| {
            out.push(Value::concat_tuples(l, r), a * b);
            Ok(())
        });
        out.build()
    }

    #[test]
    fn probe_from_either_side_matches_the_scan() {
        let left = rows(&[(1, 7, 2), (2, 7, 1), (3, 8, 3)]);
        let right = rows(&[(7, 0, 2), (7, 1, 1), (9, 2, 5)]);
        let reference = joined(|sink| {
            scan(left.pairs(), right.pairs(), (2, 3), true, sink).unwrap();
        });
        assert_eq!(reference.distinct_count(), 4);
        let left_index = BagIndex::build(&left, 2).unwrap();
        let right_index = BagIndex::build(&right, 1).unwrap();
        let probing_right = joined(|sink| {
            probe(right.pairs(), &left_index, 1, false, sink).unwrap();
        });
        let probing_left = joined(|sink| {
            probe(left.pairs(), &right_index, 2, true, sink).unwrap();
        });
        assert_eq!(probing_right, reference);
        assert_eq!(probing_left, reference);
        // The scan's outer loop may be either operand.
        let scanning_right = joined(|sink| {
            scan(right.pairs(), left.pairs(), (2, 3), false, sink).unwrap();
        });
        assert_eq!(scanning_right, reference);
    }
}
