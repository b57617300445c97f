//! The equi-join kernel: the one place that enumerates the surviving
//! pairs of `σ_{αᵢ=αⱼ}(L × R)`.
//!
//! The paper has no join operator — a join is product then selection,
//! both inside BALG¹ — so every engine that wants it fast recognises that
//! shape and fuses it. What they share lives here, once: **classify**
//! ([`equi_attrs`], [`uniform_arity`], [`spanning_keys`]), **probe** a
//! [`BagIndex`] ([`probe`]), the index-free **reference scan** the
//! differential suites compare the probe against ([`scan`]), and the
//! **chunked driver** of the optimistic partitioned runs ([`chunked`],
//! [`PushBudget`]).
//!
//! What differs between engines is *policy* and stays with them, passed
//! in as closures the compiler monomorphises: how two multiplicities
//! combine (`ℕ·ℕ`, `ℤ·ℕ`, `−ℤ·ℤ`, set insertion), where a pair goes, what
//! it costs (a step and an element-budget check per pair, or one bulk
//! charge after an optimistic run) and which operand gets indexed.
//! Nothing here knows which engine is calling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::index::BagIndex;
use crate::natural::Natural;
use crate::value::Value;
use crate::{par, pool};

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

/// The fused join's shape guards in one call: [`uniform_arity`] on both
/// operands, then [`spanning_keys`].
pub fn classify<L, R>(
    i: usize,
    j: usize,
    left: &[(Value, L)],
    right: &[(Value, R)],
) -> Option<(usize, usize)> {
    spanning_keys(i, j, uniform_arity(left)?, uniform_arity(right)?)
}

/// Look the `key`-th field (1-based) of every row up in `index` and hand
/// each match to `sink` as `(left fields, right fields, probe
/// multiplicity, match multiplicity)` — fields in operand order,
/// whichever side is probing. `admit` learns a row's match count before
/// its pairs are emitted, so an optimistic run charges its budget per
/// group, not per pair. The first error from either closure ends the walk.
/// Rows must be tuples at least `key` wide ([`classify`] establishes it).
pub fn probe<P, E>(
    rows: &[(Value, P)],
    index: &BagIndex,
    key: usize,
    probe_is_left: bool,
    mut admit: impl FnMut(u64) -> Result<(), E>,
    mut sink: impl FnMut(&[Value], &[Value], &P, &Natural) -> Result<(), E>,
) -> Result<(), E> {
    for (row, probe_mult) in rows {
        let fields = row.as_tuple().expect("probe rows are tuples");
        let group = index.group(&fields[key - 1]);
        admit(group.len() as u64)?;
        for (matched, match_mult) in group {
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

/// An optimistic run emitted more pairs than its [`PushBudget`] allows.
/// Nothing was committed; the caller re-runs its exact serial path, which
/// reproduces the precise error payload and partial charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow;

/// The pair budget all chunks (and terms) of one optimistic run share. A
/// run commits only if the total pair count stayed within the limit — the
/// regime in which the serial path cannot trip its budgets either.
#[derive(Debug)]
pub struct PushBudget {
    used: AtomicU64,
    limit: u64,
}

impl PushBudget {
    /// A fresh budget of `limit` pairs.
    pub fn new(limit: u64) -> PushBudget {
        PushBudget {
            used: AtomicU64::new(0),
            limit,
        }
    }

    /// Claim room for `pairs` more pairs *before* materializing them, so
    /// committed work never exceeds the limit.
    pub fn admit(&self, pairs: u64) -> Result<(), Overflow> {
        // Relaxed: the counter publishes nothing but itself.
        let before = self.used.fetch_add(pairs, Ordering::Relaxed);
        if before.saturating_add(pairs) > self.limit {
            Err(Overflow)
        } else {
            Ok(())
        }
    }

    /// Pairs admitted so far — after a committed run, its pair count.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// Rank-proportional chunk boundaries over `n` rows: cut `k` ends at
/// `n·k/chunks`, a pure function of the requested chunk count (never of
/// worker count or load), so every parallelism setting partitions — and
/// therefore computes — identically. Empty ranges collapse away.
fn row_cuts(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, n.max(1));
    let mut cuts = Vec::with_capacity(chunks);
    let mut lo = 0usize;
    for k in 1..=chunks {
        let hi = n * k / chunks;
        if hi > lo {
            cuts.push((lo, hi));
            lo = hi;
        }
    }
    cuts
}

/// Run `chunk(lo, hi, budget)` — a [`probe`] or [`scan`] of that row
/// range into a chunk-local output — over rank-proportional cuts of
/// `rows` on the global [`pool`], and fold the outputs with `merge`, all
/// or nothing: one chunk overflowing the shared budget fails the run. A
/// single cut runs inline on this thread. Distinct probe rows yield
/// distinct pairs, so a keyed-sum `merge` of the chunk outputs equals one
/// builder fed the whole push stream.
pub fn chunked<T, F>(
    rows: usize,
    chunks: usize,
    budget: &Arc<PushBudget>,
    chunk: F,
    merge: impl Fn(&T, &T) -> T,
) -> Result<T, Overflow>
where
    T: Send + 'static,
    F: Fn(usize, usize, &PushBudget) -> Result<T, Overflow> + Send + Sync + 'static,
{
    let cuts = row_cuts(rows, chunks);
    let parts = if cuts.len() <= 1 {
        vec![chunk(0, rows, budget)]
    } else {
        par::note_partitioned(cuts.len());
        let chunk = Arc::new(chunk);
        let jobs: Vec<_> = cuts
            .into_iter()
            .map(|(lo, hi)| {
                let (chunk, budget) = (Arc::clone(&chunk), Arc::clone(budget));
                move || chunk(lo, hi, &budget)
            })
            .collect();
        pool::global().run(jobs)
    };
    let mut parts = parts.into_iter();
    let first = parts.next().expect("at least the inline chunk ran")?;
    parts.try_fold(first, |merged, part| Ok(merge(&merged, &part?)))
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

    #[test]
    fn cuts_are_a_pure_function_of_the_chunk_count() {
        assert_eq!(row_cuts(10, 4), vec![(0, 2), (2, 5), (5, 7), (7, 10)]);
        assert_eq!(row_cuts(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(row_cuts(5, 1), vec![(0, 5)]);
        assert_eq!(row_cuts(5, 0), vec![(0, 5)]);
        assert!(row_cuts(0, 4).is_empty());
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
            probe(right.pairs(), &left_index, 1, false, |_| Ok(()), sink).unwrap();
        });
        let probing_left = joined(|sink| {
            probe(left.pairs(), &right_index, 2, true, |_| Ok(()), sink).unwrap();
        });
        assert_eq!(probing_right, reference);
        assert_eq!(probing_left, reference);
        // The scan's outer loop may be either operand.
        let scanning_right = joined(|sink| {
            scan(right.pairs(), left.pairs(), (2, 3), false, sink).unwrap();
        });
        assert_eq!(scanning_right, reference);
    }

    #[test]
    fn chunked_runs_are_all_or_nothing() {
        let probe_rows = rows(&[(1, 7, 1), (2, 7, 1), (3, 7, 1), (4, 7, 1)]);
        let index = Arc::new(BagIndex::build(&rows(&[(7, 0, 1), (7, 1, 1)]), 1).unwrap());
        let run = |chunks: usize, limit: u64| {
            let budget = Arc::new(PushBudget::new(limit));
            let (probe_rows, index) = (probe_rows.clone(), Arc::clone(&index));
            let out = chunked(
                4,
                chunks,
                &budget,
                move |lo, hi, budget| {
                    let mut out = BagBuilder::new();
                    probe(
                        &probe_rows.pairs()[lo..hi],
                        &index,
                        2,
                        true,
                        |n| budget.admit(n),
                        |l, r, a, b| {
                            out.push(Value::concat_tuples(l, r), a * b);
                            Ok(())
                        },
                    )?;
                    Ok(out.build())
                },
                Bag::additive_union,
            );
            (out, budget.used())
        };
        let (serial, used) = run(1, 8);
        assert_eq!(used, 8);
        assert_eq!(serial.as_ref().unwrap().distinct_count(), 8);
        for chunks in [2, 4, 9] {
            assert_eq!(run(chunks, 8), (serial.clone(), 8), "{chunks} chunks");
            assert_eq!(run(chunks, 7).0, Err(Overflow), "{chunks} chunks");
        }
    }
}
