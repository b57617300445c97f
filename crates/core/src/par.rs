//! Deterministic partitioned operator kernels over the sorted pair slice.
//!
//! The PR-3 representation — strictly ascending `(Value, Natural)` slices —
//! was chosen because the hot operator shapes partition cleanly at key
//! boundaries. This module exploits that: every kernel here splits its
//! input into `chunks` contiguous ranges **as a pure function of the
//! requested chunk count** (never of worker count, load, or timing), runs
//! the ranges on the global [`crate::pool`], and concatenates the
//! pre-sorted chunk outputs. The result is *provably identical* to the
//! serial operator — same bag, same error, same budget accounting — which
//! is what the parallel↔serial twin differential pins down.
//!
//! Three determinism arguments cover everything here:
//!
//! * **Keywise merges** (`∪⁺`, `−`, `∪`, `∩`): the output multiplicity at a
//!   key depends only on the two input multiplicities at that key. Both
//!   sides are split at *shared* pivot keys (`partition_point`), so no key
//!   spans two chunks and concatenation is exactly the serial merge.
//! * **Row-major emission** (uniform-arity `product`): chunking the left
//!   rows slices the serial output vector into contiguous pieces;
//!   concatenation rebuilds it verbatim. Error cases (`NotATuple`,
//!   `TooLarge`) are decided up front by a pre-scan that reproduces the
//!   serial walk's first-error rule exactly.
//! * **Rank-space chunking** (powerset/powerbag): the odometer enumeration
//!   is a bijection between ranks `0..Π(mᵢ+1)` and subbag choices (mixed
//!   radix, digit 0 least significant). Chunks enumerate disjoint rank
//!   ranges; the serial path ends with one `sort_unstable` over distinct
//!   keys, so sorting the concatenation produces the identical vector.

use crate::bag::{build_subbag, subbag_capacity, Bag, BagError};
use crate::natural::Natural;
use crate::pool;
use crate::value::Value;

/// Default distinct-element threshold below which operators stay serial:
/// partitioning and task hand-off cost more than a small merge.
pub const DEFAULT_THRESHOLD: usize = 4096;

/// Per-evaluator parallel execution settings.
///
/// `chunks` is the number of partitions operators split work into — a pure
/// function of this value, so results (bags, errors, step charges) are
/// identical for every setting; only scheduling changes. `threshold` is the
/// minimum input size (distinct elements / probe rows / predicted outputs)
/// before an operator bothers partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallel {
    /// Partition count; `<= 1` disables parallel execution.
    pub chunks: usize,
    /// Minimum work size before partitioning kicks in.
    pub threshold: usize,
}

impl Parallel {
    /// Parallelism off: everything runs the serial paths.
    pub fn disabled() -> Parallel {
        Parallel {
            chunks: 1,
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Capture the process-wide default ([`pool::default_parallelism`]).
    pub fn from_global() -> Parallel {
        Parallel {
            chunks: pool::default_parallelism(),
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Whether any kernel may partition at all.
    pub fn enabled(&self) -> bool {
        self.chunks > 1
    }

    /// Whether a piece of work of size `n` is worth partitioning.
    pub fn wants(&self, n: usize) -> bool {
        self.chunks > 1 && n >= self.threshold
    }
}

impl Default for Parallel {
    fn default() -> Parallel {
        Parallel::disabled()
    }
}

// ----- shared partitioning -----

/// Split two sorted slices at shared key boundaries into at most `chunks`
/// aligned ranges. Returns the *end* index pair of each chunk (the last is
/// always `(a.len(), b.len())`). Pivot keys are drawn from the longer
/// slice at even intervals; `partition_point` places every key strictly
/// below a pivot in the earlier chunk on **both** sides, so no key spans a
/// boundary.
fn aligned_cuts(
    a: &[(Value, Natural)],
    b: &[(Value, Natural)],
    chunks: usize,
) -> Vec<(usize, usize)> {
    let big = if a.len() >= b.len() { a } else { b };
    let mut cuts = Vec::with_capacity(chunks);
    let mut prev = (0usize, 0usize);
    for k in 1..chunks {
        let pos = big.len() * k / chunks;
        if pos == 0 || pos >= big.len() {
            continue;
        }
        let key = &big[pos].0;
        let cut = (
            a.partition_point(|p| p.0 < *key),
            b.partition_point(|p| p.0 < *key),
        );
        if cut != prev {
            cuts.push(cut);
            prev = cut;
        }
    }
    if prev != (a.len(), b.len()) || cuts.is_empty() {
        cuts.push((a.len(), b.len()));
    }
    cuts
}

/// The four keywise merge shapes, each a closed function of the per-key
/// multiplicity pair — the property that makes boundary-aligned chunking
/// exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MergeOp {
    /// `∪⁺`: multiplicities add.
    Add,
    /// `−`: monus (`sup(0, p − q)`).
    Monus,
    /// `∪`: `sup(p, q)`.
    Max,
    /// `∩`: `inf(p, q)`, absent keys drop.
    Min,
}

/// Serial keywise merge of two sorted ranges. Output semantics match the
/// corresponding [`Bag`] operator restricted to these ranges.
fn merge_ranges(
    a: &[(Value, Natural)],
    b: &[(Value, Natural)],
    op: MergeOp,
) -> Vec<(Value, Natural)> {
    let cap = match op {
        MergeOp::Add | MergeOp::Max => a.len() + b.len(),
        MergeOp::Monus => a.len(),
        MergeOp::Min => a.len().min(b.len()),
    };
    let mut out = Vec::with_capacity(cap);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (av, am) = &a[i];
        let (bv, bm) = &b[j];
        match av.cmp(bv) {
            std::cmp::Ordering::Less => {
                if matches!(op, MergeOp::Add | MergeOp::Monus | MergeOp::Max) {
                    out.push((av.clone(), am.clone()));
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if matches!(op, MergeOp::Add | MergeOp::Max) {
                    out.push((bv.clone(), bm.clone()));
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let m = match op {
                    MergeOp::Add => {
                        let mut x = am.clone();
                        x += bm;
                        x
                    }
                    MergeOp::Monus => am.monus(bm),
                    MergeOp::Max => am.max(bm).clone(),
                    MergeOp::Min => am.min(bm).clone(),
                };
                if !m.is_zero() {
                    out.push((av.clone(), m));
                }
                i += 1;
                j += 1;
            }
        }
    }
    if matches!(op, MergeOp::Add | MergeOp::Monus | MergeOp::Max) {
        out.extend(a[i..].iter().cloned());
    }
    if matches!(op, MergeOp::Add | MergeOp::Max) {
        out.extend(b[j..].iter().cloned());
    }
    out
}

/// Partitioned keywise merge: identical output to the serial operator.
fn par_merge(a: &Bag, b: &Bag, op: MergeOp, chunks: usize) -> Bag {
    let cuts = aligned_cuts(a.pairs(), b.pairs(), chunks);
    if cuts.len() <= 1 {
        return Bag::from_sorted_vec(merge_ranges(a.pairs(), b.pairs(), op));
    }
    note_partitioned(cuts.len());
    let mut jobs: Vec<PairRunJob> = Vec::with_capacity(cuts.len());
    let mut start = (0usize, 0usize);
    for &(ae, be) in &cuts {
        let (a, b) = (a.clone(), b.clone());
        let (as_, bs) = start;
        jobs.push(Box::new(move || {
            merge_ranges(&a.pairs()[as_..ae], &b.pairs()[bs..be], op)
        }));
        start = (ae, be);
    }
    let parts = pool::global().run(jobs);
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    Bag::from_sorted_vec(out)
}

/// Partitioned additive union `∪⁺`. Equal to [`Bag::additive_union`].
pub fn additive_union(a: &Bag, b: &Bag, chunks: usize) -> Bag {
    if a.is_empty() || b.is_empty() || a.shares_representation(b) {
        return a.additive_union(b);
    }
    par_merge(a, b, MergeOp::Add, chunks)
}

/// Partitioned subtraction `−` (monus). Equal to [`Bag::subtract`].
pub fn subtract(a: &Bag, b: &Bag, chunks: usize) -> Bag {
    if a.is_empty() || b.is_empty() || a.shares_representation(b) {
        return a.subtract(b);
    }
    par_merge(a, b, MergeOp::Monus, chunks)
}

/// Partitioned maximal union `∪`. Equal to [`Bag::max_union`].
pub fn max_union(a: &Bag, b: &Bag, chunks: usize) -> Bag {
    if a.is_empty() || b.is_empty() || a.shares_representation(b) {
        return a.max_union(b);
    }
    par_merge(a, b, MergeOp::Max, chunks)
}

/// Partitioned intersection `∩`. Equal to [`Bag::intersect`].
pub fn intersect(a: &Bag, b: &Bag, chunks: usize) -> Bag {
    if a.is_empty() || b.is_empty() || a.shares_representation(b) {
        return a.intersect(b);
    }
    par_merge(a, b, MergeOp::Min, chunks)
}

// ----- Cartesian product -----

/// Partitioned Cartesian product, identical to [`Bag::product`] in output
/// *and* error: the serial walk's first-error rule (a non-tuple right
/// element at pair index `j` beats the budget trip at pair index
/// `max_elements` iff `j ≤ max_elements`) is reproduced by pre-scanning.
///
/// Only the uniform-left-arity path (row-major, born-sorted emission)
/// partitions; mixed arities fall back to the serial builder path, whose
/// in-builder merging does not chunk safely.
pub fn product(a: &Bag, b: &Bag, max_elements: u64, chunks: usize) -> Result<Bag, BagError> {
    if a.is_empty() {
        return Ok(Bag::new());
    }
    let mut left_arity: Option<usize> = None;
    let mut uniform = true;
    for (value, _) in a.iter() {
        let fields = value
            .as_tuple()
            .ok_or_else(|| BagError::NotATuple(value.clone()))?;
        match left_arity {
            None => left_arity = Some(fields.len()),
            Some(ar) if ar == fields.len() => {}
            Some(_) => uniform = false,
        }
    }
    if !uniform || chunks <= 1 {
        return a.product(b, max_elements);
    }
    let predicted =
        || &Natural::from(a.distinct_count() as u64) * &Natural::from(b.distinct_count() as u64);
    // First-error pre-scan: the serial inner loop extracts the right tuple
    // *before* the budget check, and the first left row visits every right
    // element, so a bad right element at index `j` errors at pair index
    // `j` while the budget trips at pair index `max_elements`.
    let j_bad = b.iter().position(|(value, _)| value.as_tuple().is_none());
    if let Some(j) = j_bad {
        if j as u64 <= max_elements {
            let (value, _) = b.iter().nth(j).expect("scanned above");
            return Err(BagError::NotATuple(value.clone()));
        }
        return Err(BagError::TooLarge {
            predicted: predicted(),
            limit: max_elements,
        });
    }
    let (l, r) = (a.distinct_count(), b.distinct_count());
    let total = l as u128 * r as u128;
    if total > max_elements as u128 {
        return Err(BagError::TooLarge {
            predicted: predicted(),
            limit: max_elements,
        });
    }
    note_partitioned(chunks.min(l));
    let mut jobs: Vec<PairRunJob> = Vec::with_capacity(chunks);
    let mut row = 0usize;
    for k in 1..=chunks {
        let end = l * k / chunks;
        if end <= row {
            continue;
        }
        let (a, b) = (a.clone(), b.clone());
        let (lo, hi) = (row, end);
        jobs.push(Box::new(move || {
            let mut out = Vec::with_capacity((hi - lo) * b.distinct_count());
            for (left, lm) in &a.pairs()[lo..hi] {
                let left_fields = left.as_tuple().expect("scanned above");
                for (right, rm) in b.pairs() {
                    let right_fields = right.as_tuple().expect("pre-scanned");
                    out.push((Value::concat_tuples(left_fields, right_fields), lm * rm));
                }
            }
            out
        }));
        row = end;
    }
    let parts = pool::global().run(jobs);
    let mut out = Vec::with_capacity(total as usize);
    for part in parts {
        out.extend(part);
    }
    Ok(Bag::from_sorted_vec(out))
}

// ----- powerset / powerbag -----

/// Decode a rank into odometer digits (mixed radix, digit 0 least
/// significant — exactly the serial odometer's increment order).
fn decode_rank(mut rank: u64, bounds: &[u64], digits: &mut [u64]) {
    for (d, &b) in digits.iter_mut().zip(bounds) {
        let base = b + 1;
        *d = rank % base;
        rank /= base;
    }
}

/// Enumerate subbag choices for ranks `lo..hi`, pushing one pair per rank.
fn enumerate_ranks(bag: &Bag, lo: u64, hi: u64, weighted: bool, out: &mut Vec<(Value, Natural)>) {
    let entries: Vec<(&Value, &Natural)> = bag.iter().collect();
    let bounds: Vec<u64> = entries
        .iter()
        .map(|(_, m)| m.to_u64().expect("bounded by predicted cardinality"))
        .collect();
    let mut current = vec![0u64; bounds.len()];
    decode_rank(lo, &bounds, &mut current);
    for _ in lo..hi {
        if weighted {
            let mut weight = Natural::one();
            for ((_, mult), &count) in entries.iter().zip(&current) {
                weight *= &Natural::binomial(mult, count);
            }
            out.push((Value::Bag(build_subbag(&entries, &current)), weight));
        } else {
            out.push((Value::Bag(build_subbag(&entries, &current)), Natural::one()));
        }
        // Odometer increment over 0..=bounds[i].
        let mut pos = 0;
        while pos < bounds.len() {
            if current[pos] < bounds[pos] {
                current[pos] += 1;
                break;
            }
            current[pos] = 0;
            pos += 1;
        }
    }
}

/// Shared partitioned subbag enumeration for `P` and `P_b`.
fn par_subbags(
    bag: &Bag,
    max_elements: u64,
    chunks: usize,
    weighted: bool,
) -> Result<Bag, BagError> {
    let predicted = bag.powerset_cardinality();
    if predicted > Natural::from(max_elements) {
        return Err(BagError::TooLarge {
            predicted,
            limit: max_elements,
        });
    }
    let total = predicted.to_u64().expect("bounded by the element budget");
    note_partitioned(chunks);
    let mut jobs: Vec<PairRunJob> = Vec::with_capacity(chunks);
    let mut lo = 0u64;
    for k in 1..=chunks as u64 {
        let hi = total * k / chunks as u64;
        if hi <= lo {
            continue;
        }
        let bag = bag.clone();
        let (lo_, hi_) = (lo, hi);
        jobs.push(Box::new(move || {
            let mut out = Vec::with_capacity((hi_ - lo_) as usize);
            enumerate_ranks(&bag, lo_, hi_, weighted, &mut out);
            out
        }));
        lo = hi;
    }
    let parts = pool::global().run(jobs);
    let mut pairs = Vec::with_capacity(subbag_capacity(&Natural::from(total), max_elements));
    for part in parts {
        pairs.extend(part);
    }
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(Bag::from_sorted_vec(pairs))
}

/// Partitioned powerset `P(B)`. Equal to [`Bag::powerset`] in output and
/// error. The single-distinct-element fast path and trivially small
/// inputs delegate to the serial implementation.
pub fn powerset(bag: &Bag, max_elements: u64, chunks: usize) -> Result<Bag, BagError> {
    if chunks <= 1 || bag.distinct_count() <= 1 {
        return bag.powerset(max_elements);
    }
    par_subbags(bag, max_elements, chunks, false)
}

/// Partitioned powerbag `P_b(B)`. Equal to [`Bag::powerbag`] in output and
/// error.
pub fn powerbag(bag: &Bag, max_elements: u64, chunks: usize) -> Result<Bag, BagError> {
    if chunks <= 1 || bag.distinct_count() == 0 {
        return bag.powerbag(max_elements);
    }
    par_subbags(bag, max_elements, chunks, true)
}

// ----- observability -----

/// Process-global parallel-execution counters, resolved lazily from the
/// installed [`balg_obs`] registry (inert until one is installed, same
/// idiom as the index-cache counters). Counters never influence results.
struct ParObs {
    partitions: balg_obs::Counter,
    fallbacks: balg_obs::Counter,
}

static PAR_OBS: std::sync::OnceLock<ParObs> = std::sync::OnceLock::new();

fn par_obs() -> Option<&'static ParObs> {
    if let Some(obs) = PAR_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = PAR_OBS.set(ParObs {
        partitions: registry.counter(
            "balg_par_partitions_total",
            "Operator executions that ran partitioned on the work-stealing pool",
        ),
        fallbacks: registry.counter(
            "balg_par_serial_fallbacks_total",
            "Optimistic parallel attempts that re-ran serially (budget overflow)",
        ),
    });
    PAR_OBS.get()
}

/// A chunk job producing one partition's sorted pair run.
type PairRunJob = Box<dyn FnOnce() -> Vec<(Value, Natural)> + Send>;

/// Count one operator execution that actually partitioned (≥ 2 chunks) —
/// the kernels here and [`crate::join::chunked`] record into the same
/// counters; never influences results.
pub(crate) fn note_partitioned(chunks: usize) {
    if chunks > 1 {
        if let Some(obs) = par_obs() {
            obs.partitions.inc();
        }
    }
}

/// Count one optimistic parallel attempt that fell back to the serial path
/// to reproduce exact budget-error payloads.
pub fn note_serial_fallback() {
    if let Some(obs) = par_obs() {
        obs.fallbacks.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag_of(rows: &[(i64, u64)]) -> Bag {
        Bag::from_counted(rows.iter().map(|&(v, m)| (Value::int(v), Natural::from(m))))
    }

    fn tuples(rows: &[(i64, i64, u64)]) -> Bag {
        Bag::from_counted(rows.iter().map(|&(a, b, m)| {
            (
                Value::tuple([Value::int(a), Value::int(b)]),
                Natural::from(m),
            )
        }))
    }

    #[test]
    fn merges_agree_with_serial_at_every_chunk_count() {
        let a = bag_of(
            &(0..200)
                .map(|i| (i, (i % 5 + 1) as u64))
                .collect::<Vec<_>>(),
        );
        let b = bag_of(
            &(100..300)
                .map(|i| (i, (i % 3 + 1) as u64))
                .collect::<Vec<_>>(),
        );
        for chunks in [1, 2, 3, 4, 7, 64] {
            assert_eq!(additive_union(&a, &b, chunks), a.additive_union(&b));
            assert_eq!(subtract(&a, &b, chunks), a.subtract(&b));
            assert_eq!(subtract(&b, &a, chunks), b.subtract(&a));
            assert_eq!(max_union(&a, &b, chunks), a.max_union(&b));
            assert_eq!(intersect(&a, &b, chunks), a.intersect(&b));
        }
    }

    #[test]
    fn product_agrees_with_serial_including_errors() {
        let a = tuples(&(0..40).map(|i| (i, i + 1, 2u64)).collect::<Vec<_>>());
        let b = tuples(&(0..30).map(|i| (i * 2, i, 1u64)).collect::<Vec<_>>());
        for chunks in [1, 2, 4, 9] {
            assert_eq!(product(&a, &b, 1 << 20, chunks), a.product(&b, 1 << 20));
            // Budget trip.
            assert_eq!(product(&a, &b, 100, chunks), a.product(&b, 100));
        }
        // Non-tuple on the right: same first-error as serial.
        let bad = bag_of(&[(1, 1), (2, 1)]);
        for chunks in [2, 4] {
            assert_eq!(product(&a, &bad, 1 << 20, chunks), a.product(&bad, 1 << 20));
            assert_eq!(product(&a, &bad, 0, chunks), a.product(&bad, 0));
        }
    }

    #[test]
    fn powersets_agree_with_serial() {
        let b = bag_of(&[(1, 3), (2, 2), (3, 1), (4, 4)]);
        for chunks in [1, 2, 4, 5] {
            assert_eq!(powerset(&b, 1 << 20, chunks), b.powerset(1 << 20));
            assert_eq!(powerbag(&b, 1 << 20, chunks), b.powerbag(1 << 20));
            // Budget trip reproduces the serial error.
            assert_eq!(powerset(&b, 10, chunks), b.powerset(10));
            assert_eq!(powerbag(&b, 10, chunks), b.powerbag(10));
        }
    }

    #[test]
    fn aligned_cuts_share_boundaries() {
        let a = bag_of(&(0..100).map(|i| (i, 1u64)).collect::<Vec<_>>());
        let b = bag_of(&(50..150).map(|i| (i, 1u64)).collect::<Vec<_>>());
        let cuts = aligned_cuts(a.pairs(), b.pairs(), 4);
        assert_eq!(*cuts.last().unwrap(), (100, 100));
        // Ends are non-decreasing on both sides.
        let mut prev = (0, 0);
        for &c in &cuts {
            assert!(c.0 >= prev.0 && c.1 >= prev.1);
            prev = c;
        }
    }
}
