//! Deterministic partitioned keywise merges over the sorted pair slice.
//!
//! The PR-3 representation — strictly ascending `(Value, Natural)` slices —
//! was chosen because the hot operator shapes partition cleanly at key
//! boundaries. The four merges here (`∪⁺`, `−`, `∪`, `∩`) split **both**
//! inputs into at most `chunks` contiguous ranges **as a pure function of
//! the requested chunk count** (never of worker count, load, or timing),
//! run the ranges on the global [`crate::pool`], and concatenate the
//! pre-sorted chunk outputs. The output multiplicity at a key depends only
//! on the two input multiplicities at that key, and both sides are split
//! at *shared* pivot keys (`partition_point`), so no key spans two chunks
//! and concatenation is exactly the serial merge — which is what the
//! parallel↔serial twin differential pins down.
//!
//! These are the only partitioned kernels. Joins, products and
//! powerset/powerbag enumeration always run serially: their partitioned
//! twins added a serial fold or sort over the whole result and measured
//! slower than the serial kernel on a 2-core host.

use crate::bag::Bag;
use crate::natural::Natural;
use crate::pool;
use crate::value::Value;

/// Default distinct-element threshold below which operators stay serial:
/// partitioning and task hand-off cost more than a small merge.
pub const DEFAULT_THRESHOLD: usize = 4096;

/// Per-evaluator parallel execution settings.
///
/// `chunks` is the number of partitions a merge splits work into — a pure
/// function of this value, so results (bags, errors, step charges) are
/// identical for every setting; only scheduling changes. `threshold` is the
/// minimum combined input size (distinct elements) before a merge bothers
/// partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallel {
    /// Partition count, always in `1..=`[`pool::MAX_PARALLELISM`]; `1`
    /// disables parallel execution.
    chunks: usize,
    /// Minimum work size before partitioning kicks in.
    pub threshold: usize,
}

impl Parallel {
    /// `chunks` partitions, clamped to `1..=`[`pool::MAX_PARALLELISM`] — the
    /// one place a partition count is bounded, so no setter can hand a
    /// merge more cuts than it can allocate.
    pub fn new(chunks: usize, threshold: usize) -> Parallel {
        Parallel {
            chunks: chunks.clamp(1, pool::MAX_PARALLELISM),
            threshold,
        }
    }

    /// Capture the process-wide default ([`pool::default_parallelism`]).
    pub fn from_global() -> Parallel {
        Parallel::new(pool::default_parallelism(), DEFAULT_THRESHOLD)
    }

    /// The partition count (`1` means serial).
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Whether a piece of work of size `n` is worth partitioning.
    pub fn wants(&self, n: usize) -> bool {
        self.chunks > 1 && n >= self.threshold
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

/// A chunk job producing one partition's sorted pair run.
type PairRunJob = Box<dyn FnOnce() -> Vec<(Value, Natural)> + Send>;

/// Partitioned keywise merge: identical output to the serial operator.
fn par_merge(a: &Bag, b: &Bag, op: MergeOp, chunks: usize) -> Bag {
    let cuts = aligned_cuts(a.pairs(), b.pairs(), chunks);
    if cuts.len() <= 1 {
        return Bag::from_sorted_vec(merge_ranges(a.pairs(), b.pairs(), op));
    }
    note_partitioned();
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

// ----- observability -----

/// Count one merge that actually partitioned. The counter is resolved
/// lazily from the installed [`balg_obs`] registry (inert until one is
/// installed, same idiom as the index-cache counters) and never
/// influences results.
fn note_partitioned() {
    static PARTITIONS: std::sync::OnceLock<balg_obs::Counter> = std::sync::OnceLock::new();
    let counter = match PARTITIONS.get() {
        Some(counter) => counter,
        None => {
            let Some(registry) = balg_obs::global() else {
                return;
            };
            PARTITIONS.get_or_init(|| {
                registry.counter(
                    "balg_par_partitions_total",
                    "Operator executions that ran partitioned on the work-stealing pool",
                )
            })
        }
    };
    counter.inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag_of(rows: &[(i64, u64)]) -> Bag {
        Bag::from_counted(rows.iter().map(|&(v, m)| (Value::int(v), Natural::from(m))))
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
