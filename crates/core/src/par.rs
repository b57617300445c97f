//! Deterministic partitioned keywise merges over the sorted pair slice.
//!
//! The four merges (`∪⁺`, `−`, `∪`, `∩`) are one kernel over two sorted
//! slices ([`crate::bag`], § *One keywise merge*). [`merge`] splits
//! **both** inputs into at most `chunks` contiguous ranges **as a pure
//! function of the requested chunk count** (never of worker count, load,
//! or timing), runs that kernel on each pair of ranges on the global
//! [`crate::pool`], and concatenates the pre-sorted chunk outputs. The
//! output multiplicity at a key depends only on the two input
//! multiplicities at that key, and both sides are split at *shared* pivot
//! keys (`partition_point`), so no key spans two chunks and concatenation
//! is exactly the serial merge — which is what the parallel↔serial twin
//! differential pins down.
//!
//! These are the only partitioned kernels. Joins, products and
//! powerset/powerbag enumeration always run serially: their partitioned
//! twins added a serial fold or sort over the whole result and measured
//! slower than the serial kernel on a 2-core host.

use crate::bag::{merge_slices, Bag, MergeOp};
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

/// A chunk job producing one partition's sorted pair run.
type PairRunJob = Box<dyn FnOnce() -> Vec<(Value, Natural)> + Send>;

/// The keywise merge `a op b` over at most `chunks` aligned cuts, each run
/// through the serial kernel on the pool. Equal to [`Bag::merge`] for
/// every chunk count.
pub fn merge(a: &Bag, b: &Bag, op: MergeOp, chunks: usize) -> Bag {
    if let Some(out) = a.merge_short_cut(b, op) {
        return out;
    }
    let cuts = aligned_cuts(a.pairs(), b.pairs(), chunks);
    if cuts.len() <= 1 {
        return Bag::from_sorted_vec(merge_slices(a.pairs(), b.pairs(), op));
    }
    note_partitioned();
    let mut jobs: Vec<PairRunJob> = Vec::with_capacity(cuts.len());
    let mut start = (0usize, 0usize);
    for &(ae, be) in &cuts {
        let (a, b) = (a.clone(), b.clone());
        let (as_, bs) = start;
        jobs.push(Box::new(move || {
            merge_slices(&a.pairs()[as_..ae], &b.pairs()[bs..be], op)
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
                    "Operator executions that ran partitioned on the pool",
                )
            })
        }
    };
    counter.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An operand script over `0..keys`: `(key, multiplicity)` draws,
    /// zeros dropped and repeats accumulated by `Bag::from_counted`.
    fn operand(keys: i64, draws: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(i64, u64)>> {
        proptest::collection::vec((0..keys, 0u64..4), draws)
    }

    fn bag_of(rows: &[(i64, u64)]) -> Bag {
        Bag::from_counted(rows.iter().map(|&(v, m)| (Value::int(v), Natural::from(m))))
    }

    proptest! {
        /// Every chunk count computes the serial merge, for operands of
        /// similar size, for one side 16× the other (the kernel's binary
        /// search on each cut) and for a bag merged with itself.
        #[test]
        fn merge_agrees_with_serial_at_every_chunk_count(
            operands in prop_oneof![
                (operand(300, 0..200), operand(300, 0..200)),
                (operand(300, 0..6), operand(300, 150..300)),
                (operand(300, 150..300), operand(300, 0..6)),
            ],
            shared in any::<bool>(),
        ) {
            let a = bag_of(&operands.0);
            let b = if shared { a.clone() } else { bag_of(&operands.1) };
            for op in [MergeOp::Add, MergeOp::Monus, MergeOp::Max, MergeOp::Min] {
                let serial = a.merge(&b, op);
                for chunks in [1, 2, 3, 7, 64] {
                    prop_assert_eq!(merge(&a, &b, op, chunks), serial.clone(), "{:?} at {} chunks", op, chunks);
                }
            }
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
