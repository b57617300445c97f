//! # balg-bench — wall-clock bench runner
//!
//! The `balg-bench` binary times one [`paper`] group per experiment
//! E1–E18 (the core computation each report regenerates), the
//! [`micro_wall`] hot spots, the [`incremental`] update-stream workloads
//! — maintained views vs full recompute under 1 000 single-tuple
//! updates — the [`durability`] r1
//! workloads (WAL group commit, cold-start replay, checkpoint cost) —
//! and the [`server_load`] concurrent-service workloads (1k+ simulated
//! sessions against `balg-server`, reporting p50/p99 latency and
//! throughput) — and can append a labelled snapshot into
//! `BENCH_baseline.json` via the [`json`] module.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durability;
pub mod incremental;
pub mod json;
pub mod micro_wall;
pub mod obs_overhead;
pub mod paper;
pub mod server_load;

use balg_core::bag::Bag;
use balg_core::natural::Natural;
use balg_core::value::Value;

/// A flat unary bag `⟦[0], [1], …⟧` with every element at multiplicity
/// `mult` — the standard bench workload.
pub fn workload_bag(distinct: u64, mult: u64) -> Bag {
    let mut bag = Bag::new();
    for i in 0..distinct {
        bag.insert_with_multiplicity(Value::tuple([Value::int(i as i64)]), Natural::from(mult));
    }
    bag
}

/// A binary edge bag forming a cycle over `n` nodes with duplicated
/// edges.
pub fn cycle_graph(n: u64, mult: u64) -> Bag {
    let mut bag = Bag::new();
    for i in 0..n {
        bag.insert_with_multiplicity(
            Value::tuple([Value::int(i as i64), Value::int(((i + 1) % n) as i64)]),
            Natural::from(mult),
        );
    }
    bag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shape() {
        let bag = workload_bag(10, 3);
        assert_eq!(bag.distinct_count(), 10);
        assert_eq!(bag.cardinality(), Natural::from(30u64));
        let graph = cycle_graph(5, 2);
        assert_eq!(graph.distinct_count(), 5);
    }
}
