//! Wall-clock groups for the tracked micro hot spots, so their
//! trajectory lands in `BENCH_baseline.json` next to the E-groups.
//!
//! `micro_subbag_over_powerset` is the e4/e5 residual hot spot PR 4
//! committed a baseline for: `σ_{s ⊑ C}(P)` over the 65 536
//! subbags of `workload_bag(8, 3)`. The default group runs the memoized
//! membership tester; the `_scan` twin forces the per-element path
//! (re-deriving the reference and merge-walking it per subbag) — which
//! **is** the PR-4 algorithm, so the pair is the indexed-vs-baseline
//! ratio inside one snapshot.

use balg_core::eval::{Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use std::hint::black_box;

use crate::paper::Group;
use crate::workload_bag;

/// The micro wall-clock groups (memoized vs scan-forced subbag sweep).
pub fn micro_groups() -> Vec<Group> {
    // workload_bag(8, 3): Π(mᵢ+1) = 4⁸ = 65 536 distinct subbags; the
    // probe sits mid-lattice so admits/rejects both occur.
    let base = workload_bag(8, 3);
    let powerset = base.powerset(1 << 20).expect("4^8 fits the budget");
    assert_eq!(powerset.distinct_count(), 65_536);
    let probe = workload_bag(8, 2);
    let db = Database::new().with("P", powerset).with("C", probe);
    let q = Expr::var("P").select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
    let (db_scan, q_scan) = (db.clone(), q.clone());
    vec![
        Group {
            name: "micro_subbag_over_powerset",
            run: Box::new(move || {
                let mut ev = Evaluator::new(&db, Limits::default());
                black_box(ev.eval_bag(&q).expect("in budget"));
            }),
        },
        Group {
            name: "micro_subbag_over_powerset_scan",
            run: Box::new(move || {
                let mut ev = Evaluator::new(&db_scan, Limits::default());
                ev.set_indexing(false);
                black_box(ev.eval_bag(&q_scan).expect("in budget"));
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_groups_run_and_group_count_is_stable() {
        let mut groups = micro_groups();
        assert_eq!(groups.len(), 2);
        for group in &mut groups {
            (group.run)();
        }
    }
}
