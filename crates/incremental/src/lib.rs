//! # balg-incremental — incremental view maintenance over BALG
//!
//! Answers a standing BALG query after a small database update in time
//! proportional to the **delta**, not the database — the classic
//! IVM/Z-set construction (cf. differential-dataflow-style engines),
//! grounded directly in the paper's Section 3 operator set. The paper's
//! own observation makes this algebraic: bags carry multiplicities, and
//! extending the multiplicity monoid ℕ to the group ℤ turns every
//! insert/delete batch into a first-class *delta bag*, the same
//! [`balg_core::bag::Bag`] type over [`balg_core::zbag::ZInt`]
//! multiplicities ([`balg_core::zbag`]), that flows through the operators.
//!
//! ## The linear / non-linear operator split
//!
//! For the **linear** operators the maintained identity
//! `F(B ⊕ δ) = F(B) ⊕ F(δ)` (bilinear for `×`) updates a view purely from
//! deltas:
//!
//! | operator | derivative rule |
//! |----------|-----------------|
//! | `∪⁺` | `δ(A ∪⁺ B) = δA ⊕ δB` |
//! | `MAP_φ` / `σ_φ` / `π` / `δ` (destroy) | `F(δ) = F(δ⁺) ⊖ F(δ⁻)`: the operator runs on the delta's positive and negative parts (valid while `φ` reads no updated bag) |
//! | `×` | `δ(A×B) = δA×B ⊕ A×δB ⊕ δA×δB` |
//! | `ε`, monus `∸`, `∪` (max), `∩` (min) | pointwise: `δout(x) = f(new(x)) − f(new(x) − δ(x))` at each key `x` of the inputs' deltas |
//! | scalar constructs (`τ`, `β`, `αᵢ`) | cheap re-derivation of the single value |
//!
//! The pointwise operators compute `out(x) = f(m₁(x), m₂(x))`, with `f`
//! one of `[m > 0]`, monus, `max` and `min`, so their output can move only
//! on the support of their inputs' deltas (DBSP's incremental `distinct`,
//! extended to the merges as in the counting algorithm).
//! [`balg_core::bag::Bag::pointwise`] reads the new multiplicities off
//! the inputs' maintained values by binary search: `O(|δ| log n)`, counted
//! under [`ViewStats::pointwise_delta_ops`]. Unlike every other rule it
//! applies `f` itself instead of running the operator on the evaluator,
//! so it charges no evaluation steps. Whatever rule computed a delta,
//! every materialized node keeps the budgets a re-derivation enforced:
//! its patched value's distinct count against `max_bag_elements`, and
//! the width of every multiplicity the delta raised against
//! `max_multiplicity_bits`.
//!
//! The **non-linear** operators — `nest`, powerset/powerbag, `IFP`, and
//! `MAP`/`σ` whose λ body reads an updated bag (e.g. a `SubBag` predicate
//! against a changing base) — fall back to re-derivation of **only the
//! affected subtree**: every node memoizes its value, so the fallback
//! recomputes one operator over its children's (already
//! incrementally-maintained) snapshots and re-expresses the result as a
//! delta ([`balg_core::bag::Bag::diff`]) for its parents. Untouched subtrees are skipped entirely via free-name
//! analysis. Fallbacks are counted by an instrumentation counter
//! ([`ViewStats::fallback_recomputes`]) so tests can assert which path
//! ran.
//!
//! Except for the pointwise rule, a node never applies an operator
//! itself. It holds the operator as a *probe* over fresh input variables,
//! and the view's [`balg_core::eval::Evaluator`] runs it — over the
//! children's snapshots to re-derive, or over a delta's two parts for the
//! linear rule — so a maintained node computes what a one-shot evaluation
//! computes, under the same budgets.
//!
//! ## One stateful runtime
//!
//! [`ViewRuntime`] is the engine: bases, views, the delta rules.
//! [`Runtime`] is what the SQL layer, the CLI and the server hold — a
//! `ViewRuntime` plus an optional commit log. [`Runtime::memory`] has no
//! log; [`Runtime::open`] writes every mutation ahead to a data directory
//! (WAL + snapshots, see [`durable`]) and replays it on the next open.
//! Both run each mutation through the same validate → write-ahead →
//! commit seam, so durability is a construction-time choice, not a second
//! code path.
//!
//! ## Quick tour
//!
//! ```
//! use balg_core::prelude::*;
//! use balg_incremental::prelude::*;
//!
//! let mut runtime = ViewRuntime::new();
//! runtime.load_base("G", Bag::from_values([
//!     Value::tuple([Value::sym("a"), Value::sym("b")]),
//! ])).unwrap();
//! runtime.create_view("rev", Expr::var("G").project(&[2, 1])).unwrap();
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert("G", Value::tuple([Value::sym("b"), Value::sym("c")]));
//! runtime.apply(&batch).unwrap();
//!
//! let rev = runtime.view("rev").unwrap();
//! assert!(rev.contains(&Value::tuple([Value::sym("c"), Value::sym("b")])));
//! assert!(runtime.verify("rev").unwrap());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub(crate) mod obs;
pub mod runtime;
pub mod view;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::durable::{CheckpointPolicy, Durability, DurableError, Runtime, WalRecord};
    pub use crate::runtime::{
        render_stats, DroppedView, RuntimeStats, UpdateBatch, UpdateError, ViewRuntime,
    };
    pub use crate::view::{View, ViewStats};
}

pub use prelude::*;
