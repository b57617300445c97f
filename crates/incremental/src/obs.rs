//! Lazily-resolved handles into the process-global metrics registry.
//!
//! Every counter here mirrors a [`crate::view::ViewStats`] field (plus
//! the per-batch aggregates), so the Prometheus surface and `:stats`
//! agree by construction. The absent-registry answer is deliberately
//! **not** cached: a process that calls [`balg_obs::install_global`]
//! mid-life starts receiving samples at the next batch.

use std::sync::OnceLock;

use balg_obs::{Counter, Histogram};

/// Registered handles for the incremental engine's metrics.
pub(crate) struct IncrObs {
    /// `balg_update_batches_total`.
    pub(crate) batches: Counter,
    /// `balg_maintain_duration_ns` — one sample per (batch, affected view).
    pub(crate) maintain_duration: Histogram,
    /// `balg_linear_delta_ops_total`.
    pub(crate) linear_delta_ops: Counter,
    /// `balg_pointwise_delta_ops_total`.
    pub(crate) pointwise_delta_ops: Counter,
    /// `balg_fallback_recomputes_total`.
    pub(crate) fallback_recomputes: Counter,
    /// `balg_scalar_recomputes_total`.
    pub(crate) scalar_recomputes: Counter,
    /// `balg_full_reinits_total`.
    pub(crate) full_reinits: Counter,
    /// `balg_indexed_join_ops_total`.
    pub(crate) indexed_join_ops: Counter,
    /// `balg_scanned_join_ops_total`.
    pub(crate) scanned_join_ops: Counter,
}

/// Registered handles for the durability layer's metrics.
pub(crate) struct DurObs {
    /// `balg_wal_fsync_duration_ns`.
    pub(crate) fsync_duration: Histogram,
    /// `balg_wal_bytes_total`.
    pub(crate) wal_bytes: Counter,
    /// `balg_checkpoint_duration_ns`.
    pub(crate) checkpoint_duration: Histogram,
    /// `balg_checkpoints_total`.
    pub(crate) checkpoints: Counter,
    /// `balg_replayed_batches_total`.
    pub(crate) replayed_batches: Counter,
}

static INCR_OBS: OnceLock<IncrObs> = OnceLock::new();
static DUR_OBS: OnceLock<DurObs> = OnceLock::new();

/// The durability layer's metric handles, or `None` while no
/// process-global registry is installed.
pub(crate) fn dur_obs() -> Option<&'static DurObs> {
    if let Some(obs) = DUR_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = DUR_OBS.set(DurObs {
        fsync_duration: registry.histogram(
            "balg_wal_fsync_duration_ns",
            "WAL fsync latency, nanoseconds",
        ),
        wal_bytes: registry.counter(
            "balg_wal_bytes_total",
            "Bytes appended to the write-ahead log",
        ),
        checkpoint_duration: registry.histogram(
            "balg_checkpoint_duration_ns",
            "Checkpoint (snapshot + WAL truncate) duration, nanoseconds",
        ),
        checkpoints: registry.counter("balg_checkpoints_total", "Checkpoints completed"),
        replayed_batches: registry.counter(
            "balg_replayed_batches_total",
            "Update batches replayed from the WAL at open",
        ),
    });
    DUR_OBS.get()
}

/// The engine's metric handles, or `None` while no process-global
/// registry is installed.
pub(crate) fn incr_obs() -> Option<&'static IncrObs> {
    if let Some(obs) = INCR_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = INCR_OBS.set(IncrObs {
        batches: registry.counter(
            "balg_update_batches_total",
            "Update batches applied by the view runtime",
        ),
        maintain_duration: registry.histogram(
            "balg_maintain_duration_ns",
            "Per-view maintenance latency per update batch, nanoseconds",
        ),
        linear_delta_ops: registry.counter(
            "balg_linear_delta_ops_total",
            "Linear derivative-rule applications",
        ),
        pointwise_delta_ops: registry.counter(
            "balg_pointwise_delta_ops_total",
            "Pointwise delta-rule applications (ε, monus, max- and min-union)",
        ),
        fallback_recomputes: registry.counter(
            "balg_fallback_recomputes_total",
            "Non-linear operator re-derivations over memoized snapshots",
        ),
        scalar_recomputes: registry.counter(
            "balg_scalar_recomputes_total",
            "Scalar construct re-derivations",
        ),
        full_reinits: registry.counter(
            "balg_full_reinits_total",
            "Full view re-derivations (degraded path or rebase)",
        ),
        indexed_join_ops: registry.counter(
            "balg_indexed_join_ops_total",
            "Fused equi-join deltas propagated via per-key index probes",
        ),
        scanned_join_ops: registry.counter(
            "balg_scanned_join_ops_total",
            "Fused equi-join deltas propagated by scanning the unchanged operand",
        ),
    });
    INCR_OBS.get()
}
