//! The program's own counters, read through a `balg_obs::MetricsRegistry`
//! that only the traced process installs. Registration is
//! register-or-look-up, so asking for a name here yields the same cell the
//! engine records into, whichever side asks first.

use balg_obs::{Histogram, MetricsRegistry};

/// The engine counters the per-layer metrics are derived from.
const COUNTERS: [&str; 17] = [
    "balg_eval_steps_total",
    "balg_index_cache_builds_total",
    "balg_index_cache_hits_total",
    "balg_index_cache_misses_total",
    "balg_index_cache_evictions_total",
    "balg_par_partitions_total",
    "balg_par_serial_fallbacks_total",
    "balg_linear_delta_ops_total",
    "balg_fallback_recomputes_total",
    "balg_scalar_recomputes_total",
    "balg_full_reinits_total",
    "balg_indexed_join_ops_total",
    "balg_scanned_join_ops_total",
    "balg_wal_bytes_total",
    "balg_checkpoints_total",
    "balg_replayed_batches_total",
    "balg_server_busy_rejections_total",
];

/// Counter values at one instant, in [`COUNTERS`] order.
#[derive(Clone)]
pub struct Snapshot([u64; COUNTERS.len()]);

impl Snapshot {
    /// How far `name` advanced since `earlier`.
    pub fn since(&self, earlier: &Snapshot, name: &str) -> f64 {
        let index = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("{name} is not a tracked counter"));
        (self.0[index] - earlier.0[index]) as f64
    }
}

pub struct Registry(MetricsRegistry);

impl Registry {
    /// Install the process-global registry. From here on the engine's
    /// hooks record; before this call they are inert.
    pub fn install() -> Registry {
        let registry = MetricsRegistry::new();
        assert!(
            balg_obs::install_global(registry.clone()),
            "a metrics registry was already installed"
        );
        Registry(registry)
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot(COUNTERS.map(|name| self.0.counter(name, "").get()))
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.0.histogram(name, "")
    }
}
