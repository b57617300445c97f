//! What the four workloads share: the run configuration, the timed
//! set-up, the measured phase, and the per-class / per-layer reductions.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::counters::{Registry, Snapshot};
use crate::host::peak_rss_mb;
use crate::manifest::Class;
use crate::span::{self_times_by_name, Tracer};
use crate::stats::{median, ns_to_ms, ns_to_us, percentile, Sample, Samples};

pub struct Config {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// 1/100 of every fixed op count and one set-up; same checks.
    pub smoke: bool,
    /// Where data directories and span files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Config {
    /// A fixed op count, scaled down in smoke mode.
    pub fn ops(&self, full: usize) -> usize {
        if self.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }

    /// A scratch path under `out/` that no concurrent run shares.
    pub fn scratch(&self, workload: &str, tag: &str) -> PathBuf {
        self.out_dir.join(format!(
            "{workload}-{}-{}-{tag}",
            self.seed,
            std::process::id()
        ))
    }
}

/// What a run hands back.
pub struct Measured {
    pub setup_s: f64,
    /// `VmHWM` after one set-up and the phase's minimum op count.
    pub peak_rss_mb: f64,
    pub samples: Samples,
    /// Ops per segment of `samples` (see [`Volumes::segment`]).
    pub segment_ops: usize,
    /// Ops that failed outside the measured phase (warm-up, oracle
    /// replay mismatches, end-of-run checks).
    pub other_failed: u64,
    pub other_attempted: u64,
}

/// Per-layer metric values by name; names absent here report 0.
pub type Layers = BTreeMap<String, f64>;

/// How long a workload's fixed parts are, in ops.
pub struct Volumes {
    /// Ops run inside each set-up before the measured phase.
    pub warmup: usize,
    /// Ops per segment of the measured phase: a whole number of schedule
    /// cycles, and no shorter than anything periodic in the program (see
    /// `stats::best_segment_rate`). The phase is whole segments.
    pub segment: usize,
    /// The measured phase runs at least this many segments.
    pub min_segments: usize,
    /// Room reserved for samples (more than any run fits).
    pub capacity: usize,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One set-up: `open`, then the warm-up over the first ops of the
/// schedule. Returns the session and the seconds the two took.
fn set_up<S>(
    warmup: usize,
    open: &mut impl FnMut() -> S,
    op: &mut impl FnMut(&mut S, usize) -> Sample,
    warm: &mut Samples,
) -> (S, f64) {
    let start = Instant::now();
    let mut session = open();
    warm.run_count(&mut 0, warmup, &mut |i| op(&mut session, i));
    (session, start.elapsed().as_secs_f64())
}

/// One set-up and the untraced phase after it.
pub struct Phase<S> {
    pub session: S,
    pub setup_s: f64,
    pub samples: Samples,
    /// The process's peak RSS in MB as it stood after exactly the
    /// minimum op count: the heap creeps up with every further op, and
    /// how many more a run fits depends on the host.
    pub peak_rss_mb: f64,
    /// The warm-up's samples.
    pub warm: Samples,
}

/// Set up, then run top-level calls from the end of the warm-up on, in
/// whole segments, until `seconds` have passed and for at least
/// `min_segments` (so every class keeps enough samples for its p95 even on
/// a host that is having a slow minute). No registry is installed, so the
/// obs layer is inert.
pub fn phase<S>(
    cfg: &Config,
    volumes: &Volumes,
    seconds: f64,
    open: &mut impl FnMut() -> S,
    op: &mut impl FnMut(&mut S, usize) -> Sample,
) -> Phase<S> {
    let warmup = cfg.ops(volumes.warmup);
    let mut warm = Samples::with_capacity(0);
    let (mut session, setup_s) = set_up(warmup, open, op, &mut warm);
    let mut samples = Samples::with_capacity(volumes.capacity);
    let mut next = warmup;
    let mut run = |i| op(&mut session, i);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let segment = cfg.ops(volumes.segment);
    samples.run_count(&mut next, volumes.min_segments * segment, &mut run);
    let peak_rss_mb = peak_rss_mb();
    while Instant::now() < deadline {
        samples.run_count(&mut next, segment, &mut run);
    }
    Phase {
        session,
        setup_s,
        samples,
        peak_rss_mb,
        warm,
    }
}

/// The untraced run every workload makes: one [`phase`] of `--seconds`,
/// then `finish` tears the session down and makes the oracle's end-of-run
/// checks — it is handed the session and the number of ops run on it, and
/// returns `(failed, attempted)` checks — then more set-ups.
///
/// `setup_s` is the median of [`SETUPS`] set-ups: one set-up of about a
/// second does not repeat within a tenth. The extra ones run *after* the
/// measured phase, so that `peak_rss_mb` is the peak of one set-up and
/// one phase, not of whatever several servers' worth of freed arenas add
/// up to.
pub fn end_to_end<S>(
    cfg: &Config,
    volumes: &Volumes,
    mut open: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, usize) -> Sample,
    finish: impl FnOnce(S, usize) -> (u64, u64),
) -> Measured {
    let Phase {
        session,
        setup_s,
        samples,
        peak_rss_mb,
        mut warm,
    } = phase(cfg, volumes, cfg.seconds, &mut open, &mut op);
    let warmup = cfg.ops(volumes.warmup);
    let (failed_checks, checks) = finish(session, warmup + samples.attempted() as usize);
    let mut setup_seconds = vec![setup_s];
    for _ in 1..if cfg.smoke { 1 } else { SETUPS } {
        setup_seconds.push(set_up(warmup, &mut open, &mut op, &mut warm).1);
    }
    Measured {
        setup_s: median(&setup_seconds),
        peak_rss_mb,
        samples,
        segment_ops: volumes.segment,
        other_failed: warm.failed + failed_checks,
        other_attempted: warm.attempted() + checks,
    }
}

/// Exactly `ops` ops from `first` on.
pub fn run_ops(first: usize, ops: usize, op: &mut impl FnMut(usize) -> Sample) -> Samples {
    let mut samples = Samples::with_capacity(ops);
    samples.run_count(&mut { first }, ops, op);
    samples
}

/// `class.<name>.p50_ms` / `.p95_ms` for each class that has samples.
pub fn class_layers(samples: &Samples, classes: &[Class], layers: &mut Layers) {
    for &class in classes {
        let sorted = samples.sorted_class(class as u8);
        layers.insert(
            format!("class.{}.p50_ms", class.name()),
            ns_to_ms(percentile(&sorted, 0.50)),
        );
        layers.insert(
            format!("class.{}.p95_ms", class.name()),
            ns_to_ms(percentile(&sorted, 0.95)),
        );
    }
}

/// Self time per span name summed over the window and divided by the
/// window's `ops`, in µs, under `<name>_us`. A mean over every op of the
/// workload — not a median over the ops that happen to reach the layer —
/// so the layers add up to the op and a layer's share of it can be read
/// off.
pub fn span_layers(tracer: &Tracer, ops: usize, layers: &mut Layers) {
    for (name, self_ns) in self_times_by_name(tracer.spans()) {
        if name != "op" {
            let total: u64 = self_ns.iter().sum();
            layers.insert(format!("{name}_us"), ns_to_us(total) / ops as f64);
        }
    }
}

/// The traced phase's bookkeeping: the registry goes in when the window
/// opens (so the untraced phase before it ran with the obs layer inert),
/// [`TraceWindow::run`] runs the staged ops between two counter readings,
/// and closing it turns spans and counter deltas into layer metrics and
/// writes the span file.
pub struct TraceWindow {
    pub tracer: Tracer,
    pub registry: Registry,
    ops: usize,
    /// The counters immediately before and after the staged ops.
    counted: Option<(Snapshot, Snapshot)>,
}

impl TraceWindow {
    /// Install the registry for a window of exactly `ops` staged ops,
    /// `spans_per_op` at most each.
    pub fn open(ops: usize, spans_per_op: usize) -> TraceWindow {
        TraceWindow {
            tracer: Tracer::with_capacity(ops * spans_per_op),
            registry: Registry::install(),
            ops,
            counted: None,
        }
    }

    /// Run the window's staged ops, `first` on. The counters are read
    /// right before the first and right after the last, so what set-up,
    /// warm-up, memory twins and in-process replays add to them — all of
    /// which run outside this call — is not in the deltas: those are
    /// exact for the window at a given seed.
    pub fn run(
        &mut self,
        first: usize,
        op: &mut impl FnMut(&mut Tracer, usize) -> Sample,
    ) -> Samples {
        let before = self.registry.snapshot();
        let samples = run_ops(first, self.ops, &mut |i| op(&mut self.tracer, i));
        self.counted = Some((before, self.registry.snapshot()));
        samples
    }

    /// How far `counter` advanced over [`TraceWindow::run`].
    pub fn counted(&self, counter: &str) -> f64 {
        let (before, after) = self.counted.as_ref().expect("the window has run");
        after.since(before, counter)
    }

    pub fn close(
        &self,
        cfg: &Config,
        workload: &str,
        segment_ops: usize,
        untraced: &Samples,
        traced: &Samples,
        layers: &mut Layers,
    ) {
        span_layers(&self.tracer, self.ops, layers);
        let delta = |counter: &str| self.counted(counter);
        let per_op = |counter: &str| delta(counter) / self.ops as f64;
        let mut put = |name: &str, value: f64| layers.insert(name.to_owned(), value);
        put("core.eval.steps_per_op", per_op("balg_eval_steps_total"));
        put("core.index.builds", delta("balg_index_cache_builds_total"));
        put("core.index.hits", delta("balg_index_cache_hits_total"));
        put("core.index.misses", delta("balg_index_cache_misses_total"));
        put(
            "core.index.evictions",
            delta("balg_index_cache_evictions_total"),
        );
        put(
            "incremental.view.linear_delta_ops",
            delta("balg_linear_delta_ops_total"),
        );
        put(
            "incremental.view.fallback_recomputes",
            delta("balg_fallback_recomputes_total"),
        );
        put(
            "incremental.view.scalar_recomputes",
            delta("balg_scalar_recomputes_total"),
        );
        put(
            "incremental.view.full_reinits",
            delta("balg_full_reinits_total"),
        );
        put(
            "incremental.view.indexed_join_ops",
            delta("balg_indexed_join_ops_total"),
        );
        put(
            "incremental.view.scanned_join_ops",
            delta("balg_scanned_join_ops_total"),
        );
        put(
            "server.writer.busy_rejections",
            delta("balg_server_busy_rejections_total"),
        );
        let plain = untraced.ops_per_s(segment_ops);
        put(
            "trace.overhead_pct",
            100.0 * (plain - traced.ops_per_s(segment_ops)) / plain.max(f64::MIN_POSITIVE),
        );
        let path = cfg
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", cfg.seed));
        self.tracer
            .write_jsonl(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}
