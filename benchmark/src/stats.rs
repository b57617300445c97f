//! Sample bookkeeping: per-op latencies by class, percentiles, the
//! best-segment estimators behind the gated metrics, and the reply
//! digest.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
/// Empty input reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered slice (upper median for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// The gated numbers are the best segment's value, a segment being a
/// fixed run of `per` consecutive ops that each workload sets to a whole
/// number of its schedule cycles — every segment holds the same ops in
/// the same order — and to no less than the longest period in the
/// program (`update_stream`: one checkpoint interval), so a stall the
/// program causes itself is in every segment and is not hidden. The
/// length is in ops and not a share of the run, so it does not move with
/// the host's speed or `--seconds`.
///
/// Why the best and not the median: on the reference host the time a
/// dependent load takes swings between 42 and 100 ns from one second to
/// the next (other tenants on the memory system) while an ALU loop holds
/// within 2 %. Interference only ever adds time, so the quietest segment
/// is the closest a run gets to the program's own cost; over six seeds
/// the best segment spread 1–9 % where the median of segments spread
/// 4–19 %.
///
/// Ops per second of the best segment of `per` ops, each segment's rate
/// being its op count over the sum of its timed latencies. One client in
/// a closed loop, so that sum is the time the program was busy; harness
/// work between ops (oracle checks) is left out. A trailing partial
/// segment is left out; fewer than `per` ops are one segment.
pub fn best_segment_rate(latencies_ns: &[u32], per: usize) -> f64 {
    let per = per.min(latencies_ns.len());
    if per == 0 {
        return 0.0;
    }
    latencies_ns
        .chunks_exact(per)
        .map(|chunk| {
            per as f64 * 1e9 / chunk.iter().map(|&ns| u64::from(ns)).sum::<u64>().max(1) as f64
        })
        .fold(0.0, f64::max)
}

/// FNV-1a over the reply bytes: what the harness keeps of a reply when
/// the reply itself is too large to hold until the oracle replays it.
pub fn digest(ok: bool, text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64 ^ u64::from(ok);
    for &byte in text.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What one executed op reports back to the phase driver.
pub struct Sample {
    pub class: u8,
    pub ns: u64,
    pub ok: bool,
}

/// The latencies of one phase, in execution order. Capacity is reserved
/// up front so the vectors never reallocate inside a timed region and
/// peak RSS does not depend on how many ops a run happened to fit.
pub struct Samples {
    class: Vec<u8>,
    /// Nanoseconds, saturating at 4.29 s: half the bytes of a `u64`, so
    /// the harness stays a small part of `peak_rss_mb`.
    ns: Vec<u32>,
    pub failed: u64,
}

impl Samples {
    pub fn with_capacity(ops: usize) -> Samples {
        Samples {
            class: Vec::with_capacity(ops),
            ns: Vec::with_capacity(ops),
            failed: 0,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ns.len() as u64 + self.failed
    }

    fn record(&mut self, sample: Sample) {
        if sample.ok {
            self.class.push(sample.class);
            self.ns.push(u32::try_from(sample.ns).unwrap_or(u32::MAX));
        } else {
            self.failed += 1;
        }
    }

    /// Run ops `*next .. *next + count`.
    pub fn run_count(
        &mut self,
        next: &mut usize,
        count: usize,
        op: &mut impl FnMut(usize) -> Sample,
    ) {
        for _ in 0..count {
            self.record(op(*next));
            *next += 1;
        }
    }

    /// Ascending latencies of one class.
    pub fn sorted_class(&self, class: u8) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .class
            .iter()
            .zip(&self.ns)
            .filter(|(c, _)| **c == class)
            .map(|(_, ns)| u64::from(*ns))
            .collect();
        out.sort_unstable();
        out
    }

    /// Correct ops per second: [`best_segment_rate`] over segments of
    /// `segment_ops`.
    pub fn ops_per_s(&self, segment_ops: usize) -> f64 {
        best_segment_rate(&self.ns, segment_ops)
    }

    /// How many whole segments of `segment_ops` the phase holds.
    pub fn segments(&self, segment_ops: usize) -> usize {
        self.ns.len() / segment_ops.clamp(1, self.ns.len().max(1))
    }

    /// Median latency of `class` in the segment where it is lowest, over
    /// the same segments. One class only, never a mixture.
    pub fn best_segment_p50(&self, class: u8, segment_ops: usize) -> u64 {
        let per = segment_ops.clamp(1, self.ns.len().max(1));
        self.class
            .chunks_exact(per)
            .zip(self.ns.chunks_exact(per))
            .filter_map(|(classes, latencies)| {
                let mut of_class: Vec<u64> = classes
                    .iter()
                    .zip(latencies)
                    .filter(|(c, _)| **c == class)
                    .map(|(_, ns)| u64::from(*ns))
                    .collect();
                of_class.sort_unstable();
                (!of_class.is_empty()).then(|| percentile(&of_class, 0.5))
            })
            .min()
            .unwrap_or(0)
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn best_segment_ignores_stalls_but_not_a_persistent_slowdown() {
        // Ten segments of 10 ops at 1 µs; three segments stall 1000×.
        let mut lat = vec![1_000u32; 105];
        let steady = best_segment_rate(&lat, 10);
        assert!((steady - 1e6).abs() < 1.0);
        for ns in lat[30..60].iter_mut() {
            *ns = 1_000_000;
        }
        assert!((best_segment_rate(&lat, 10) - steady).abs() < 1.0);
        // A slowdown in every segment does move it.
        assert!((best_segment_rate(&[2_000u32; 100], 10) - 5e5).abs() < 1.0);
        // So does a stall that recurs inside every segment.
        let periodic: Vec<u32> = (0..100)
            .map(|i| if i % 10 == 0 { 11_000 } else { 1_000 })
            .collect();
        assert!((best_segment_rate(&periodic, 10) - 5e5).abs() < 1.0);
        // Fewer ops than a segment are one segment; none are no rate.
        assert!((best_segment_rate(&[1_000, 3_000], 10) - 5e5).abs() < 1.0);
        assert_eq!(best_segment_rate(&[], 10), 0.0);
    }

    #[test]
    fn best_segment_p50_is_per_class_and_picks_the_quietest_segment() {
        let mut samples = Samples::with_capacity(0);
        // 20 segments of 10 ops and a partial one; class 1 is every other
        // op. Segment 7 is quiet (class 1 at 100 ns), the rest run class 1
        // at 300 ns, and the partial segment would read 10 ns.
        let mut op = |i: usize| Sample {
            class: (i % 2) as u8,
            ns: match (i % 2, i / 10) {
                (_, 20) => 10,
                (0, _) => 50,
                (_, 7) => 100,
                _ => 300,
            },
            ok: true,
        };
        samples.run_count(&mut 0, 10 * 20 + 4, &mut op);
        assert_eq!(samples.segments(10), 20);
        assert_eq!(samples.best_segment_p50(1, 10), 100);
        assert_eq!(samples.best_segment_p50(0, 10), 50);
        assert_eq!(
            samples.best_segment_p50(9, 10),
            0,
            "a class with no samples reads 0"
        );
    }

    #[test]
    fn digest_separates_flag_and_text() {
        assert_eq!(digest(true, "3 rows"), digest(true, "3 rows"));
        assert_ne!(digest(true, "3 rows"), digest(false, "3 rows"));
        assert_ne!(digest(true, "3 rows"), digest(true, "3 rowt"));
        assert_ne!(digest(true, ""), digest(false, ""));
    }

    #[test]
    fn samples_split_by_class_and_drop_failures_from_the_rate() {
        let mut samples = Samples::with_capacity(8);
        let mut next = 0;
        let mut op = |i: usize| Sample {
            class: (i % 2) as u8,
            ns: 10 + i as u64,
            ok: i != 3,
        };
        samples.run_count(&mut next, 6, &mut op);
        assert_eq!(next, 6);
        assert_eq!(samples.attempted(), 6);
        assert_eq!(samples.failed, 1);
        assert_eq!(samples.sorted_class(0), vec![10, 12, 14]);
        assert_eq!(samples.sorted_class(1), vec![11, 15]);
    }
}
