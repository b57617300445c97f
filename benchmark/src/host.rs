//! What the host was doing while the program was measured: a fixed
//! pure-Rust reference (the canary), the settle gate built on it, the
//! host fingerprint, and the process's peak RSS.

use std::path::Path;
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::rng::Rng;

/// One canary reading.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// Microseconds per two-thread round trip (scheduler, wake-ups).
    pub pingpong_us: f64,
    /// Nanoseconds per dependent load over 8 MB (core clock, caches).
    pub chase_ns: f64,
}

/// The canary: ping-pongs between two threads and a pointer chase
/// over an 8 MB cycle. Neither touches the program under test, so a
/// change in either is a change in the host. Each reading is the best of
/// three passes: on the reference host one chase pass swings 42–74 ns
/// from second to second, the best of three holds within a few percent.
pub struct Canary {
    next: Vec<u32>,
}

const CHASE_SLOTS: usize = 2 << 20; // × 4 B = 8 MB
/// Per pass, so 10 k a reading: enough to time, few enough not to eat
/// into the host's wake-up budget (see [`Canary::settle`]).
const PINGPONGS: u32 = 3_334;
const PASSES: usize = 3;

impl Canary {
    pub fn new() -> Canary {
        // Sattolo's algorithm: one cycle through every slot, so the chase
        // cannot settle into a short cached loop. The layout is fixed (not
        // from --seed): the reference must be the same on every run.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = Rng::new(0xCA9A, 0);
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        Canary { next }
    }

    fn chase_ns(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_SLOTS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        start.elapsed().as_nanos() as f64 / CHASE_SLOTS as f64
    }

    fn pingpong_us() -> f64 {
        let (to_peer, peer_in) = mpsc::sync_channel::<u32>(1);
        let (to_main, main_in) = mpsc::sync_channel::<u32>(1);
        let peer = std::thread::spawn(move || {
            while let Ok(v) = peer_in.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let start = Instant::now();
        for i in 0..PINGPONGS {
            to_peer.send(i).expect("canary peer alive");
            main_in.recv().expect("canary peer alive");
        }
        let elapsed = start.elapsed();
        drop(to_peer);
        peer.join().expect("canary peer panicked");
        elapsed.as_secs_f64() * 1e6 / f64::from(PINGPONGS)
    }

    pub fn read(&self) -> Reading {
        let best =
            |pass: &dyn Fn() -> f64| (0..PASSES).map(|_| pass()).fold(f64::INFINITY, f64::min);
        Reading {
            pingpong_us: best(&Canary::pingpong_us),
            chase_ns: best(&|| self.chase_ns()),
        }
    }

    /// Flush dirty pages (`sync`), then read the canary until two
    /// consecutive chase readings agree within 3 % and the host is not
    /// in its slow wake-up state, for at most `cap_s` seconds. Returns the
    /// last reading and the seconds spent.
    ///
    /// The slow state: the reference host hands two threads about 30 k
    /// fast wake-ups a second (3.7 µs a round trip) with some burst on
    /// top; a process that asks for more gets 40 µs round trips until it
    /// has idled for a few seconds. A build does that, and so do
    /// back-to-back runs of anything chatty. Sleeping gives the budget
    /// back; spinning on the canary would spend it.
    pub fn settle(&self, cap_s: f64) -> (Reading, f64) {
        let start = Instant::now();
        let _ = Command::new("sync").status();
        let mut last = self.read();
        loop {
            let slow = last.pingpong_us > SLOW_PINGPONG_US;
            if slow {
                std::thread::sleep(Duration::from_secs(1));
            }
            let reading = self.read();
            let agree = relative_gap(reading.chase_ns, last.chase_ns) <= 0.03;
            last = reading;
            if (agree && !slow) || start.elapsed().as_secs_f64() >= cap_s {
                return (last, start.elapsed().as_secs_f64());
            }
        }
    }
}

/// A two-thread round trip slower than this means wake-ups are being
/// throttled: five times the fast state's reading on the reference host,
/// half the slow state's.
const SLOW_PINGPONG_US: f64 = 20.0;

/// `|a − b|` as a share of the smaller.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b).max(f64::MIN_POSITIVE)
}

/// A run is `host_unstable` when the canary before and after it differ
/// by more than a tenth on either reading.
pub fn unstable(before: Reading, after: Reading) -> bool {
    relative_gap(before.chase_ns, after.chase_ns) > 0.10
        || relative_gap(before.pingpong_us, after.pingpong_us) > 0.10
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount that holds `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// `"key":"value"` pairs describing the host, as a JSON object. The
/// commit reads `unknown` in a checkout that is not a git repository.
pub fn fingerprint(out_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"commit\":\"{}\",\"rustc\":\"{}\",\"pinned_partitions\":1,\"out_fs\":\"{}\"}}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        filesystem_of(out_dir),
    )
}

/// Restart `VmHWM` from the current RSS (writing `5` to
/// `/proc/self/clear_refs`), so the canary's 8 MB is not what a small
/// workload's peak reads. Where the kernel refuses, the peak simply
/// includes the canary.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_and_instability_thresholds() {
        assert!((relative_gap(100.0, 103.0) - 0.03).abs() < 1e-12);
        let base = Reading {
            pingpong_us: 10.0,
            chase_ns: 5.0,
        };
        let near = Reading {
            pingpong_us: 10.9,
            chase_ns: 5.4,
        };
        let far = Reading {
            pingpong_us: 10.0,
            chase_ns: 5.6,
        };
        assert!(!unstable(base, near));
        assert!(unstable(base, far));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
