//! The repository's benchmark: four closed-loop, single-client workloads
//! over the four surfaces people use, each checked against an oracle.
//! See `README.md` beside this crate for what is measured and why.
//!
//! ```text
//! balg-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! balg-benchmark --workload all ...     every workload, one child process each
//! balg-benchmark --print-manifest       the text of BENCHMARK.json
//! ```
//!
//! The last line on standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the host fingerprint and whatever else is on record but not a
//! declared metric. The exit code is 0 only when no op failed.

mod counters;
mod gen;
mod harness;
mod host;
mod manifest;
mod query_large;
mod query_small;
mod rng;
mod serve_mixed;
mod span;
mod staged;
mod stats;
mod update_stream;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Config, Layers, Measured};
use manifest::Class;
use stats::{ns_to_ms, percentile};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "balg-benchmark: {problem}\nusage: --workload query_small|query_large|update_stream|serve_mixed|all \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke] | --print-manifest"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name"),
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--print-manifest" => {
                print!("{}", manifest::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage("--seconds must be in (0, 60]");
    }
    if args.smoke {
        args.seconds = args.seconds.min(0.5);
    }
    args
}

/// `benchmark/out` under the current directory: `run.sh` starts the
/// binary from the root of the checkout it was built in.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    dir
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Run every workload in a child process of its own and print their
/// result lines as one JSON document keyed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut all_ok = true;
    let mut parts = Vec::new();
    for (name, _) in manifest::WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let output = child.output().expect("spawning a workload child");
        all_ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let result = lines.next().unwrap_or("null");
        let detail = lines.next().unwrap_or("null");
        parts.push(format!(
            "\"{name}\": {{\"result\": {result}, \"detail\": {detail}}}"
        ));
    }
    println!("{{{}}}", parts.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run is correct when it attempted something and nothing failed; the
/// exit code is 0 only then.
fn verdict(attempted: u64, failed: u64) -> bool {
    attempted > 0 && failed == 0
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.workload == "all" {
        return run_all(&args);
    }
    type Run = fn(&Config) -> Measured;
    type Trace = fn(&Config, &mut Layers) -> Measured;
    let (run, trace, gated): (Run, Trace, Class) = match args.workload.as_str() {
        query_small::NAME => (query_small::run, query_small::trace, query_small::GATED),
        query_large::NAME => (query_large::run, query_large::trace, query_large::GATED),
        update_stream::NAME => (
            update_stream::run,
            update_stream::trace,
            update_stream::GATED,
        ),
        serve_mixed::NAME => (serve_mixed::run, serve_mixed::trace, serve_mixed::GATED),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other}")),
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out_dir: out_dir(),
    };

    // Settle, then bracket the workload with canary readings. A build
    // that has just ended is the usual reason to wait; 10 s bounds it, so
    // that a restless host cannot push a run past the driver's budget.
    let canary = host::Canary::new();
    let (before, settle_s) = canary.settle(if cfg.smoke { 1.0 } else { 10.0 });
    drop(canary);
    host::reset_peak_rss();

    let mut layers = Layers::new();
    let measured = if args.trace {
        trace(&cfg, &mut layers)
    } else {
        run(&cfg)
    };
    let after = host::Canary::new().read();

    let gated_sorted = measured.samples.sorted_class(gated as u8);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layers.insert(
            "gated.p99_ms".into(),
            ns_to_ms(percentile(&gated_sorted, 0.99)),
        );
        layers.insert(
            "gated.max_ms".into(),
            ns_to_ms(percentile(&gated_sorted, 1.0)),
        );
        layers.insert("gated.samples".into(), gated_sorted.len() as f64);
        layers.insert(
            "host.pingpong_us".into(),
            (before.pingpong_us + after.pingpong_us) / 2.0,
        );
        layers.insert(
            "host.chase_ns".into(),
            (before.chase_ns + after.chase_ns) / 2.0,
        );
        layers.insert("host.settle_s".into(), settle_s);
        let declared = manifest::per_layer();
        if let Some(stray) = layers
            .keys()
            .find(|name| !declared.iter().any(|(d, _, _)| d == *name))
        {
            panic!("layer metric {stray} is not declared in the manifest");
        }
        declared
            .into_iter()
            .map(|(name, unit, _)| {
                let value = layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => measured.setup_s,
            "ops_per_s" => measured.samples.ops_per_s(measured.segment_ops),
            "p50_ms" => ns_to_ms(
                measured
                    .samples
                    .best_segment_p50(gated as u8, measured.segment_ops),
            ),
            "peak_rss_mb" => measured.peak_rss_mb,
            other => unreachable!("undeclared end-to-end metric {other}"),
        };
        manifest::END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| (name.to_owned(), value(name), unit))
            .collect()
    };

    let attempted = measured.samples.attempted() + measured.other_attempted;
    let failed = measured.samples.failed + measured.other_failed;
    let correct = verdict(attempted, failed);
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"gated_class\":\"{}\",\"gated_samples\":{},\
         \"segment_ops\":{},\"segments\":{},\"host\":{},\"host_unstable\":{},\"canary_before\":[{},{}],\"canary_after\":[{},{}],\"settle_s\":{}}}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        args.trace,
        gated.name(),
        gated_sorted.len(),
        measured.segment_ops,
        measured.samples.segments(measured.segment_ops),
        host::fingerprint(&cfg.out_dir),
        host::unstable(before, after),
        json_number(before.pingpong_us),
        json_number(before.chase_ns),
        json_number(after.pingpong_us),
        json_number(after.chase_ns),
        json_number(settle_s),
    );
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rendered.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
