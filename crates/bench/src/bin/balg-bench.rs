//! Wall-clock benchmark runner emitting a JSON perf trajectory.
//!
//! Runs every E1–E18 group workload, the u1–u4 incremental update-stream workloads
//! (`*_delta` maintained vs `*_recompute` full re-evaluation), the r1
//! durability workloads (WAL group commit, cold-start replay,
//! checkpoint), the s1 server load workloads (1k+ simulated sessions
//! against a live `balg-server`, reporting p50/p90/p99 request latency,
//! a read/write latency split for the mixed workload, and throughput),
//! and the observability overhead pair (`obs_egroups_off`/`_on` — the
//! E-group suite timed before and after installing the global metrics
//! registry), then writes machine-readable JSON so successive PRs can
//! diff their perf against the committed `BENCH_baseline.json`.
//!
//! ```text
//! balg-bench [--out FILE] [--reps N] [--label NAME] [--append [FILE]]
//! ```
//!
//! With `--out` the JSON goes to the file (stdout keeps the human table);
//! otherwise JSON goes to stdout. `--reps` controls timed repetitions per
//! group (default 30, after 3 warm-up runs). `--label` tags the run.
//! `--append` merges the run as a named snapshot into the baseline file
//! (default `BENCH_baseline.json`) instead of requiring hand-edited JSON:
//! it sets `reps.<label>` and `median_ns.<group>.<label>_ns`, and for
//! every `*_delta` group with a `*_recompute` sibling also records
//! `<label>_speedup_vs_recompute`.

use std::io::Write as _;
use std::time::Instant;

use balg_bench::durability::durability_groups;
use balg_bench::incremental::update_groups;
use balg_bench::json::{self, Json};
use balg_bench::micro_wall::micro_groups;
use balg_bench::obs_overhead::overhead_metrics;
use balg_bench::paper::groups;
use balg_bench::server_load::load_metrics;

/// One result row: name, value, unit (`"ns"` medians, `"rps"`
/// throughput).
type Row = (String, u128, &'static str);

struct Args {
    out: Option<String>,
    reps: u32,
    label: String,
    append: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: None,
        reps: 30,
        label: "current".to_owned(),
        append: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => args.out = Some(it.next().unwrap_or_else(|| die("--out needs a path"))),
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| die("--reps needs a positive integer"));
            }
            "--label" => args.label = it.next().unwrap_or_else(|| die("--label needs a value")),
            "--append" => {
                // Optional file operand; defaults to the committed baseline.
                args.append = Some(match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => "BENCH_baseline.json".to_owned(),
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: balg-bench [--out FILE] [--reps N] [--label NAME] [--append [FILE]]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("balg-bench: {msg}");
    std::process::exit(2);
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

fn format_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Merge this run into the baseline file as a labelled snapshot.
fn append_snapshot(path: &str, label: &str, reps: u32, results: &[Row]) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read baseline {path}: {e}")));
    let mut doc =
        json::parse(&text).unwrap_or_else(|e| die(&format!("baseline {path} is not JSON: {e}")));
    if doc.get("reps").is_none() {
        doc.set("reps", Json::Obj(Vec::new()));
    }
    doc.get_mut("reps")
        .expect("just ensured")
        .set(label, Json::Num(reps as f64));
    if doc.get("median_ns").is_none() {
        doc.set("median_ns", Json::Obj(Vec::new()));
    }
    let medians = doc.get_mut("median_ns").expect("just ensured");
    for (name, value, unit) in results {
        if medians.get(name).is_none() {
            medians.set(name, Json::Obj(Vec::new()));
        }
        medians
            .get_mut(name)
            .expect("just ensured")
            .set(&format!("{label}_{unit}"), Json::Num(*value as f64));
    }
    // Delta-vs-recompute speedups for the update workloads.
    for (name, median, _) in results {
        let Some(base) = name.strip_suffix("_delta") else {
            continue;
        };
        let sibling = format!("{base}_recompute");
        let Some((_, recompute, _)) = results.iter().find(|(n, _, _)| *n == sibling) else {
            continue;
        };
        if *median > 0 {
            let speedup = (*recompute as f64 / *median as f64 * 100.0).round() / 100.0;
            medians
                .get_mut(name)
                .expect("written above")
                .set(&format!("{label}_speedup_vs_recompute"), Json::Num(speedup));
        }
    }
    std::fs::write(path, json::to_string(&doc))
        .unwrap_or_else(|e| die(&format!("cannot write baseline {path}: {e}")));
    eprintln!("appended snapshot {label} to {path}");
}

fn main() {
    let args = parse_args();
    let mut results: Vec<Row> = Vec::new();
    let mut all_groups = groups();
    all_groups.extend(micro_groups());
    all_groups.extend(update_groups());
    all_groups.extend(durability_groups());
    for group in &mut all_groups {
        for _ in 0..3 {
            (group.run)(); // warm-up
        }
        let mut samples = Vec::with_capacity(args.reps as usize);
        for _ in 0..args.reps {
            let start = Instant::now();
            (group.run)();
            samples.push(start.elapsed().as_nanos());
        }
        let median = median_ns(&mut samples);
        eprintln!("{:<28} median {:>12}", group.name, format_ns(median));
        results.push((group.name.to_owned(), median, "ns"));
    }

    // The server load workloads measure a distribution over thousands of
    // requests in one run — they report percentiles and throughput
    // directly instead of a median over reps.
    for (name, value, unit) in load_metrics() {
        let rendered = match unit {
            "rps" => format!("{value} req/s"),
            _ => format_ns(value),
        };
        eprintln!("{name:<28}        {rendered:>12}");
        results.push((name.to_owned(), value, unit));
    }

    // Last, so every timing above ran metrics-off (comparable with prior
    // snapshots): the overhead pair installs the process-global registry
    // for its on-phase.
    for (name, value, unit) in overhead_metrics(args.reps) {
        eprintln!("{:<28} median {:>12}", name, format_ns(value));
        results.push((name.to_owned(), value, unit));
    }

    let mut medians = Vec::new();
    for (name, value, unit) in &results {
        let key = match *unit {
            "ns" => name.clone(),
            unit => format!("{name}_{unit}"),
        };
        medians.push((key, Json::Num(*value as f64)));
    }
    let doc = Json::Obj(vec![
        ("label".to_owned(), Json::Str(args.label.clone())),
        ("reps".to_owned(), Json::Num(args.reps as f64)),
        ("median_ns".to_owned(), Json::Obj(medians)),
    ]);
    let rendered = json::to_string(&doc);

    match &args.out {
        Some(path) => {
            let mut file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
            file.write_all(rendered.as_bytes())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    if let Some(path) = &args.append {
        append_snapshot(path, &args.label, args.reps, &results);
    }
}
