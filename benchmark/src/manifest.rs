//! The benchmark's contract as data: workloads, op classes, and every
//! metric by name, unit and direction. `BENCHMARK.json` at the root of
//! the repository is `--print-manifest` of this table; a unit test keeps
//! the two equal.

/// How long one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 12;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "query_small",
        "SQL statements over a pinned 256-row snapshot, in-process: 30 us ops, a fifth front end (lex, parse, compile, decode, render), the rest evaluator set-up and a short scan; gated class point_select",
    ),
    (
        "query_large",
        "BALG kernels over 32768-row bags plus one unfused SQL join: evaluation is over 99% of each op, the front end is noise; gated class equi_join",
    ),
    (
        "update_stream",
        "durable single-statement commits with four maintained views: validate, WAL, fsync, delta maintenance, checkpoints, recovery; gated class insert_commit",
    ),
    (
        "serve_mixed",
        "one TCP client against an in-memory server, 1 write to 7 reads: frame codec, session loop, writer queue, snapshot publication, thread hand-offs; gated class seq, the bare round trip through the server",
    ),
];

/// `(name, unit, better, bound)`: what a user of the system sees. Every
/// workload reports every one. `p50_ms` is over the workload's one gated
/// class, never over a mixture. The bounds come from `AA.md`.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// Every op class of every workload. A class name used by two workloads
/// (`point_select` in-process and over the wire) is one metric name that
/// each of them reports for its own ops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Class {
    PointSelect,
    RangeSelect,
    AggSum,
    Distinct,
    ViewRows,
    ScanSelect,
    EquiJoin,
    Merge,
    DedupProject,
    Nest,
    IfpClosure,
    Powerset,
    SqlJoin,
    InsertCommit,
    DeleteCommit,
    BatchInsert,
    BatchDelete,
    Seq,
}

impl Class {
    pub const ALL: [Class; 18] = [
        Class::PointSelect,
        Class::RangeSelect,
        Class::AggSum,
        Class::Distinct,
        Class::ViewRows,
        Class::ScanSelect,
        Class::EquiJoin,
        Class::Merge,
        Class::DedupProject,
        Class::Nest,
        Class::IfpClosure,
        Class::Powerset,
        Class::SqlJoin,
        Class::InsertCommit,
        Class::DeleteCommit,
        Class::BatchInsert,
        Class::BatchDelete,
        Class::Seq,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::PointSelect => "point_select",
            Class::RangeSelect => "range_select",
            Class::AggSum => "agg_sum",
            Class::Distinct => "distinct",
            Class::ViewRows => "view_rows",
            Class::ScanSelect => "scan_select",
            Class::EquiJoin => "equi_join",
            Class::Merge => "merge",
            Class::DedupProject => "dedup_project",
            Class::Nest => "nest",
            Class::IfpClosure => "ifp_closure",
            Class::Powerset => "powerset",
            Class::SqlJoin => "sql_join",
            Class::InsertCommit => "insert_commit",
            Class::DeleteCommit => "delete_commit",
            Class::BatchInsert => "batch_insert",
            Class::BatchDelete => "batch_delete",
            Class::Seq => "seq",
        }
    }
}

/// The eight `query_large` classes, in the order of the
/// `core.par.default_vs_serial.*` metrics.
pub const LARGE_CLASSES: [Class; 8] = [
    Class::ScanSelect,
    Class::EquiJoin,
    Class::Merge,
    Class::DedupProject,
    Class::Nest,
    Class::IfpClosure,
    Class::Powerset,
    Class::SqlJoin,
];

/// `(name, unit, better)` of the single-layer metrics that are not per
/// class. `_us` times are a layer's self time summed over the traced
/// window and divided by the window's op count (a mean, so the layers add
/// up to the op); `count` metrics are exact over the window and repeat
/// bit-for-bit at one seed.
const LAYERS: [(&str, &str, &str); 61] = [
    ("gated.p99_ms", "ms", "lower"),
    ("gated.max_ms", "ms", "lower"),
    ("gated.samples", "count", "higher"),
    ("server.exec.route_us", "us", "lower"),
    ("sql.lexer.tokenize_us", "us", "lower"),
    ("sql.parser.parse_us", "us", "lower"),
    ("sql.compile.compile_us", "us", "lower"),
    ("sql.compile.decode_us", "us", "lower"),
    ("sql.stmt.render_us", "us", "lower"),
    ("core.eval.eval_us", "us", "lower"),
    ("core.eval.steps_per_op", "count", "lower"),
    ("core.parse.parse_expr_us", "us", "lower"),
    ("core.analyze.analyze_us", "us", "lower"),
    ("core.index.builds", "count", "lower"),
    ("core.index.hits", "count", "higher"),
    ("core.index.misses", "count", "lower"),
    ("core.index.evictions", "count", "lower"),
    ("core.par.partitions_per_op", "count", "higher"),
    ("core.par.serial_fallbacks", "count", "lower"),
    ("core.par.default_vs_serial.scan_select", "ratio", "lower"),
    ("core.par.default_vs_serial.equi_join", "ratio", "lower"),
    ("core.par.default_vs_serial.merge", "ratio", "lower"),
    ("core.par.default_vs_serial.dedup_project", "ratio", "lower"),
    ("core.par.default_vs_serial.nest", "ratio", "lower"),
    ("core.par.default_vs_serial.ifp_closure", "ratio", "lower"),
    ("core.par.default_vs_serial.powerset", "ratio", "lower"),
    ("core.par.default_vs_serial.sql_join", "ratio", "lower"),
    ("sql.parser.parse_insert_us", "us", "lower"),
    ("sql.catalog.encode_rows_us", "us", "lower"),
    ("incremental.runtime.validate_us", "us", "lower"),
    ("incremental.runtime.apply_us", "us", "lower"),
    ("incremental.view.linear_delta_ops", "count", "lower"),
    ("incremental.view.fallback_recomputes", "count", "lower"),
    ("incremental.view.scalar_recomputes", "count", "lower"),
    ("incremental.view.full_reinits", "count", "lower"),
    ("incremental.view.indexed_join_ops", "count", "higher"),
    ("incremental.view.scanned_join_ops", "count", "lower"),
    ("incremental.durable.encode_us", "us", "lower"),
    ("incremental.durable.commit_us", "us", "lower"),
    ("incremental.durable.sync_wal_us", "us", "lower"),
    ("incremental.durable.checkpoint_ms", "ms", "lower"),
    ("incremental.durable.checkpoints", "count", "lower"),
    ("incremental.durable.checkpoint_stall_max_ms", "ms", "lower"),
    ("incremental.durable.open_ms", "ms", "lower"),
    ("incremental.durable.replayed_batches", "count", "lower"),
    ("core.wal.fsyncs", "count", "lower"),
    ("core.wal.fsync_p50_us", "us", "lower"),
    ("core.wal.bytes_total", "B", "lower"),
    ("core.wal.bytes_per_op", "B", "lower"),
    ("core.wal.bytes_per_user_byte", "ratio", "lower"),
    ("server.exec.snapshot_of_us", "us", "lower"),
    ("server.frame.encode_us", "us", "lower"),
    ("server.frame.decode_us", "us", "lower"),
    ("server.frame.bytes_per_op", "B", "lower"),
    ("server.wire.wait_us", "us", "lower"),
    ("server.wire.overhead_us", "us", "lower"),
    ("server.writer.busy_rejections", "count", "lower"),
    ("host.pingpong_us", "us", "lower"),
    ("host.chase_ns", "ns", "lower"),
    ("host.settle_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`: two per class, then
/// [`LAYERS`].
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for class in Class::ALL {
        out.push((format!("class.{}.p50_ms", class.name()), "ms", "lower"));
        out.push((format!("class.{}.p95_ms", class.name()), "ms", "lower"));
    }
    out.extend(
        LAYERS
            .iter()
            .map(|&(name, unit, better)| (name.to_owned(), unit, better)),
    );
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let join = |items: Vec<String>| items.join(",\n    ");
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let end_to_end = join(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
            })
            .collect(),
    );
    let layers = join(
        per_layer()
            .iter()
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \
         \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {layers}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{}", layers.len());
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0.to_owned())
            .chain(END_TO_END.iter().map(|m| m.0.to_owned()))
            .chain(layers.iter().map(|m| m.0.clone()));
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with run.sh --print-manifest"
        );
    }
}
