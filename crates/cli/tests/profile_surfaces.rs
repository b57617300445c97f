//! Byte-equality of the `:profile` and `:analyze` reports across every
//! surface that renders them: the plain CLI session, the incremental
//! session, the server's read path ([`execute_read`]), and the serial twin.
//!
//! All four call the one renderer in `balg_core` for each, so equality
//! holds by construction — provided the report itself is deterministic,
//! which `BALG_PROFILE_TICKS` guarantees by switching the profiler to a
//! counting clock. Single test in this binary: the env var is process
//! state.

use balg_cli::{IncrementalSession, Response, Session};
use balg_core::eval::Limits;
use balg_server::prelude::{execute_read, snapshot_of, SerialTwin};
use balg_sql::prelude::{database_from_rows, Catalog, SqlRuntime};

const EXPR: &str = "project(select(x, eq(attr(x,2), attr(x,3)), product(g, g)), 1, 4)";
const INSERT: &str = "INSERT INTO g VALUES ('a', 'b'), ('b', 'c')";
const LOAD: &str = ":load g bag{ [a,b], [b,c] }";
/// A table keyed on a numeric column, which stores `k` as the bag `int(k)`:
/// the only literals the BALG text has are bags, so this is where `α₁`
/// can equal one.
const INSERT_N: &str = "INSERT INTO n VALUES (1, 'a'), (2, 'b'), (2, 'c'), (3, 'd')";
const LOAD_N: &str = ":load n unionp(map(x, tuple(int(1), attr(x,1)), bag{ [a] }), \
    unionp(map(x, tuple(int(2), attr(x,1)), bag{ [b], [c] }), \
    map(x, tuple(int(3), attr(x,1)), bag{ [d] })))";

fn text(response: Response) -> String {
    match response {
        Response::Text(t) => t,
        Response::Quit => panic!("unexpected quit"),
    }
}

/// `g`'s transitive closure, joining the fixpoint variable with `other`.
fn closure(other: &str) -> String {
    format!(
        "ifp(T, dedup(project(select(x, eq(attr(x,2), attr(x,3)), product(T, {other})), 1, 4)), g)"
    )
}

#[test]
fn profile_report_is_byte_equal_across_surfaces() {
    std::env::set_var(balg_obs::profile::PROFILE_TICKS_ENV, "1000");
    let catalog = Catalog::new()
        .with_table("g", &[("src", false), ("dst", false)])
        .with_table("n", &[("k", true), ("v", false)]);
    let db = database_from_rows(&catalog, &[]).unwrap();

    // Surface 1 — the serial twin's statement surface.
    let mut twin = SerialTwin::new(catalog.clone(), db.clone(), Limits::default());
    assert!(twin.execute(INSERT).ok);
    assert!(twin.execute(INSERT_N).ok);
    // Surface 2 — execute_read over a freshly pinned snapshot of an
    // identically mutated runtime.
    let mut rt = SqlRuntime::with_limits(catalog, db, Limits::default());
    rt.execute(INSERT).unwrap();
    rt.execute(INSERT_N).unwrap();
    let snapshot = snapshot_of(&rt, 2);
    // Surface 3 — the plain CLI session over the same bags.
    let mut session = Session::new();
    assert_eq!(text(session.process_line(LOAD)), "loaded g");
    assert_eq!(text(session.process_line(LOAD_N)), "loaded n");
    // Surface 4 — the incremental session (bases plus views).
    let mut inc = IncrementalSession::new();
    assert_eq!(text(inc.process_line(LOAD)), "loaded g");
    assert_eq!(text(inc.process_line(LOAD_N)), "loaded n");

    // One command line on all four; the reply, byte-equal.
    let mut everywhere = |line: &str| {
        let twin_reply = twin.execute(line);
        assert!(twin_reply.ok, "{}", twin_reply.text);
        assert_eq!(twin_reply, execute_read(&snapshot, line));
        assert_eq!(twin_reply.text, text(session.process_line(line)));
        assert_eq!(twin_reply.text, text(inc.process_line(line)));
        twin_reply.text
    };

    // The report is a real profile: operator tree, fast-path tag, step
    // charges, deterministic tick times, and the result line.
    let cli = everywhere(&format!(":profile {EXPR}"));
    assert!(cli.contains("base g"), "{cli}");
    assert!(
        cli.contains("[indexed-join]") || cli.contains("[scan-join]"),
        "{cli}"
    );
    assert!(cli.contains("steps"), "{cli}");
    assert!(cli.contains("total: "), "{cli}");
    assert!(cli.contains("result: 1 distinct elements"), "{cli}");

    // What `:analyze` says a fixpoint's loop will bind is what `:profile`
    // saw it do: the closure along `g` is in delta form and runs
    // semi-naively; joined with itself it reads `T` twice and runs in full.
    for (other, delta_form) in [("g", true), ("T", false)] {
        let verdict = everywhere(&format!(":analyze {}", closure(other)));
        let profile = everywhere(&format!(":profile {}", closure(other)));
        let expected = if delta_form { "delta-form" } else { "full" };
        assert!(
            verdict.ends_with(&format!("\nifp T: {expected}")),
            "{verdict}"
        );
        // The frame carries the body's join tag too, then the loop's.
        assert!(profile.starts_with("IFP \u{3bb}T ["), "{profile}");
        let frame = profile.lines().next().unwrap_or_default();
        assert_eq!(frame.contains("semi-naive]"), delta_form, "{profile}");
        assert!(profile.contains("result: 3 distinct elements"), "{profile}");
    }

    // The key-run and grouping kernels tag the frame that ran them. A bag
    // the key runs decline (tuples beside atoms) fails on the per-row
    // path, and no frame is tagged.
    let mixed = "unionp(g, map(x, attr(x,1), g))";
    for (expr, tag) in [
        ("nest(g, 1)".to_owned(), Some("nest[1] [key-runs]")),
        (
            "dedup(project(g, 1))".to_owned(),
            Some("MAP \u{3bb}\u{3c0} [key-runs]"),
        ),
        ("nest(g, 2)".to_owned(), Some("nest[2] [key-hash]")),
        (
            "project(g, 2)".to_owned(),
            Some("MAP \u{3bb}\u{3c0} [key-hash]"),
        ),
        (format!("project({mixed}, 1)"), None),
        (format!("nest({mixed}, 1)"), None),
    ] {
        let profile = everywhere(&format!(":profile {expr}"));
        match tag {
            Some(tag) => assert!(profile.contains(tag), "{profile}"),
            None => {
                assert!(!profile.contains("[key-"), "{profile}");
                assert!(profile.contains("\nerror: expected a tuple"), "{profile}");
            }
        }
    }

    // A σ comparing `α₁` with a literal seeks the runs of the sorted slice
    // and is tagged after the in-place tag; one that reads `α₂` first scans
    // every row, in place only. Both return the two rows keyed 2.
    let k = "eq(attr(x,1), int(2))";
    for (pred, seek) in [
        (k.to_owned(), true),
        (format!("and({k}, lt(attr(x,2), int(1)))"), true),
        (format!("and(lt(attr(x,2), int(1)), {k})"), false),
    ] {
        let profile = everywhere(&format!(":profile select(x, {pred}, n)"));
        let frame = if seek {
            "\u{3c3} \u{3bb}x [in-place, seek]"
        } else {
            "\u{3c3} \u{3bb}x [in-place] "
        };
        assert!(profile.starts_with(frame), "{profile}");
        assert_eq!(profile.contains("seek]"), seek, "{profile}");
        assert!(profile.contains("result: 2 distinct elements"), "{profile}");
    }

    // Parse errors reply as errors on the statement surface and as plain
    // messages in the REPL — same text either way.
    let bad = twin.execute(":profile project(");
    assert!(!bad.ok);
    assert_eq!(bad.text, text(session.process_line(":profile project(")));
}
