//! The statement surface shared by the concurrent server and its serial
//! twin.
//!
//! Everything a session can say is executed by exactly two functions:
//! [`execute_read`] over an immutable [`Snapshot`], and [`execute_write`]
//! over the single mutable [`SqlRuntime`]. The TCP server and the
//! in-process [`SerialTwin`] both call these — so a concurrent run and a
//! serial replay of the same statements produce **byte-identical**
//! replies by construction, and the differential test suite is left to
//! validate what actually differs between them: snapshot publication,
//! ordering, and read-your-writes.
//!
//! Every snapshot published from one runtime shares one
//! [`StatementCache`], so a read compiled for one session is found by
//! every later read of the same text, in any session. Sharing
//! is sound because a compiled query is a function of its text and the
//! catalog alone: data, budgets and views enter only at evaluation,
//! which reads the snapshot's own `db` and `limits`.
//! The runtime replaces its cache whenever it replaces its catalog, so
//! a snapshot's cache only ever holds compiles against the catalog that
//! snapshot carries — a snapshot pinned before a `:table` keeps the old
//! catalog and the old cache, and answers exactly as it did. The cache
//! keeps only successful query compiles, so every error reply is built
//! afresh each time.

use std::collections::BTreeMap;
use std::sync::Arc;

use balg_core::bag::Bag;
use balg_core::eval::Limits;
use balg_core::schema::Database;
use balg_incremental::UpdateError;
use balg_sql::prelude::{
    decode_result, Catalog, Column, Prepared, QueryResult, Response, SqlError, SqlRuntime,
    StatementCache,
};

/// One reply to one statement: success flag plus the rendered text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reply {
    /// `false` means `text` is an error message.
    pub ok: bool,
    /// The rendered result or error.
    pub text: String,
}

impl Reply {
    /// A success reply.
    pub fn ok(text: impl Into<String>) -> Reply {
        Reply {
            ok: true,
            text: text.into(),
        }
    }

    /// An error reply.
    pub fn err(text: impl Into<String>) -> Reply {
        Reply {
            ok: false,
            text: text.into(),
        }
    }
}

/// Which side of the runtime a statement needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Answered from a pinned snapshot, lock-free, any session thread.
    Read,
    /// Serialized through the single writer.
    Write,
}

/// Classify a statement line. Total — never errors; malformed input is
/// routed as a read and rejected there, so both sides render the same
/// parse errors.
pub fn route(line: &str) -> Route {
    let line = line.trim_start();
    if let Some(rest) = line.strip_prefix(':') {
        let cmd = rest.split_whitespace().next().unwrap_or("");
        return match cmd {
            // Need the live runtime (view expressions, stats counters,
            // catalog mutation) — serialized behind the writer.
            "check" | "stats" | "table" => Route::Write,
            // :rows, :seq, :ping, and anything unknown.
            _ => Route::Read,
        };
    }
    let first = line.split_whitespace().next().unwrap_or("");
    let writes = ["CREATE", "INSERT", "DELETE", "CHECKPOINT"];
    if writes.iter().any(|kw| first.eq_ignore_ascii_case(kw)) {
        Route::Write
    } else {
        Route::Read
    }
}

/// An immutable, internally consistent picture of the database: what a
/// reader session pins (one `Arc` clone) and evaluates against without
/// any coordination with the writer. Bags are copy-on-write behind `Arc`,
/// so building one of these per write batch clones maps of pointers, not
/// data; the statement cache and the view output columns are shared, not
/// copied. The bags it shares are what the *next* write patches: instead
/// of copying each shared slice, the runtime patches the version the
/// snapshot before this one held, once nothing holds that version any
/// more ([`balg_core::zbag::ZBag::patch`]). So a write costs its delta as
/// long as old snapshots are released; a reader holding an old snapshot
/// across writes makes the next write of each bag copy it once.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Writer-serialized statement count at publication time (monotonic).
    pub seq: u64,
    /// The table catalog: what queries compile against and `:analyze`
    /// types against.
    pub catalog: Catalog,
    /// The compiled reads of `catalog`, shared by every snapshot the
    /// runtime publishes until its catalog changes (see the module doc).
    pub statements: Arc<StatementCache>,
    /// The base bags.
    pub db: Database,
    /// Maintained view results with their output shapes (shared with the
    /// runtime's, not copied).
    pub views: BTreeMap<String, (Bag, Arc<[Column]>)>,
    /// Views the runtime dropped, with the rendered failure cause.
    pub dropped: BTreeMap<String, String>,
    /// Evaluation budgets for one-shot queries.
    pub limits: Limits,
    /// Inert: always `None`, since every kernel is serial. Kept only
    /// because the frozen end-to-end benchmark (`benchmark/`) reads it;
    /// ROADMAP item 1(g) removes that read and then this field.
    pub parallel_chunks: Option<usize>,
}

/// Capture the runtime's current state as a [`Snapshot`] stamped `seq`.
pub fn snapshot_of(rt: &SqlRuntime, seq: u64) -> Snapshot {
    let runtime = rt.runtime();
    let mut views = BTreeMap::new();
    for (name, view) in runtime.views() {
        if let Some(columns) = rt.view_output(name) {
            views.insert(
                name.to_owned(),
                (view.result().clone(), Arc::clone(columns)),
            );
        }
    }
    let dropped = runtime
        .dropped()
        .map(|(name, record)| (name.to_owned(), record.cause.to_string()))
        .collect();
    Snapshot {
        seq,
        catalog: rt.catalog().clone(),
        statements: Arc::clone(rt.statements()),
        db: runtime.database().clone(),
        views,
        dropped,
        limits: runtime.limits().clone(),
        parallel_chunks: None,
    }
}

fn split_command(rest: &str) -> (&str, &str) {
    match rest.split_once(char::is_whitespace) {
        Some((cmd, args)) => (cmd, args.trim()),
        None => (rest, ""),
    }
}

/// Execute a read-routed statement against a pinned snapshot.
pub fn execute_read(snap: &Snapshot, line: &str) -> Reply {
    let line = line.trim();
    if let Some(rest) = line.strip_prefix(':') {
        let (cmd, args) = split_command(rest);
        return match cmd {
            "ping" => Reply::ok("pong"),
            "seq" => Reply::ok(snap.seq.to_string()),
            "rows" => match snapshot_view_rows(snap, args) {
                Ok(result) => Reply::ok(Response::Rows(result).to_string()),
                Err(message) => Reply::err(message),
            },
            // Pure function of the catalog — answered from the snapshot,
            // lock-free, so the concurrent server and the serial twin
            // render byte-identical reports by construction.
            "analyze" => match balg_core::parse::parse_expr(args) {
                Err(e) => Reply::err(e.to_string()),
                Ok(expr) => match balg_core::analyze::analyze(&expr, &snap.catalog.to_schema()) {
                    Err(e) => Reply::err(format!("analysis error: {e}")),
                    Ok(facts) => Reply::ok(balg_core::analyze::render_report(&expr, &facts)),
                },
            },
            // One renderer (`balg_core::profile`) shared with balg-cli
            // and the serial twin, evaluated over the pinned snapshot's
            // bases plus view results — byte-equal across surfaces by
            // construction (deterministic when BALG_PROFILE_TICKS is set).
            "profile" => match balg_core::parse::parse_expr(args) {
                Err(e) => Reply::err(e.to_string()),
                Ok(expr) => {
                    let mut db = snap.db.clone();
                    for (name, (bag, _)) in &snap.views {
                        db.insert(name, bag.clone());
                    }
                    Reply::ok(balg_core::profile::profile_expr(
                        &expr,
                        &db,
                        snap.limits.clone(),
                    ))
                }
            },
            "metrics" => metrics_reply(),
            other => Reply::err(format!("unknown command :{other}")),
        };
    }
    let compiled = match snap.statements.prepare(line, &snap.catalog) {
        Ok(Prepared::Query(compiled)) => compiled,
        // route() sends CREATE/INSERT/DELETE to the writer; reaching this
        // arm means a caller bypassed route().
        Ok(Prepared::Other(_)) => {
            return Reply::err("update statements must go through the writer")
        }
        Err(e) => return Reply::err(e.to_string()),
    };
    match compiled.evaluate(&snap.db, snap.limits.clone()) {
        Ok(rows) => Reply::ok(Response::Rows(rows).to_string()),
        Err(e) => Reply::err(e.to_string()),
    }
}

/// The decoded rows of a maintained view as of the snapshot. Dropped
/// views answer with their failure cause — exactly the error the live
/// runtime would give — never a bare "unknown view".
fn snapshot_view_rows(snap: &Snapshot, name: &str) -> Result<QueryResult, String> {
    match snap.views.get(name) {
        Some((bag, columns)) => decode_result(bag, Arc::clone(columns)).map_err(|e| e.to_string()),
        None => {
            let error = match snap.dropped.get(name) {
                Some(cause) => UpdateError::ViewDropped {
                    view: name.to_owned(),
                    cause: cause.clone(),
                },
                None => UpdateError::UnknownView(name.to_owned()),
            };
            Err(SqlError::Update(error).to_string())
        }
    }
}

/// Execute a write-routed statement against the live runtime (the single
/// writer's side).
pub fn execute_write(rt: &mut SqlRuntime, line: &str) -> Reply {
    let line = line.trim();
    if let Some(rest) = line.strip_prefix(':') {
        let (cmd, args) = split_command(rest);
        return match cmd {
            "check" => {
                let result = if args.is_empty() {
                    rt.runtime().verify_all()
                } else {
                    rt.runtime().verify(args)
                };
                match result {
                    Ok(true) => Reply::ok("consistent"),
                    Ok(false) => Reply::err("INCONSISTENT"),
                    Err(e) => Reply::err(e.to_string()),
                }
            }
            "stats" => Reply::ok(rt.backend_mut().render_stats()),
            "table" => declare_table(rt, args),
            other => Reply::err(format!("unknown command :{other}")),
        };
    }
    match rt.execute(line) {
        Ok(response) => Reply::ok(response.to_string()),
        Err(e) => Reply::err(e.to_string()),
    }
}

/// `:table NAME col[:int] ...` — declare a fresh empty table.
fn declare_table(rt: &mut SqlRuntime, args: &str) -> Reply {
    let mut parts = args.split_whitespace();
    let Some(name) = parts.next() else {
        return Reply::err("usage: :table NAME col[:int] ...");
    };
    let columns: Vec<(String, bool)> = parts
        .map(|spec| match spec.strip_suffix(":int") {
            Some(column) => (column.to_owned(), true),
            None => (spec.to_owned(), false),
        })
        .collect();
    if columns.is_empty() {
        return Reply::err("usage: :table NAME col[:int] ...");
    }
    let borrowed: Vec<(&str, bool)> = columns
        .iter()
        .map(|(column, numeric)| (column.as_str(), *numeric))
        .collect();
    match rt.declare_table(name, &borrowed) {
        Ok(()) => Reply::ok(format!("table {name} ({} columns)", columns.len())),
        Err(e) => Reply::err(e.to_string()),
    }
}

/// The `:metrics` text: the process-global registry rendered in
/// Prometheus exposition format. Shared by the server's dispatch and the
/// serial twin (both reach it through [`execute_read`]).
pub fn metrics_reply() -> Reply {
    match balg_obs::global() {
        Some(registry) => Reply::ok(registry.render_prometheus()),
        None => Reply::err("no metrics registry installed"),
    }
}

/// The serial oracle: the same statement surface executed in-process on
/// one thread, one statement at a time. Reads run [`execute_read`] over a
/// freshly captured snapshot; writes run [`execute_write`] and advance
/// the sequence counter exactly as the server's writer thread does. A
/// concurrent run that serializes to the same statement order must
/// produce byte-identical replies.
pub struct SerialTwin {
    rt: SqlRuntime,
    seq: u64,
}

impl SerialTwin {
    /// A twin over a catalog and an initial database.
    pub fn new(catalog: Catalog, db: Database, limits: Limits) -> SerialTwin {
        SerialTwin {
            rt: SqlRuntime::with_limits(catalog, db, limits),
            seq: 0,
        }
    }

    /// What a read issued now would pin.
    pub fn snapshot(&self) -> Snapshot {
        snapshot_of(&self.rt, self.seq)
    }

    /// Execute one statement the way the server would.
    pub fn execute(&mut self, line: &str) -> Reply {
        match route(line) {
            Route::Read => execute_read(&self.snapshot(), line),
            Route::Write => {
                let reply = execute_write(&mut self.rt, line);
                self.seq += 1;
                reply
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_sql::prelude::database_from_rows;

    fn catalog() -> Catalog {
        Catalog::new().with_table("orders", &[("customer", false), ("qty", true)])
    }

    fn twin() -> SerialTwin {
        let catalog = catalog();
        let db = database_from_rows(&catalog, &[]).unwrap();
        SerialTwin::new(catalog, db, Limits::default())
    }

    #[test]
    fn routing_is_by_statement_kind() {
        assert_eq!(route("SELECT * FROM orders"), Route::Read);
        assert_eq!(route("  select 1 from t"), Route::Read);
        assert_eq!(route("INSERT INTO orders VALUES ('a', 1)"), Route::Write);
        assert_eq!(route("delete from orders values ('a', 1)"), Route::Write);
        assert_eq!(route("CREATE VIEW v AS SELECT * FROM orders"), Route::Write);
        assert_eq!(route(":rows v"), Route::Read);
        assert_eq!(route(":seq"), Route::Read);
        assert_eq!(route(":ping"), Route::Read);
        assert_eq!(route(":analyze dedup(orders)"), Route::Read);
        assert_eq!(route(":check"), Route::Write);
        assert_eq!(route(":stats"), Route::Write);
        assert_eq!(route(":table t a b:int"), Route::Write);
        assert_eq!(route("garbage ..."), Route::Read);
    }

    #[test]
    fn twin_statement_surface() {
        let mut twin = twin();
        assert_eq!(twin.execute(":ping"), Reply::ok("pong"));
        assert_eq!(twin.execute(":seq"), Reply::ok("0"));
        let reply = twin.execute("INSERT INTO orders VALUES ('ann', 3), ('bob', 5)");
        assert_eq!(reply, Reply::ok("orders: +2 -0"));
        assert_eq!(twin.execute(":seq"), Reply::ok("1"));
        let reply = twin.execute("CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4");
        assert!(reply.ok, "{}", reply.text);
        let rows = twin.execute(":rows big");
        assert!(rows.ok);
        assert!(rows.text.contains("bob"), "{}", rows.text);
        let select = twin.execute("SELECT customer FROM orders WHERE qty >= 4");
        assert_eq!(rows.text, select.text);
        assert_eq!(twin.execute(":check"), Reply::ok("consistent"));
        let stats = twin.execute(":stats");
        assert!(stats.text.contains("batches"), "{}", stats.text);
    }

    #[test]
    fn analyze_over_the_statement_surface() {
        let mut twin = twin();
        let reply = twin.execute(":analyze dedup(project(orders, 1))");
        assert!(reply.ok, "{}", reply.text);
        assert!(reply.text.contains("type: {{[U]}}"), "{}", reply.text);
        assert!(reply.text.contains("duplicate-free"), "{}", reply.text);
        assert!(reply.text.contains("orders: non-linear"), "{}", reply.text);
        // The reply is byte-equal to what execute_read renders over a
        // fresh snapshot — the twin IS that path, so a second pinned
        // snapshot must agree exactly.
        let snap = snapshot_of(
            &SqlRuntime::with_limits(
                catalog(),
                database_from_rows(&catalog(), &[]).unwrap(),
                Limits::default(),
            ),
            0,
        );
        let direct = execute_read(&snap, ":analyze dedup(project(orders, 1))");
        assert_eq!(reply, direct);
        // Errors are replies, not panics, and carry the analyzer text.
        let bad = twin.execute(":analyze attr(orders, 0)");
        assert!(!bad.ok);
        assert!(bad.text.contains("1-based"), "{}", bad.text);
        let blow = twin.execute(":analyze powerset(orders)");
        assert!(blow.ok, "analysis of a blowup query still reports facts");
        assert!(blow.text.contains("TooLarge risk"), "{}", blow.text);
    }

    #[test]
    fn twin_declares_tables_and_reports_errors() {
        let mut twin = twin();
        let reply = twin.execute(":table vip customer level:int");
        assert_eq!(reply, Reply::ok("table vip (2 columns)"));
        assert!(twin.execute("INSERT INTO vip VALUES ('ann', 2)").ok);
        let dup = twin.execute(":table orders x");
        assert!(!dup.ok);
        assert!(dup.text.contains("already a table"), "{}", dup.text);
        let missing = twin.execute(":rows nope");
        assert_eq!(missing, Reply::err("unknown view nope"));
        let bad = twin.execute("SELECT nope FROM orders");
        assert!(!bad.ok);
        let unknown = twin.execute(":frob");
        assert!(!unknown.ok);
    }
}
