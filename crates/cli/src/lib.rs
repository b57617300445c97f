//! # balg-cli — an interactive shell for the bag algebra
//!
//! A line-oriented session over a named-bag database: evaluate BALG
//! expressions (the ASCII syntax of [`balg_core::parse`]), inspect
//! fragment membership, run the optimizer, and see evaluation metrics —
//! the quantities the paper's complexity theorems bound.
//!
//! The binary's `--incremental` flag switches to an
//! [`IncrementalSession`]: register standing views over the loaded bags,
//! stream `:insert`/`:delete` updates, and watch the views stay
//! consistent — maintained by the ℤ-bag delta engine of
//! `balg-incremental` rather than re-evaluated.
//!
//! ```
//! use balg_cli::{Response, Session};
//!
//! let mut session = Session::new();
//! session.process_line(":load G bag{ [a,b]*2, [b,c] }");
//! let Response::Text(out) = session.process_line("project(G, 2, 1)") else {
//!     panic!("expected text");
//! };
//! assert!(out.contains("[b, a]^2"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use balg_core::analyze::{analyze, render_report, Facts};
use balg_core::eval::{eval_with_metrics, Limits};
use balg_core::expr::Expr;
use balg_core::parse::parse_expr;
use balg_core::rewrite::optimize;
use balg_core::schema::{Database, Schema};
use balg_core::value::Value;

/// The outcome of one input line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Text to display (possibly empty).
    Text(String),
    /// The session should end.
    Quit,
}

/// An interactive session: a database of named bags plus budgets.
pub struct Session {
    db: Database,
    limits: Limits,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with default budgets.
    pub fn new() -> Session {
        Session {
            db: Database::new(),
            limits: Limits::default(),
        }
    }

    /// The current database (for embedding the session elsewhere).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The schema inferred from the stored bags.
    pub fn schema(&self) -> Schema {
        inferred_schema(&self.db)
    }

    /// Process one input line.
    pub fn process_line(&mut self, line: &str) -> Response {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Response::Text(String::new());
        }
        if let Some(rest) = line.strip_prefix(':') {
            return self.command(rest);
        }
        self.evaluate(line)
    }

    fn command(&mut self, rest: &str) -> Response {
        let (cmd, args) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "quit" | "q" | "exit" => Response::Quit,
            "help" | "h" => Response::Text(HELP.trim_end().to_owned()),
            "load" => {
                let Some((name, expr_text)) = args.split_once(char::is_whitespace) else {
                    return Response::Text(":load NAME expr — e.g. :load G bag{ [a,b]*2 }".into());
                };
                match self.eval_expr_text(expr_text.trim()) {
                    Ok((Value::Bag(bag), _)) => {
                        self.db.insert(name, bag);
                        Response::Text(format!("loaded {name}"))
                    }
                    Ok((other, _)) => Response::Text(format!("not a bag: {other}")),
                    Err(message) => Response::Text(message),
                }
            }
            "drop" => {
                let mut db = Database::new();
                for (name, bag) in self.db.iter() {
                    if &**name != args {
                        db.insert(name, bag.clone());
                    }
                }
                self.db = db;
                Response::Text(format!("dropped {args}"))
            }
            "show" => {
                if self.db.is_empty() {
                    return Response::Text("no bags loaded (:load NAME expr)".into());
                }
                let mut out = String::new();
                for (name, bag) in self.db.iter() {
                    let ty = Value::Bag(bag.clone())
                        .infer_type()
                        .map_or_else(|| "?".into(), |t| t.to_string());
                    out.push_str(&format!(
                        "{name} : {ty} — {} distinct, |{name}| = {}\n",
                        bag.distinct_count(),
                        bag.cardinality()
                    ));
                }
                Response::Text(out.trim_end().to_owned())
            }
            "check" => match parse_expr(args) {
                Err(e) => Response::Text(e.to_string()),
                Ok(expr) => match analyze(&expr, &self.schema()) {
                    Err(e) => Response::Text(format!("type error: {e}")),
                    Ok(analysis) => Response::Text(format!(
                        "type: {}\nBALG level: {} (power nesting {})\ncore BALG: {}{}",
                        analysis.ty,
                        analysis.balg_level(),
                        analysis.power_nesting,
                        analysis.is_core_balg(),
                        extension_notes(&analysis)
                    )),
                },
            },
            "optimize" => match parse_expr(args) {
                Err(e) => Response::Text(e.to_string()),
                Ok(expr) => {
                    let optimized = optimize(&expr, &self.schema());
                    Response::Text(format!("{optimized}"))
                }
            },
            "analyze" => analyze_command(args, &self.schema()),
            "profile" => profile_command(args, &self.db, self.limits.clone()),
            "metrics" => metrics_command(),
            other => Response::Text(format!("unknown command :{other} (:help)")),
        }
    }

    fn evaluate(&mut self, text: &str) -> Response {
        match self.eval_expr_text(text) {
            Ok((value, summary)) => Response::Text(format!("{value}\n{summary}")),
            Err(message) => Response::Text(message),
        }
    }

    fn eval_expr_text(&self, text: &str) -> Result<(Value, String), String> {
        let expr: Expr = parse_expr(text).map_err(|e| e.to_string())?;
        let (result, metrics) = eval_with_metrics(&expr, &self.db, self.limits.clone());
        let value = result.map_err(|e| format!("evaluation failed: {e}"))?;
        let summary = format!(
            "— {} steps, max {} distinct, max multiplicity {} ({} bits)",
            metrics.steps,
            metrics.max_distinct_elements,
            metrics.max_multiplicity,
            metrics.max_multiplicity_bits()
        );
        Ok((value, summary))
    }
}

/// The schema a session's expressions see: each bag's inferred type,
/// with no entry for a bag whose type cannot be inferred (mixed arities).
fn inferred_schema(db: &Database) -> Schema {
    let mut schema = Schema::new();
    for (name, bag) in db.iter() {
        if let Some(ty) = Value::Bag(bag.clone()).infer_type() {
            schema = schema.with(name, ty);
        }
    }
    schema
}

/// The `:analyze EXPR` command, shared by both session kinds: parse,
/// run the static analyzer against the given schema, and render the
/// fact report ([`balg_core::analyze::render_report`]).
fn analyze_command(args: &str, schema: &Schema) -> Response {
    match parse_expr(args) {
        Err(e) => Response::Text(e.to_string()),
        Ok(expr) => match analyze(&expr, schema) {
            Err(e) => Response::Text(format!("analysis error: {e}")),
            Ok(facts) => Response::Text(render_report(&expr, &facts)),
        },
    }
}

/// The `:profile EXPR` command, shared by both session kinds: parse,
/// evaluate under the span profiler, and render the per-operator report
/// ([`balg_core::profile::profile_report`]) — the same renderer the
/// server uses, so the report is byte-equal across surfaces.
fn profile_command(args: &str, db: &Database, limits: Limits) -> Response {
    match balg_core::profile::profile_report(args, db, limits) {
        Ok(report) => Response::Text(report),
        Err(message) => Response::Text(message),
    }
}

/// The `:metrics` command, shared by both session kinds: the
/// process-global registry in Prometheus exposition format.
fn metrics_command() -> Response {
    match balg_obs::global() {
        Some(registry) => Response::Text(registry.render_prometheus()),
        None => Response::Text("no metrics registry installed".into()),
    }
}

fn extension_notes(analysis: &Facts) -> String {
    let mut notes = Vec::new();
    if analysis.uses_powerbag {
        notes.push("powerbag");
    }
    if analysis.uses_ifp {
        notes.push("IFP");
    }
    if analysis.uses_nest {
        notes.push("nest");
    }
    if analysis.uses_order {
        notes.push("order predicates");
    }
    if notes.is_empty() {
        String::new()
    } else {
        format!(" (extensions: {})", notes.join(", "))
    }
}

const HELP: &str = "
commands:
  :load NAME expr     evaluate expr and store the bag as NAME
  :drop NAME          remove a bag
  :show               list bags with types and sizes
  :check expr         fragment analysis (BALG level, power nesting)
  :analyze expr       static facts: type, set-ness, cost class,
                      per-base linearity (the analyze.rs lattice)
  :profile expr       evaluate with per-operator timing: wall time, step
                      charge, cardinality, and fast-path tags per node
  :metrics            process metrics in Prometheus text format
  :optimize expr      print the rewritten expression
  :quit               leave
anything else is parsed as a BALG expression and evaluated, e.g.
  bag{ [a,b]*2, [b,c] }
  project(select(x, eq(attr(x,1), sym(a)), G), 2)
  count(G)    sum(...)    avg(...)    powerset(G)
";

/// An interactive session with **incrementally maintained views** — the
/// `--incremental` REPL mode of the binary. Base bags load as in
/// [`Session`]; `:view` registers a standing query on the ℤ-bag delta
/// engine, `:insert`/`:delete` stream updates through it, and plain
/// expressions may read both bases and view results.
pub struct IncrementalSession {
    backend: balg_incremental::Runtime,
}

impl Default for IncrementalSession {
    fn default() -> Self {
        IncrementalSession::new()
    }
}

impl IncrementalSession {
    /// A fresh in-memory incremental session with default budgets.
    pub fn new() -> IncrementalSession {
        IncrementalSession {
            backend: balg_incremental::Runtime::memory(balg_incremental::ViewRuntime::new()),
        }
    }

    /// A **durable** incremental session over `data_dir` (the binary's
    /// `--data-dir` flag): loads the latest snapshot, replays the WAL,
    /// and logs every later mutation before applying it.
    pub fn open(data_dir: impl AsRef<std::path::Path>) -> Result<IncrementalSession, String> {
        let backend = balg_incremental::Runtime::open(data_dir, Limits::default())
            .map_err(|e| e.to_string())?;
        Ok(IncrementalSession { backend })
    }

    /// The underlying view runtime.
    pub fn runtime(&self) -> &balg_incremental::ViewRuntime {
        self.backend.runtime()
    }

    /// The database plain expressions evaluate against: the base bags
    /// plus every view result under its view name.
    fn query_db(&self) -> Database {
        let runtime = self.backend.runtime();
        let mut db = runtime.database().clone();
        for (name, view) in runtime.views() {
            db.insert(name, view.result().clone());
        }
        db
    }

    /// The schema plain expressions see: inferred from the bases plus
    /// the view results (the same bags [`Self::query_db`] exposes).
    fn schema(&self) -> Schema {
        inferred_schema(&self.query_db())
    }

    fn eval_bag_text(&self, text: &str) -> Result<balg_core::bag::Bag, String> {
        let expr = parse_expr(text).map_err(|e| e.to_string())?;
        let db = self.query_db();
        let (result, _) = eval_with_metrics(&expr, &db, self.backend.runtime().limits().clone());
        match result.map_err(|e| format!("evaluation failed: {e}"))? {
            Value::Bag(bag) => Ok(bag),
            other => Err(format!("not a bag: {other}")),
        }
    }

    /// Process one input line.
    pub fn process_line(&mut self, line: &str) -> Response {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Response::Text(String::new());
        }
        if let Some(rest) = line.strip_prefix(':') {
            return self.command(rest);
        }
        match self.eval_bag_text(line) {
            Ok(bag) => Response::Text(bag.to_string()),
            Err(message) => Response::Text(message),
        }
    }

    fn command(&mut self, rest: &str) -> Response {
        let (cmd, args) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        let name_and_expr = |args: &str| -> Result<(String, String), String> {
            args.split_once(char::is_whitespace)
                .map(|(n, e)| (n.to_owned(), e.trim().to_owned()))
                .ok_or_else(|| "usage: :<cmd> NAME expr".to_owned())
        };
        match cmd {
            "quit" | "q" | "exit" => Response::Quit,
            "help" | "h" => Response::Text(INCREMENTAL_HELP.trim_end().to_owned()),
            // The runtime refuses a base over a live view and a view over a
            // live view or a base (its naming rule).
            "load" => match name_and_expr(args).and_then(|(name, text)| {
                let bag = self.eval_bag_text(&text)?;
                self.backend
                    .load_base(&name, bag)
                    .map_err(|e| e.to_string())?;
                Ok(format!("loaded {name}"))
            }) {
                Ok(message) | Err(message) => Response::Text(message),
            },
            "view" => match name_and_expr(args).and_then(|(name, text)| {
                let expr = parse_expr(&text).map_err(|e| e.to_string())?;
                self.backend
                    .create_view(&name, expr)
                    .map_err(|e| e.to_string())?;
                let result = self
                    .backend
                    .runtime()
                    .view(&name)
                    .expect("view registered above");
                Ok(format!("view {name} = {result}"))
            }) {
                Ok(message) | Err(message) => Response::Text(message),
            },
            "insert" | "delete" => {
                let delete = cmd == "delete";
                match name_and_expr(args)
                    .and_then(|(name, text)| self.apply_update(&name, &text, delete))
                {
                    Ok(message) | Err(message) => Response::Text(message),
                }
            }
            "show" => {
                let mut out = String::new();
                for (name, bag) in self.backend.runtime().database().iter() {
                    out.push_str(&format!(
                        "base {name}: {} distinct, |{name}| = {}\n",
                        bag.distinct_count(),
                        bag.cardinality()
                    ));
                }
                for (name, view) in self.backend.runtime().views() {
                    out.push_str(&format!(
                        "view {name} = {}: {} distinct\n",
                        view.expr(),
                        view.result().distinct_count()
                    ));
                }
                if out.is_empty() {
                    out.push_str("nothing loaded (:load NAME expr, :view NAME expr)");
                }
                Response::Text(out.trim_end().to_owned())
            }
            "stats" => Response::Text(self.backend.render_stats()),
            "check" => {
                let result = if args.is_empty() {
                    self.backend.runtime().verify_all()
                } else {
                    self.backend.runtime().verify(args)
                };
                match result {
                    Ok(true) => Response::Text("consistent".into()),
                    Ok(false) => Response::Text("INCONSISTENT".into()),
                    Err(e) => Response::Text(e.to_string()),
                }
            }
            "analyze" => analyze_command(args, &self.schema()),
            "profile" => profile_command(
                args,
                &self.query_db(),
                self.backend.runtime().limits().clone(),
            ),
            "metrics" => metrics_command(),
            "dropview" => match self.backend.drop_view(args) {
                Ok(true) => Response::Text(format!("dropped view {args}")),
                Ok(false) => Response::Text(format!("no view named {args}")),
                Err(e) => Response::Text(e.to_string()),
            },
            "checkpoint" => match self.backend.checkpoint() {
                Ok(Some(d)) => Response::Text(format!(
                    "checkpoint complete (snapshot lsn {})",
                    d.snapshot_lsn
                )),
                Ok(None) => {
                    Response::Text("this session is in-memory — restart with --data-dir DIR".into())
                }
                Err(e) => Response::Text(e.to_string()),
            },
            other => Response::Text(format!("unknown command :{other} (:help)")),
        }
    }

    fn apply_update(&mut self, name: &str, text: &str, delete: bool) -> Result<String, String> {
        let bag = self.eval_bag_text(text)?;
        let cardinality = bag.cardinality();
        let mut batch = balg_incremental::UpdateBatch::new();
        for (value, mult) in bag.iter() {
            batch.change(
                name,
                value.clone(),
                balg_core::zbag::ZInt::from_parts(delete, mult.clone()),
            );
        }
        self.backend
            .apply(&batch)
            .map_err(|e| format!("update rejected: {e}"))?;
        let sign = if delete { "-" } else { "+" };
        Ok(format!("{name} {sign}{cardinality}"))
    }
}

const INCREMENTAL_HELP: &str = "
incremental mode — standing views maintained by the ℤ-bag delta engine:
  :load NAME expr     evaluate expr and load the bag as base NAME
  :view NAME expr     register expr as a maintained view over the bases
  :insert NAME expr   add the elements of a bag expr to base NAME
  :delete NAME expr   remove the elements of a bag expr from base NAME
  :show               list bases and views
  :check [NAME]       compare a view (or all) against full re-evaluation
  :stats              delta-engine and join-index cache counters (plus
                      WAL position and replay counters when --data-dir
                      is set)
  :analyze expr       static facts: type, set-ness, cost class,
                      per-base linearity (what the delta engine sees)
  :profile expr       evaluate one-shot with per-operator timing (reads
                      bases plus view results, like a plain line)
  :metrics            process metrics in Prometheus text format
  :dropview NAME      unregister a view
  :checkpoint         snapshot a durable session and truncate its WAL
  :quit               leave
plain lines evaluate one-shot over the bases plus the view results, e.g.
  :load G bag{ [a,b]*2, [b,c] }
  :view REV project(G, 2, 1)
  :insert G bag{ [c,d] }
  REV
";

#[cfg(test)]
mod tests {
    use super::*;

    fn text(response: Response) -> String {
        match response {
            Response::Text(t) => t,
            Response::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn load_show_evaluate() {
        let mut session = Session::new();
        let out = text(session.process_line(":load G bag{ [a,b]*2, [b,c] }"));
        assert_eq!(out, "loaded G");
        let out = text(session.process_line(":show"));
        assert!(out.contains("G :"), "{out}");
        assert!(out.contains("|G| = 3"), "{out}");
        let out = text(session.process_line("project(G, 2, 1)"));
        assert!(out.contains("[b, a]^2"), "{out}");
        assert!(out.contains("steps"), "{out}");
    }

    #[test]
    fn check_reports_fragment() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b] }");
        let out = text(session.process_line(":check destroy(powerset(G))"));
        assert_eq!(
            out,
            "type: {{[U, U]}}\nBALG level: 2 (power nesting 1)\ncore BALG: true"
        );
        let out = text(session.process_line(":check ifp(T, T, G)"));
        assert_eq!(
            out,
            "type: {{[U, U]}}\nBALG level: 1 (power nesting 0)\n\
             core BALG: false (extensions: IFP)"
        );
        let out = text(
            session
                .process_line(":check powerbag(nest(select(x, lt(attr(x,1), attr(x,2)), G), 1))"),
        );
        assert_eq!(
            out,
            "type: {{{{[U, {{[U]}}]}}}}\nBALG level: 3 (power nesting 1)\n\
             core BALG: false (extensions: powerbag, nest, order predicates)"
        );
    }

    #[test]
    fn check_and_analyze_give_one_verdict() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b] }");
        // δ of a `?`-typed operand evaluates (to {{}}), so both accept it.
        let accepted = "map(x, destroy(x), bag{})";
        let out = text(session.process_line(&format!(":check {accepted}")));
        assert!(out.starts_with("type: {{{{?}}}}\nBALG level:"), "{out}");
        let out = text(session.process_line(&format!(":analyze {accepted}")));
        assert!(out.starts_with("type: {{{{?}}}}\nset:"), "{out}");
        // α₀ errors on every input, so both reject it whatever its operand.
        for rejected in ["map(x, attr(x,0), bag{})", "attr(G, 0)"] {
            let out = text(session.process_line(&format!(":check {rejected}")));
            assert_eq!(
                out,
                "type error: attribute α0 is invalid: attribute indices are 1-based"
            );
            let out = text(session.process_line(&format!(":analyze {rejected}")));
            assert_eq!(
                out,
                "analysis error: attribute α0 is invalid: attribute indices are 1-based"
            );
        }
    }

    #[test]
    fn a_hostile_nesting_depth_is_a_parse_error() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b] }");
        let deep = format!("{}G{}", "dedup(".repeat(20_000), ")".repeat(20_000));
        for line in [
            deep.clone(),
            format!(":analyze {deep}"),
            format!(":profile {deep}"),
        ] {
            let out = text(session.process_line(&line));
            assert!(
                out.contains("nested deeper than"),
                "{}",
                &out[..out.len().min(200)]
            );
        }
        assert!(text(session.process_line("dedup(G)")).contains("[a, b]"));
    }

    #[test]
    fn analyze_command_reports_facts() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b]*2, [b,c] }");
        let out = text(session.process_line(":analyze dedup(project(G, 1))"));
        assert!(out.contains("type: {{[U]}}"), "{out}");
        assert!(out.contains("duplicate-free (certified)"), "{out}");
        assert!(out.contains("cannot error"), "{out}");
        assert!(out.contains("polynomial"), "{out}");
        assert!(out.contains("G: non-linear"), "{out}");
        let out = text(session.process_line(":analyze powerset(G)"));
        assert!(out.contains("exponential"), "{out}");
        assert!(out.contains("TooLarge risk"), "{out}");
        // Analysis errors are messages, not panics.
        let out = text(session.process_line(":analyze attr(G, 0)"));
        assert!(out.contains("analysis error"), "{out}");
        assert!(out.contains("1-based"), "{out}");
        // The incremental session answers the same command over its
        // bases and views.
        let mut inc = IncrementalSession::new();
        inc.process_line(":load G bag{ [a,b]*2 }");
        inc.process_line(":view REV project(G, 2, 1)");
        let out = text(inc.process_line(":analyze unionp(G, REV)"));
        assert!(out.contains("G: linear"), "{out}");
        assert!(out.contains("REV: linear"), "{out}");
    }

    #[test]
    fn optimize_command() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b] }");
        let out = text(session.process_line(":optimize select(x, true, G)"));
        assert_eq!(out, "G");
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let mut session = Session::new();
        let out = text(session.process_line("frob(G)"));
        assert!(out.contains("parse error"), "{out}");
        let out = text(session.process_line("count(Missing)"));
        assert!(out.contains("unbound variable"), "{out}");
        let out = text(session.process_line(":nonsense"));
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn drop_and_quit() {
        let mut session = Session::new();
        session.process_line(":load G bag{ [a,b] }");
        text(session.process_line(":drop G"));
        let out = text(session.process_line(":show"));
        assert!(out.contains("no bags"), "{out}");
        assert_eq!(session.process_line(":quit"), Response::Quit);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut session = Session::new();
        assert_eq!(session.process_line(""), Response::Text(String::new()));
        assert_eq!(
            session.process_line("# note"),
            Response::Text(String::new())
        );
    }

    #[test]
    fn incremental_view_lifecycle() {
        let mut session = IncrementalSession::new();
        let out = text(session.process_line(":load G bag{ [a,b]*2, [b,c] }"));
        assert_eq!(out, "loaded G");
        let out = text(session.process_line(":view REV project(G, 2, 1)"));
        assert!(out.contains("view REV"), "{out}");
        assert!(out.contains("[b, a]^2"), "{out}");

        let out = text(session.process_line(":insert G bag{ [c,d] }"));
        assert_eq!(out, "G +1");
        let out = text(session.process_line("REV"));
        assert!(out.contains("[d, c]"), "{out}");
        let out = text(session.process_line(":delete G bag{ [b,c] }"));
        assert_eq!(out, "G -1");
        let out = text(session.process_line("REV"));
        assert!(!out.contains("[c, b]"), "{out}");

        let out = text(session.process_line(":check"));
        assert_eq!(out, "consistent");
        let out = text(session.process_line(":stats"));
        assert!(out.contains("linear delta ops"), "{out}");
        let out = text(session.process_line(":show"));
        assert!(out.contains("base G"), "{out}");
        assert!(out.contains("view REV"), "{out}");
    }

    #[test]
    fn incremental_errors_are_messages() {
        let mut session = IncrementalSession::new();
        let out = text(session.process_line(":view V project(Missing, 1)"));
        assert!(out.contains("unbound variable"), "{out}");
        session.process_line(":load G bag{ [a,b] }");
        let out = text(session.process_line(":delete G bag{ [z,z] }"));
        assert!(out.contains("update rejected"), "{out}");
        let out = text(session.process_line(":dropview nope"));
        assert!(out.contains("no view"), "{out}");
        assert_eq!(session.process_line(":quit"), Response::Quit);
    }

    #[test]
    fn dropped_views_are_reported_in_stats() {
        let mut session = IncrementalSession::new();
        session.process_line(":load G bag{ [a], [b] }");
        text(session.process_line(":view P powerset(G)"));
        // Grow G past the powerset element budget: maintenance and the
        // degraded re-derivation both fail, so the runtime drops P (the
        // predicted powerset size is rejected up front — nothing huge is
        // ever materialized).
        let elems: Vec<String> = (0..21).map(|i| format!("[x{i}]")).collect();
        let line = format!(":insert G bag{{ {} }}", elems.join(", "));
        let out = text(session.process_line(&line));
        assert!(out.contains("update rejected"), "{out}");
        let out = text(session.process_line(":stats"));
        assert!(out.contains("dropped view P"), "{out}");
        let out = text(session.process_line(":check"));
        assert!(out.contains("dropped"), "{out}");
    }

    #[test]
    fn incremental_names_cannot_shadow() {
        let mut session = IncrementalSession::new();
        session.process_line(":load G bag{ [a,b]*2 }");
        // A view may not take a base's name...
        let out = text(session.process_line(":view G dedup(G)"));
        assert!(out.contains("base bag"), "{out}");
        // ...and a base may not take a view's name.
        session.process_line(":view D dedup(G)");
        let out = text(session.process_line(":load D bag{ [x,y] }"));
        assert!(out.contains("is a view"), "{out}");
    }

    #[test]
    fn a_live_view_is_not_replaced() {
        let dir = std::env::temp_dir().join(format!("balg-cli-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = IncrementalSession::open(&dir).unwrap();
        for mut session in [IncrementalSession::new(), durable] {
            session.process_line(":load G bag{ [a,b] }");
            text(session.process_line(":view V project(G, 1)"));
            let lsn = session.backend.durability().map(|d| d.lsn);
            let out = text(session.process_line(":view V project(G, 2)"));
            assert_eq!(out, "V is a view (drop it first)");
            assert_eq!(text(session.process_line("V")), "{{[a]}}");
            assert_eq!(session.backend.durability().map(|d| d.lsn), lsn);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counting_pipeline() {
        let mut session = Session::new();
        session.process_line(":load R bag{ [x]*5, [y]*2 }");
        let out = text(session.process_line("count(R)"));
        assert!(out.contains("[a]^7"), "{out}");
        // |R| > 6? card comparison via minus:
        let out = text(session.process_line("minus(count(R), int(6))"));
        assert!(out.contains("[a]"), "{out}");
        let out = text(session.process_line("minus(count(R), int(7))"));
        assert!(out.starts_with("{{}}"), "{out}");
    }
}
