//! SQL statements over the incremental view runtime: `CREATE VIEW`,
//! `INSERT INTO … VALUES`, and `DELETE FROM … VALUES`.
//!
//! Views compile through the ordinary SQL→BALG pipeline and register on a
//! [`balg_incremental::ViewRuntime`], so every update statement is turned
//! into a ℤ-bag delta and maintained views answer in time proportional to
//! the change. `DELETE … VALUES (row), …` removes one occurrence per
//! listed row (bag semantics; deleting a row that isn't there is an
//! error, not a no-op) — the honest delta-form counterpart of
//! `INSERT … VALUES`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use balg_core::analyze;
use balg_core::bag::BagBuilder;
use balg_core::eval::Limits;
use balg_core::expr::Expr;
use balg_core::natural::Natural;
use balg_core::types::Type;
use balg_core::value::Value;
use balg_core::zbag::ZInt;
use balg_incremental::{DurableError, Runtime, UpdateBatch, UpdateError, ViewRuntime};

use crate::ast::Query;
use crate::cache::{Prepared, StatementCache};
use crate::catalog::{encode_value, Catalog, Cell, Column, SqlValue, Table};
use crate::compile::{compile_view, decode_result, QueryResult, SqlError};
use crate::lexer::{tokenize_with_positions, Keyword, Token};
use crate::parser::{parse_query_from, ParseError, Parser};

/// One SQL statement: a query, or a view/update statement executed
/// against a [`SqlRuntime`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Statement {
    /// A plain query (evaluated one-shot).
    Query(Query),
    /// `CREATE VIEW name AS query` — register a maintained view.
    CreateView {
        /// The view name.
        name: String,
        /// The defining query.
        query: Query,
    },
    /// `CREATE VIEW name AS BALG expr` — register a maintained view
    /// defined directly in the BALG ASCII syntax of
    /// [`balg_core::parse`]. Free variables must be declared tables; the
    /// static analyzer gates registration (shape errors and
    /// non-polynomial cost classes are rejected up front).
    CreateBalgView {
        /// The view name.
        name: String,
        /// The parsed defining expression.
        expr: Expr,
        /// Byte offset of the expression within the statement (analyzer
        /// diagnostics point here).
        at: usize,
    },
    /// `INSERT INTO table VALUES (…), …` — one occurrence per row.
    Insert {
        /// The target table.
        table: String,
        /// The literal rows.
        rows: Vec<Vec<SqlValue>>,
    },
    /// `DELETE FROM table VALUES (…), …` — remove one occurrence per row.
    Delete {
        /// The target table.
        table: String,
        /// The literal rows.
        rows: Vec<Vec<SqlValue>>,
    },
    /// `CHECKPOINT` — snapshot the durable runtime and truncate its WAL.
    Checkpoint,
}

/// `KEYWORD` or a statement-specific error message.
fn expect_keyword(p: &mut Parser, kw: Keyword, what: &str) -> Result<(), ParseError> {
    if p.eat_keyword(kw) {
        Ok(())
    } else {
        Err(p.error(what))
    }
}

/// `( literal, … ) [, ( … )]*` — the VALUES tail of INSERT/DELETE; must
/// consume every remaining token.
fn rows(p: &mut Parser) -> Result<Vec<Vec<SqlValue>>, ParseError> {
    let mut rows = Vec::new();
    loop {
        if !p.eat(&Token::LParen) {
            return Err(p.error("expected ( before a VALUES row"));
        }
        let mut row = Vec::new();
        loop {
            match p.tokens.get(p.pos) {
                Some(Token::Int(v)) => {
                    row.push(SqlValue::Int(*v));
                    p.pos += 1;
                }
                Some(Token::Str(s)) => {
                    row.push(SqlValue::Str(s.clone()));
                    p.pos += 1;
                }
                other => return Err(p.error(&format!("expected a literal, found {other:?}"))),
            }
            if !p.eat(&Token::Comma) {
                break;
            }
        }
        if !p.eat(&Token::RParen) {
            return Err(p.error("expected ) after a VALUES row"));
        }
        rows.push(row);
        if !p.eat(&Token::Comma) {
            break;
        }
    }
    p.expect_end()?;
    Ok(rows)
}

/// Scan the raw `CREATE VIEW name AS BALG ` prefix (case-insensitive,
/// whitespace-separated words) **without** SQL tokenization — the BALG
/// tail uses `{`, `[` and other characters the SQL lexer rejects.
/// Returns the view name and the byte offset of the expression tail, or
/// `None` when the input is not that statement form (in particular,
/// plain `CREATE VIEW … AS SELECT …` falls through to the SQL path).
fn balg_view_prefix(input: &str) -> Option<(&str, usize)> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut words: Vec<(usize, usize)> = Vec::with_capacity(5);
    for _ in 0..5 {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        let start = pos;
        while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
            pos += 1;
        }
        if start == pos {
            return None;
        }
        words.push((start, pos));
    }
    let word = |i: usize| &input[words[i].0..words[i].1];
    let is = |i: usize, kw: &str| word(i).eq_ignore_ascii_case(kw);
    if !(is(0, "CREATE") && is(1, "VIEW") && is(3, "AS") && is(4, "BALG")) {
        return None;
    }
    while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
        pos += 1;
    }
    Some((word(2), pos))
}

/// Parse one statement. Anything that does not start with `CREATE`,
/// `INSERT` or `DELETE` parses as a plain query.
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    // The BALG view form is recognized on the raw text, before SQL
    // tokenization (its expression syntax is not SQL-lexable).
    if let Some((name, at)) = balg_view_prefix(input) {
        let expr = balg_core::parse::parse_expr(&input[at..]).map_err(|e| ParseError {
            at: at + e.position,
            message: e.message,
        })?;
        return Ok(Statement::CreateBalgView {
            name: name.to_owned(),
            expr,
            at,
        });
    }
    let (tokens, positions) = tokenize_with_positions(input)?;
    match tokens.first() {
        Some(Token::Keyword(Keyword::Create)) => {
            let mut p = Parser {
                tokens,
                positions,
                pos: 1,
            };
            expect_keyword(&mut p, Keyword::View, "expected VIEW after CREATE")?;
            let name = p.ident()?;
            expect_keyword(&mut p, Keyword::As, "expected AS after the view name")?;
            let query = parse_query_from(p.tokens, p.positions, p.pos)?;
            Ok(Statement::CreateView { name, query })
        }
        Some(Token::Keyword(Keyword::Insert)) => {
            let mut p = Parser {
                tokens,
                positions,
                pos: 1,
            };
            expect_keyword(&mut p, Keyword::Into, "expected INTO after INSERT")?;
            let table = p.ident()?;
            expect_keyword(&mut p, Keyword::Values, "expected VALUES")?;
            let rows = rows(&mut p)?;
            Ok(Statement::Insert { table, rows })
        }
        Some(Token::Keyword(Keyword::Delete)) => {
            let mut p = Parser {
                tokens,
                positions,
                pos: 1,
            };
            expect_keyword(&mut p, Keyword::From, "expected FROM after DELETE")?;
            let table = p.ident()?;
            expect_keyword(
                &mut p,
                Keyword::Values,
                "expected VALUES (delete-by-row form)",
            )?;
            let rows = rows(&mut p)?;
            Ok(Statement::Delete { table, rows })
        }
        Some(Token::Keyword(Keyword::Checkpoint)) => {
            let p = Parser {
                tokens,
                positions,
                pos: 1,
            };
            p.expect_end()?;
            Ok(Statement::Checkpoint)
        }
        _ => Ok(Statement::Query(parse_query_from(tokens, positions, 0)?)),
    }
}

/// The outcome of one executed statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Decoded rows of a one-shot query.
    Rows(QueryResult),
    /// A view was registered. Its rows are read with
    /// [`SqlRuntime::view_rows`], which reports a cell that does not
    /// decode, such as an `AVG` with no integral value yet.
    ViewCreated {
        /// The view name.
        name: String,
        /// The number of rows it holds, counting duplicates.
        rows: Natural,
    },
    /// An update was applied and all dependent views maintained.
    Applied {
        /// The updated table.
        table: String,
        /// Rows inserted (counting duplicates).
        inserted: u64,
        /// Rows deleted (counting duplicates).
        deleted: u64,
    },
    /// A `CHECKPOINT` completed: the snapshot covers everything up to
    /// `lsn` and the WAL was truncated.
    Checkpointed {
        /// The snapshot's log sequence number.
        lsn: u64,
    },
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The one writer of result rows: straight from the validated
            // bag, `cell | cell  xN` per distinct row, then the exact total.
            Response::Rows(result) => {
                let mut out = ReplyBuf {
                    f,
                    buf: [0; ReplyBuf::CAPACITY],
                    len: 0,
                };
                let mut total = 0u128;
                for (cells, mult) in result.cells() {
                    for (ix, cell) in cells.enumerate() {
                        if ix > 0 {
                            out.text(" | ")?;
                        }
                        match cell {
                            Cell::Int(v) => out.decimal(v < 0, v.unsigned_abs().into())?,
                            Cell::Str(s) => out.text(s)?,
                        }
                    }
                    out.text("  x")?;
                    out.decimal(false, mult.into())?;
                    out.text("\n")?;
                    total += u128::from(mult);
                }
                out.text("(")?;
                out.decimal(false, total)?;
                out.text(" rows)")?;
                out.flush()
            }
            Response::ViewCreated { name, rows } => {
                write!(f, "view {name} created ({rows} rows)")
            }
            Response::Applied {
                table,
                inserted,
                deleted,
            } => write!(f, "{table}: +{inserted} -{deleted}"),
            Response::Checkpointed { lsn } => {
                write!(f, "checkpoint complete (snapshot lsn {lsn})")
            }
        }
    }
}

/// A reply's bytes gathered on the stack and handed to the formatter a
/// buffer at a time, with integers written in place: one `write_str`
/// per buffer instead of several per row, and none of the `fmt`
/// machinery a `write!` costs per cell. The buffer only ever holds whole
/// `str` pieces and ASCII digits, so it is always valid UTF-8.
struct ReplyBuf<'a, 'f> {
    f: &'a mut fmt::Formatter<'f>,
    buf: [u8; ReplyBuf::CAPACITY],
    len: usize,
}

impl ReplyBuf<'_, '_> {
    const CAPACITY: usize = 512;

    fn text(&mut self, s: &str) -> fmt::Result {
        if s.len() > Self::CAPACITY - self.len {
            self.flush()?;
            if s.len() > Self::CAPACITY {
                return self.f.write_str(s);
            }
        }
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }

    /// `n` in decimal, negated when `negative`.
    fn decimal(&mut self, negative: bool, n: u128) -> fmt::Result {
        // `u128::MAX` has 39 digits; one more byte for the sign.
        if Self::CAPACITY - self.len < 40 {
            self.flush()?;
        }
        if negative {
            self.buf[self.len] = b'-';
            self.len += 1;
        }
        let end = self.len + n.checked_ilog10().map_or(1, |log| log as usize + 1);
        let mut at = end;
        let mut push = |digit: u8| {
            at -= 1;
            self.buf[at] = b'0' + digit;
        };
        // u128 division is a library call: drop to a word as soon as it fits.
        let mut wide = n;
        while wide > u128::from(u64::MAX) {
            push((wide % 10) as u8);
            wide /= 10;
        }
        let mut word = wide as u64;
        loop {
            push((word % 10) as u8);
            word /= 10;
            if word == 0 {
                break;
            }
        }
        self.len = end;
        Ok(())
    }

    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).expect("whole pieces and digits");
        self.len = 0;
        self.f.write_str(text)
    }
}

/// Map a durability-layer failure into SQL space: logical rejections
/// keep their structure, infrastructure failures become
/// [`SqlError::Durability`].
fn durable_err(error: DurableError) -> SqlError {
    match error {
        DurableError::Update(e) => SqlError::Update(e),
        other => SqlError::Durability(other.to_string()),
    }
}

/// `name:flag,…` — the meta-record encoding of a column list (SQL
/// identifiers cannot contain `,` or `:`, so the format is unambiguous).
fn encode_columns(columns: &[Column]) -> String {
    columns
        .iter()
        .map(|c| format!("{}:{}", c.name, u8::from(c.numeric)))
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_columns(text: &str) -> Result<Vec<Column>, SqlError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            let (name, flag) = part
                .rsplit_once(':')
                .ok_or_else(|| SqlError::Durability(format!("bad column meta {part:?}")))?;
            Ok(Column {
                name: name.to_owned(),
                numeric: flag == "1",
            })
        })
        .collect()
}

/// The decoded output shape of a BALG view: the inferred type must be a
/// bag of tuples whose fields are atoms (plain columns) or integer bags
/// (numeric columns, the paper's bag-of-units encoding). Columns are
/// named `c1`, `c2`, …. `None` means the type is not row-representable.
fn balg_view_columns(ty: &Type) -> Option<Vec<Column>> {
    let Type::Bag(element) = ty else { return None };
    let Type::Tuple(fields) = element.as_ref() else {
        return None;
    };
    fields
        .iter()
        .enumerate()
        .map(|(i, field)| {
            let numeric = match field {
                Type::Atom => false,
                Type::Bag(inner) if **inner == Type::atom_tuple(1) => true,
                _ => return None,
            };
            Some(Column {
                name: format!("c{}", i + 1),
                numeric,
            })
        })
        .collect()
}

/// A SQL session with maintained views: a catalog with its statement
/// cache, a runtime (in-memory or WAL-backed — see [`SqlRuntime::open`]),
/// and the output shapes of registered views.
pub struct SqlRuntime {
    catalog: Catalog,
    /// The compiled reads of `catalog`. Replaced, never cleared, in the
    /// same assignment that replaces the catalog, so snapshots pinned
    /// earlier keep the cache of the catalog they carry.
    statements: Arc<StatementCache>,
    backend: Runtime,
    view_columns: BTreeMap<String, Arc<[Column]>>,
}

impl SqlRuntime {
    /// A runtime over a catalog and an initial database. Declared tables
    /// without a bag get an empty one, so update statements against a
    /// fresh table work.
    pub fn new(catalog: Catalog, db: balg_core::schema::Database) -> SqlRuntime {
        Self::with_limits(catalog, db, Limits::default())
    }

    /// As [`SqlRuntime::new`] with explicit evaluation budgets.
    pub fn with_limits(
        catalog: Catalog,
        db: balg_core::schema::Database,
        limits: Limits,
    ) -> SqlRuntime {
        let mut runtime = ViewRuntime::from_database(db, limits);
        for table in catalog.tables() {
            if runtime.database().get(&table.name).is_none() {
                runtime
                    .load_base(&table.name, balg_core::bag::Bag::new())
                    .expect("loading into a runtime without views cannot fail");
            }
        }
        SqlRuntime {
            catalog,
            statements: Arc::default(),
            backend: Runtime::memory(runtime),
            view_columns: BTreeMap::new(),
        }
    }

    /// A durable session over `data_dir`: loads the latest snapshot,
    /// replays the WAL, restores the persisted catalog and view output
    /// shapes from meta records, and declares any table in `catalog` the
    /// directory doesn't know yet (so a fresh directory and a reopened
    /// one go through the same call).
    pub fn open(
        catalog: &Catalog,
        data_dir: impl AsRef<Path>,
        limits: Limits,
    ) -> Result<SqlRuntime, SqlError> {
        let backend = Runtime::open(data_dir, limits).map_err(durable_err)?;
        // Persisted schema first: it is the authoritative record of what
        // the directory's bags and views mean.
        let mut persisted = Catalog::new();
        let mut view_columns = BTreeMap::new();
        for (key, value) in backend.metas() {
            if let Some(table) = key.strip_prefix("table:") {
                let columns = decode_columns(value)?;
                let refs: Vec<(&str, bool)> = columns
                    .iter()
                    .map(|c| (c.name.as_str(), c.numeric))
                    .collect();
                persisted.declare(table, &refs);
            } else if let Some(view) = key.strip_prefix("viewcols:") {
                view_columns.insert(view.to_owned(), decode_columns(value)?.into());
            }
        }
        // A replayed runtime may have dropped views (deterministic
        // maintenance failures re-happen on replay); drop their shapes.
        view_columns.retain(|name, _| backend.runtime().view(name).is_some());
        let mut rt = SqlRuntime {
            catalog: persisted,
            statements: Arc::default(),
            backend,
            view_columns,
        };
        // Then the caller's catalog: new tables are declared (and
        // persisted); already-known tables must not be silently reshaped.
        let fresh: Vec<Table> = catalog
            .tables()
            .filter(|t| rt.catalog.get(&t.name).is_none())
            .cloned()
            .collect();
        for table in fresh {
            let refs: Vec<(&str, bool)> = table
                .columns
                .iter()
                .map(|c| (c.name.as_str(), c.numeric))
                .collect();
            rt.declare_table(&table.name, &refs)?;
        }
        Ok(rt)
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The statement cache of the current catalog.
    pub fn statements(&self) -> &Arc<StatementCache> {
        &self.statements
    }

    /// The underlying view runtime (current database, stats, checks).
    pub fn runtime(&self) -> &ViewRuntime {
        self.backend.runtime()
    }

    /// The backing runtime — memory or durable (server tuning: group
    /// commit, fsync control; bulk base loads; `:stats`).
    pub fn backend_mut(&mut self) -> &mut Runtime {
        &mut self.backend
    }

    /// Durability counters (`None` for in-memory sessions).
    pub fn durability(&self) -> Option<balg_incremental::Durability> {
        self.backend.durability()
    }

    /// Declare a fresh table after construction (served sessions declare
    /// tables at runtime). The new table starts empty; the name must be
    /// free of both tables and views. Durable sessions persist the
    /// declaration, so a reopened directory speaks the same schema.
    pub fn declare_table(&mut self, name: &str, columns: &[(&str, bool)]) -> Result<(), SqlError> {
        if self.catalog.get(name).is_some() || self.backend.runtime().view(name).is_some() {
            return Err(SqlError::Compile(
                crate::compile::CompileError::TableExists(name.to_owned()),
            ));
        }
        let mut catalog = self.catalog.clone();
        catalog.declare(name, columns);
        // A new catalog starts a new statement cache in the same
        // assignment: nothing compiled against the old one can answer
        // under the new one.
        (self.catalog, self.statements) = (catalog, Arc::default());
        let encoded = encode_columns(&self.catalog.get(name).expect("just declared").columns);
        self.backend
            .set_meta(&format!("table:{name}"), Some(&encoded))
            .map_err(durable_err)?;
        if self.backend.runtime().database().get(name).is_none() {
            self.backend
                .load_base(name, balg_core::bag::Bag::new())
                .map_err(durable_err)?;
        }
        Ok(())
    }

    /// The cached output shape of a registered view (`None` for unknown
    /// or dropped views), shared with every result and snapshot that
    /// reads the view.
    pub fn view_output(&self, name: &str) -> Option<&Arc<[Column]>> {
        self.view_columns.get(name)
    }

    /// Inert: ignores its argument, since every kernel is serial. Kept
    /// only because the frozen end-to-end benchmark (`benchmark/`) calls
    /// it; ROADMAP item 1(g) removes those calls and then this method.
    pub fn set_parallel_threads(&mut self, _n: usize) {}

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<Response, SqlError> {
        let statement = match self.statements.prepare(sql, &self.catalog)? {
            Prepared::Query(compiled) => {
                let runtime = self.backend.runtime();
                let limits = runtime.limits().clone();
                let rows = compiled.evaluate(runtime.database(), limits)?;
                return Ok(Response::Rows(rows));
            }
            Prepared::Other(statement) => statement,
        };
        match statement {
            Statement::Query(_) => unreachable!("prepare compiles every query"),
            Statement::CreateView { name, query } => {
                self.check_view_name(&name)?;
                let compiled = compile_view(&query, &self.catalog)?;
                self.register_view(name, compiled.expr, compiled.output)
            }
            Statement::CreateBalgView { name, expr, at } => {
                self.check_view_name(&name)?;
                let output = self.analyze_balg_view(&expr, at)?;
                self.register_view(name, expr, output.into())
            }
            Statement::Insert { table, rows } => {
                let count = rows.len() as u64;
                self.apply_rows(&table, &rows, false)?;
                Ok(Response::Applied {
                    table,
                    inserted: count,
                    deleted: 0,
                })
            }
            Statement::Delete { table, rows } => {
                let count = rows.len() as u64;
                self.apply_rows(&table, &rows, true)?;
                Ok(Response::Applied {
                    table,
                    inserted: 0,
                    deleted: count,
                })
            }
            Statement::Checkpoint => match self.backend.checkpoint().map_err(durable_err)? {
                Some(durability) => Ok(Response::Checkpointed {
                    lsn: durability.snapshot_lsn,
                }),
                None => Err(SqlError::Durability(
                    "CHECKPOINT requires a durable session (--data-dir)".to_owned(),
                )),
            },
        }
    }

    /// Refuse a `CREATE VIEW` name a declared table holds before anything
    /// is compiled or logged: it would mean the base rows in FROM but the
    /// view rows in `view_rows()`. A live view's name is refused by the
    /// runtime in [`Self::register_view`]; a dropped view's is free again.
    fn check_view_name(&self, name: &str) -> Result<(), SqlError> {
        if self.catalog.get(name).is_some() {
            return Err(SqlError::Compile(
                crate::compile::CompileError::ViewShadowsTable(name.to_owned()),
            ));
        }
        Ok(())
    }

    /// Gate a raw BALG view through the static analyzer: reject type and
    /// shape errors, reject non-polynomial cost classes (the static form
    /// of the evaluator's `TooLarge` budget trip — a view the delta
    /// engine could never afford to maintain), and derive the output row
    /// shape from the inferred type. Diagnostics point at byte `at`, the
    /// start of the expression within the statement.
    fn analyze_balg_view(&self, expr: &Expr, at: usize) -> Result<Vec<Column>, SqlError> {
        let facts =
            analyze::analyze(expr, &self.catalog.to_schema()).map_err(|e| SqlError::Analysis {
                at,
                message: e.to_string(),
            })?;
        if facts.cost.blowup_risk() {
            return Err(SqlError::Analysis {
                at,
                message: format!(
                    "cost class is {} — the view can outgrow every polynomial bound \
                     (static TooLarge risk), refusing to maintain it",
                    facts.cost
                ),
            });
        }
        balg_view_columns(&facts.ty).ok_or_else(|| SqlError::Analysis {
            at,
            message: format!(
                "view type {} is not a flat row shape (need a bag of tuples over \
                 atoms and integer bags)",
                facts.ty
            ),
        })
    }

    /// Register an analyzed/compiled view expression under `name` and
    /// persist its output shape — shared tail of both `CREATE VIEW`
    /// forms. The view stands once it is saved, so its rows are counted,
    /// not decoded: a decode error belongs to the reads.
    fn register_view(
        &mut self,
        name: String,
        expr: Expr,
        output: Arc<[Column]>,
    ) -> Result<Response, SqlError> {
        // A live view's name is the runtime's refusal, before anything is
        // logged, and the `TableExists` any second create is.
        self.backend.create_view(&name, expr).map_err(|e| match e {
            DurableError::Update(UpdateError::NameTaken { name, .. }) => {
                SqlError::Compile(crate::compile::CompileError::TableExists(name))
            }
            other => durable_err(other),
        })?;
        self.backend
            .set_meta(&format!("viewcols:{name}"), Some(&encode_columns(&output)))
            .map_err(durable_err)?;
        self.view_columns.insert(name.clone(), output);
        let runtime = self.backend.runtime();
        let rows = runtime
            .view(&name)
            .ok_or_else(|| SqlError::Update(runtime.missing_view_error(&name)))?
            .cardinality();
        Ok(Response::ViewCreated { name, rows })
    }

    /// The current decoded contents of a maintained view. The runtime is
    /// the source of truth — a view it dropped (after a failed
    /// maintenance) is unknown here even if its output shape is still
    /// cached.
    pub fn view_rows(&self, name: &str) -> Result<QueryResult, SqlError> {
        let runtime = self.backend.runtime();
        let bag = runtime
            .view(name)
            .ok_or_else(|| SqlError::Update(runtime.missing_view_error(name)))?;
        let columns = self
            .view_columns
            .get(name)
            .ok_or_else(|| SqlError::Update(runtime.missing_view_error(name)))?;
        decode_result(bag, Arc::clone(columns))
    }

    /// Names of the registered views (as the runtime sees them).
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.backend.runtime().views().map(|(name, _)| name)
    }

    /// Re-check one view against a full re-evaluation.
    pub fn verify(&self, name: &str) -> Result<bool, SqlError> {
        self.backend
            .runtime()
            .verify(name)
            .map_err(SqlError::Update)
    }

    fn encode_row(table: &Table, row: &[SqlValue]) -> Result<Value, SqlError> {
        if row.len() != table.columns.len() {
            return Err(SqlError::Decode(format!(
                "row arity {} vs table arity {}",
                row.len(),
                table.columns.len()
            )));
        }
        let fields = row
            .iter()
            .zip(&table.columns)
            .map(|(value, column)| {
                encode_value(value, column.numeric).map_err(|e| SqlError::Decode(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Value::Tuple(fields.into()))
    }

    fn apply_rows(
        &mut self,
        table_name: &str,
        rows: &[Vec<SqlValue>],
        delete: bool,
    ) -> Result<(), SqlError> {
        let table = self
            .catalog
            .get(table_name)
            .ok_or_else(|| {
                SqlError::Compile(crate::compile::CompileError::UnknownTable(
                    table_name.to_owned(),
                ))
            })?
            .clone();
        // Accumulate through the builder (amortized O(log n) per row) and
        // merge once — per-row `insert_with_multiplicity` would make wide
        // INSERT statements quadratic in the row count.
        let mut builder = BagBuilder::new();
        let sign = if delete { ZInt::neg_one() } else { ZInt::one() };
        for row in rows {
            builder.push(Self::encode_row(&table, row)?, sign.clone());
        }
        let mut batch = UpdateBatch::new();
        batch.merge_delta(table_name, &builder.build());
        let result = self.backend.apply(&batch).map_err(durable_err);
        // The runtime drops views whose maintenance and re-derivation
        // both failed; keep the output-shape cache (and its persisted
        // twin) in sync.
        let dropped: Vec<String> = self
            .view_columns
            .keys()
            .filter(|name| self.backend.runtime().view(name).is_none())
            .cloned()
            .collect();
        for name in dropped {
            self.view_columns.remove(&name);
            let _ = self.backend.set_meta(&format!("viewcols:{name}"), None);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::database_from_rows;

    fn setup() -> SqlRuntime {
        let catalog = Catalog::new()
            .with_table("orders", &[("customer", false), ("qty", true)])
            .with_table("vip", &[("customer", false)]);
        let s = |x: &str| SqlValue::Str(x.into());
        let i = SqlValue::Int;
        let db = database_from_rows(
            &catalog,
            &[(
                "orders",
                vec![
                    vec![s("ann"), i(3)],
                    vec![s("bob"), i(5)],
                    vec![s("bob"), i(5)],
                ],
            )],
        )
        .unwrap();
        SqlRuntime::new(catalog, db)
    }

    #[test]
    fn create_view_and_maintain_under_updates() {
        let mut rt = setup();
        let response = rt
            .execute("CREATE VIEW spenders AS SELECT customer FROM orders WHERE qty >= 4")
            .unwrap();
        let Response::ViewCreated { name, rows } = response else {
            panic!("expected ViewCreated");
        };
        assert_eq!(name, "spenders");
        assert_eq!(rows, Natural::from(2u64)); // bob twice

        rt.execute("INSERT INTO orders VALUES ('cleo', 9), ('ann', 1)")
            .unwrap();
        let rows = rt.view_rows("spenders").unwrap();
        assert_eq!(rows.total_rows(), 3); // + cleo
        assert!(rt.verify("spenders").unwrap());

        rt.execute("DELETE FROM orders VALUES ('bob', 5)").unwrap();
        let rows = rt.view_rows("spenders").unwrap();
        assert_eq!(rows.total_rows(), 2); // one bob occurrence gone
        assert!(rt.verify("spenders").unwrap());
    }

    #[test]
    fn insert_into_fresh_table_and_query() {
        let mut rt = setup();
        rt.execute("INSERT INTO vip VALUES ('ann')").unwrap();
        let Response::Rows(rows) = rt
            .execute("SELECT o.customer FROM orders o, vip v WHERE o.customer = v.customer")
            .unwrap()
        else {
            panic!("expected rows");
        };
        assert_eq!(rows.total_rows(), 1);
    }

    /// A view whose `AVG` has no integral value yet is created and saved
    /// all the same: the error belongs to its reads, which succeed once
    /// the rows divide.
    #[test]
    fn average_view_is_created_before_it_divides() {
        let mut rt = setup();
        let create = "CREATE VIEW mean AS SELECT AVG(qty) FROM orders";
        let response = rt.execute(create).unwrap();
        assert_eq!(response.to_string(), "view mean created (1 rows)");
        assert!(matches!(
            rt.view_rows("mean"),
            Err(SqlError::NoAverage { sum: 13, count: 3 })
        ));
        assert!(rt.view_names().any(|name| name == "mean"));
        rt.execute("INSERT INTO orders VALUES ('cleo', 7)").unwrap();
        assert_eq!(rt.view_rows("mean").unwrap().scalar(), Some(5)); // 20 / 4
        assert!(rt.verify("mean").unwrap());
    }

    #[test]
    fn aggregate_view_is_maintained_via_fallback() {
        let mut rt = setup();
        rt.execute("CREATE VIEW total AS SELECT SUM(qty) FROM orders")
            .unwrap();
        assert_eq!(rt.view_rows("total").unwrap().scalar(), Some(13));
        rt.execute("INSERT INTO orders VALUES ('dee', 7)").unwrap();
        assert_eq!(rt.view_rows("total").unwrap().scalar(), Some(20));
        assert!(rt.verify("total").unwrap());
        // SUM compiles through MAP/δ — δ is linear, so the chain maintains
        // with at most scalar/linear work plus the β re-derivation.
        assert!(rt.runtime().stats().batches > 0);
    }

    #[test]
    fn balg_view_form_registers_and_maintains() {
        let mut rt = setup();
        let response = rt
            .execute("CREATE VIEW customers AS BALG dedup(project(orders, 1))")
            .unwrap();
        let Response::ViewCreated { name, rows } = response else {
            panic!("expected ViewCreated");
        };
        assert_eq!(name, "customers");
        assert_eq!(rows, Natural::from(2u64)); // ann, bob (deduped)
        assert_eq!(
            rt.view_output("customers").map(|columns| columns.len()),
            Some(1),
            "columns derive from the inferred type"
        );
        // The BALG view is maintained like any other.
        rt.execute("INSERT INTO orders VALUES ('cleo', 9)").unwrap();
        assert_eq!(rt.view_rows("customers").unwrap().total_rows(), 3);
        assert!(rt.verify("customers").unwrap());
        // Numeric columns survive the round trip through the inferred
        // type: projecting the integer-bag column keeps SQL decoding.
        rt.execute("CREATE VIEW quantities AS BALG project(orders, 2)")
            .unwrap();
        let rows = rt.view_rows("quantities").unwrap();
        assert!(rows.columns()[0].numeric);
        assert!(rows
            .rows()
            .iter()
            .all(|(row, _)| matches!(row[0], SqlValue::Int(_))));
        // Case-insensitive prefix, like every other keyword.
        assert!(matches!(
            parse_statement("create view v as balg dedup(vip)"),
            Ok(Statement::CreateBalgView { .. })
        ));
    }

    #[test]
    fn balg_view_parse_errors_point_into_the_expression() {
        let err = parse_statement("CREATE VIEW v AS BALG frob(orders)").unwrap_err();
        // "frob" is unknown; the reported byte offset lands inside the
        // expression tail, not at the statement start.
        assert!(err.at >= 22, "{err:?}");
        // A BALG view may not shadow a table either.
        let mut rt = setup();
        assert!(matches!(
            rt.execute("CREATE VIEW orders AS BALG dedup(vip)")
                .unwrap_err(),
            SqlError::Compile(crate::compile::CompileError::ViewShadowsTable(_))
        ));
    }

    #[test]
    fn deleting_missing_rows_is_an_error() {
        let mut rt = setup();
        let err = rt
            .execute("DELETE FROM orders VALUES ('nobody', 1)")
            .unwrap_err();
        assert!(matches!(
            err,
            SqlError::Update(balg_incremental::UpdateError::NegativeBase { .. })
        ));
    }

    #[test]
    fn statement_parse_errors() {
        assert!(parse_statement("CREATE orders AS SELECT * FROM orders").is_err());
        assert!(parse_statement("INSERT INTO orders ('x', 1)").is_err());
        assert!(parse_statement("INSERT INTO orders VALUES ('x', 1) garbage").is_err());
        assert!(parse_statement("DELETE FROM orders WHERE qty = 1").is_err());
        // Plain queries still parse as statements.
        assert!(matches!(
            parse_statement("SELECT * FROM orders"),
            Ok(Statement::Query(_))
        ));
    }

    #[test]
    fn view_shadowing_unknown_names() {
        let mut rt = setup();
        assert!(matches!(
            rt.execute("CREATE VIEW v AS SELECT nope FROM orders"),
            Err(SqlError::Compile(_))
        ));
        assert!(matches!(
            rt.execute("INSERT INTO missing VALUES (1)"),
            Err(SqlError::Compile(_))
        ));
        assert!(rt.view_rows("missing").is_err());
        // A view may not take a declared table's name.
        assert!(matches!(
            rt.execute("CREATE VIEW orders AS SELECT customer FROM orders"),
            Err(SqlError::Compile(
                crate::compile::CompileError::ViewShadowsTable(_)
            ))
        ));
        assert!(rt.view_names().next().is_none());
    }

    /// A second `CREATE VIEW` under a live view's name, SQL or BALG, is
    /// refused with `TableExists` and leaves the first view's rows alone.
    #[test]
    fn a_live_view_name_is_not_replaced() {
        let mut rt = setup();
        rt.execute("CREATE VIEW v AS SELECT customer FROM orders WHERE qty >= 4")
            .unwrap();
        let before = rt.view_rows("v").unwrap();
        for again in [
            "CREATE VIEW v AS SELECT customer FROM vip",
            "CREATE VIEW v AS BALG dedup(vip)",
        ] {
            let err = rt.execute(again).unwrap_err();
            assert!(
                matches!(
                    err,
                    SqlError::Compile(crate::compile::CompileError::TableExists(ref name)) if name == "v"
                ),
                "{again}: {err}"
            );
            assert_eq!(err.to_string(), "name v is already a table or view");
        }
        assert_eq!(rt.view_rows("v").unwrap(), before);
        assert!(rt.verify("v").unwrap());
    }

    #[test]
    fn declare_table_at_runtime() {
        let mut rt = setup();
        rt.declare_table("notes", &[("body", false)]).unwrap();
        rt.execute("INSERT INTO notes VALUES ('hi'), ('ho')")
            .unwrap();
        let Response::Rows(rows) = rt.execute("SELECT * FROM notes").unwrap() else {
            panic!("expected rows");
        };
        assert_eq!(rows.total_rows(), 2);
        // Name collisions with existing tables and views are rejected.
        assert!(matches!(
            rt.declare_table("orders", &[("x", false)]),
            Err(SqlError::Compile(
                crate::compile::CompileError::TableExists(_)
            ))
        ));
        rt.execute("CREATE VIEW v AS SELECT customer FROM vip")
            .unwrap();
        assert!(rt.declare_table("v", &[("x", false)]).is_err());
        assert_eq!(rt.view_output("v").map(|columns| columns.len()), Some(1));
        assert!(rt.view_output("orders").is_none());
    }

    #[test]
    fn dropped_view_errors_carry_the_cause() {
        let catalog = Catalog::new()
            .with_table("orders", &[("customer", false), ("qty", true)])
            .with_table("vip", &[("customer", false)]);
        let s = |x: &str| SqlValue::Str(x.into());
        let i = SqlValue::Int;
        let db = database_from_rows(
            &catalog,
            &[("orders", vec![vec![s("ann"), i(3)], vec![s("bob"), i(5)]])],
        )
        .unwrap();
        let limits = Limits {
            max_bag_elements: 4,
            ..Limits::default()
        };
        let mut rt = SqlRuntime::with_limits(catalog, db, limits);
        rt.execute("CREATE VIEW pairs AS SELECT o.customer, v.customer FROM orders o, vip v")
            .unwrap();
        // The cross join outgrows max_bag_elements: maintenance fails,
        // re-derivation fails, the runtime drops the view and surfaces
        // the failure — but the base update itself lands.
        let err = rt
            .execute("INSERT INTO vip VALUES ('a'), ('b'), ('c')")
            .unwrap_err();
        assert!(matches!(
            err,
            SqlError::Update(balg_incremental::UpdateError::View { .. })
        ));
        let Response::Rows(rows) = rt.execute("SELECT * FROM vip").unwrap() else {
            panic!("expected rows");
        };
        assert_eq!(rows.total_rows(), 3);
        let err = rt.view_rows("pairs").unwrap_err();
        assert!(matches!(
            err,
            SqlError::Update(balg_incremental::UpdateError::ViewDropped { .. })
        ));
        // A name that never existed still reads as plain UnknownView.
        assert!(matches!(
            rt.view_rows("nope").unwrap_err(),
            SqlError::Update(balg_incremental::UpdateError::UnknownView(_))
        ));
    }

    #[test]
    fn checkpoint_statement_parses_and_needs_durability() {
        assert_eq!(parse_statement("CHECKPOINT"), Ok(Statement::Checkpoint));
        assert_eq!(parse_statement("checkpoint"), Ok(Statement::Checkpoint));
        assert!(parse_statement("CHECKPOINT now").is_err());
        let mut rt = setup();
        assert!(matches!(
            rt.execute("CHECKPOINT"),
            Err(SqlError::Durability(_))
        ));
    }

    fn sql_scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("balg-sql-{tag}-{}", std::process::id()))
    }

    #[test]
    fn durable_session_restores_catalog_views_and_data() {
        let dir = sql_scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
        {
            let mut rt = SqlRuntime::open(&catalog, &dir, Limits::default()).unwrap();
            rt.execute("INSERT INTO orders VALUES ('ann', 3), ('bob', 5)")
                .unwrap();
            rt.execute("CREATE VIEW spenders AS SELECT customer FROM orders WHERE qty >= 4")
                .unwrap();
            rt.declare_table("notes", &[("body", false)]).unwrap();
            rt.execute("INSERT INTO notes VALUES ('hi')").unwrap();
            let Response::Checkpointed { lsn } = rt.execute("CHECKPOINT").unwrap() else {
                panic!("expected Checkpointed");
            };
            assert!(lsn > 0);
            // Post-checkpoint work lands in the fresh WAL tail.
            rt.execute("INSERT INTO orders VALUES ('cleo', 9)").unwrap();
        }
        // Reopen with an *empty* caller catalog: everything must come
        // back from the directory alone.
        let mut rt = SqlRuntime::open(&Catalog::new(), &dir, Limits::default()).unwrap();
        assert!(rt.catalog().get("orders").is_some());
        assert!(rt.catalog().get("notes").is_some());
        assert_eq!(rt.view_rows("spenders").unwrap().total_rows(), 2); // bob, cleo
        assert_eq!(
            rt.view_output("spenders").map(|columns| columns.len()),
            Some(1)
        );
        assert!(rt.verify("spenders").unwrap());
        // And the restored schema still accepts updates.
        rt.execute("DELETE FROM orders VALUES ('bob', 5)").unwrap();
        assert_eq!(rt.view_rows("spenders").unwrap().total_rows(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The refusal comes before the log: a durable session's LSN does not
    /// move, and after a reopen the first view still answers its rows.
    #[test]
    fn a_durable_live_view_name_is_not_replaced() {
        let dir = sql_scratch("view-twice");
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
        let before = {
            let mut rt = SqlRuntime::open(&catalog, &dir, Limits::default()).unwrap();
            rt.execute("INSERT INTO orders VALUES ('ann', 3), ('bob', 5)")
                .unwrap();
            rt.execute("CREATE VIEW v AS SELECT customer FROM orders WHERE qty >= 4")
                .unwrap();
            let before = rt.view_rows("v").unwrap();
            let logged = rt.durability();
            let err = rt
                .execute("CREATE VIEW v AS SELECT customer FROM orders")
                .unwrap_err();
            assert!(matches!(
                err,
                SqlError::Compile(crate::compile::CompileError::TableExists(_))
            ));
            assert_eq!(rt.durability(), logged);
            assert_eq!(rt.view_rows("v").unwrap(), before);
            before
        };
        let rt = SqlRuntime::open(&Catalog::new(), &dir, Limits::default()).unwrap();
        assert_eq!(rt.view_rows("v").unwrap(), before);
        assert!(rt.verify("v").unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grouped_view_with_updates() {
        let mut rt = setup();
        rt.execute(
            "CREATE VIEW per_customer AS SELECT customer, SUM(qty) FROM orders GROUP BY customer",
        )
        .unwrap();
        rt.execute("INSERT INTO orders VALUES ('ann', 4)").unwrap();
        rt.execute("DELETE FROM orders VALUES ('bob', 5)").unwrap();
        let rows = rt.view_rows("per_customer").unwrap();
        let find = |name: &str| {
            rows.rows()
                .into_iter()
                .find(|(row, _)| row[0] == SqlValue::Str(name.into()))
                .map(|(row, _)| row[1].clone())
        };
        assert_eq!(find("ann"), Some(SqlValue::Int(7)));
        assert_eq!(find("bob"), Some(SqlValue::Int(5)));
        assert!(rt.verify("per_customer").unwrap());
    }
}
