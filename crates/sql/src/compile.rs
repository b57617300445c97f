//! Compiling SQL-bag queries to BALG expressions.
//!
//! The translation is the textbook SQL→algebra mapping with the paper's
//! bag semantics throughout: FROM is a left-deep chain of Cartesian
//! products, WHERE is a conjunction of selections placed by
//! [`split_select_over_product`] — one-table conjuncts below the
//! products, the first equality linking each new table directly on its
//! product (the join shape both engines fuse), the rest above — the
//! projection is a MAP (duplicates **survive**, with
//! multiplicities adding on collisions — exactly SQL's `SELECT` without
//! `DISTINCT`), `DISTINCT` is `ε`, `UNION ALL`/`EXCEPT ALL`/`INTERSECT
//! ALL` are `∪⁺`/`−`/`∩`, and the scalar aggregates are the Section 3
//! constructions over the integer-bag encoding.

use std::fmt;
use std::sync::Arc;

use balg_core::bag::{Bag, BagBuilder};
use balg_core::derived::{count, int_value, sum};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::rewrite::split_select_over_product;
use balg_core::schema::Database;
use balg_core::value::Value;

use crate::ast::{
    Aggregate, ColumnRef, CompareOp, Comparison, Operand, Projection, Query, SelectCore,
};
use crate::catalog::{average_parts, decode_cell, Catalog, Cell, Column, SqlValue};
use crate::parser::{parse, ParseError};

/// A compile-time error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// FROM references an undeclared table.
    UnknownTable(String),
    /// A column reference resolves to nothing.
    UnknownColumn(String),
    /// An unqualified column name matches several FROM columns.
    AmbiguousColumn(String),
    /// Two FROM items share an alias.
    DuplicateAlias(String),
    /// Set-operation branches have different output shapes.
    ShapeMismatch,
    /// SUM/AVG on a non-numeric column.
    NonNumericAggregate(String),
    /// A string literal compared against a numeric column.
    NumericStringComparison(String),
    /// GROUP BY present but the projection is not `cols…, AGG(col)` with
    /// exactly the grouped columns — or a grouped aggregate without
    /// GROUP BY.
    GroupProjectionMismatch(String),
    /// SUM/AVG/COUNT(DISTINCT) over one of the grouping columns.
    AggregateOnGroupColumn(String),
    /// CREATE VIEW with the name of a declared table — the name would be
    /// ambiguous between the base rows and the view rows.
    ViewShadowsTable(String),
    /// A table declaration under a name already taken by a table or a
    /// registered view.
    TableExists(String),
    /// An `AVG` column where rows are compared: a set-operation branch, or
    /// `DISTINCT` over groups the select list does not tell apart. An
    /// `AVG` cell is its `[SUM, COUNT]`, and equal averages have many.
    AverageCompared(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CompileError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            CompileError::AmbiguousColumn(c) => write!(f, "ambiguous column {c}"),
            CompileError::DuplicateAlias(a) => write!(f, "duplicate alias {a}"),
            CompileError::ShapeMismatch => f.write_str("set operation branches differ in shape"),
            CompileError::NonNumericAggregate(c) => {
                write!(f, "aggregate on non-numeric column {c}")
            }
            CompileError::NumericStringComparison(s) => {
                write!(f, "string {s:?} compared with a numeric column")
            }
            CompileError::GroupProjectionMismatch(what) => {
                write!(f, "projection does not fit GROUP BY: {what}")
            }
            CompileError::AggregateOnGroupColumn(c) => {
                write!(f, "aggregate over grouping column {c}")
            }
            CompileError::ViewShadowsTable(name) => {
                write!(f, "view {name} would shadow the table of the same name")
            }
            CompileError::TableExists(name) => {
                write!(f, "name {name} is already a table or view")
            }
            CompileError::AverageCompared(what) => {
                write!(f, "AVG cannot be compared across rows: {what}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled query: the BALG expression plus the output row shape.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The expression (free variables are table names).
    pub expr: Expr,
    /// Output columns, in order; shared with every result evaluated from
    /// this query.
    pub output: Arc<[Column]>,
}

impl CompiledQuery {
    /// Evaluate over `db` and validate the result bag: the one evaluation
    /// tail of every SQL read.
    pub fn evaluate(&self, db: &Database, limits: Limits) -> Result<QueryResult, SqlError> {
        let bag = Evaluator::new(db, limits)
            .eval_bag(&self.expr)
            .map_err(SqlError::Eval)?;
        decode_result(&bag, Arc::clone(&self.output))
    }
}

/// One resolvable column of the FROM scope.
struct ScopeColumn {
    alias: String,
    column: Column,
}

struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    /// How many columns the table under `alias` contributes.
    fn arity(&self, alias: &str) -> usize {
        self.columns.iter().filter(|sc| sc.alias == alias).count()
    }

    fn resolve(&self, reference: &ColumnRef) -> Result<usize, CompileError> {
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, sc)| {
                sc.column.name == reference.column
                    && reference.qualifier.as_ref().is_none_or(|q| *q == sc.alias)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [] => Err(CompileError::UnknownColumn(reference.to_string())),
            [unique] => Ok(*unique),
            _ => Err(CompileError::AmbiguousColumn(reference.to_string())),
        }
    }
}

/// Compile a parsed query against a catalog.
pub fn compile_query(query: &Query, catalog: &Catalog) -> Result<CompiledQuery, CompileError> {
    match query {
        Query::Select(core) => compile_select(core, catalog),
        Query::UnionAll(a, b) => compile_setop(a, b, catalog, |x, y| x.additive_union(y)),
        Query::Union(a, b) => compile_setop(a, b, catalog, |x, y| x.additive_union(y).dedup()),
        Query::ExceptAll(a, b) => compile_setop(a, b, catalog, |x, y| x.subtract(y)),
        Query::Except(a, b) => compile_setop(a, b, catalog, |x, y| x.dedup().subtract(y.dedup())),
        Query::IntersectAll(a, b) => compile_setop(a, b, catalog, |x, y| x.intersect(y)),
        Query::Intersect(a, b) => {
            compile_setop(a, b, catalog, |x, y| x.dedup().intersect(y.dedup()))
        }
    }
}

fn compile_setop(
    a: &Query,
    b: &Query,
    catalog: &Catalog,
    combine: impl FnOnce(Expr, Expr) -> Expr,
) -> Result<CompiledQuery, CompileError> {
    let left = compile_query(a, catalog)?;
    let right = compile_query(b, catalog)?;
    if averages(a) || averages(b) {
        return Err(CompileError::AverageCompared("in a set operation".into()));
    }
    let shapes_match = left.output.len() == right.output.len()
        && left
            .output
            .iter()
            .zip(right.output.iter())
            .all(|(x, y)| x.numeric == y.numeric);
    if !shapes_match {
        return Err(CompileError::ShapeMismatch);
    }
    Ok(CompiledQuery {
        expr: combine(left.expr, right.expr),
        // Column names follow SQL convention: the left branch's.
        output: left.output,
    })
}

/// Whether `query` is a SELECT whose aggregate is `AVG`.
fn averages(query: &Query) -> bool {
    matches!(
        query,
        Query::Select(core) if matches!(
            core.projection,
            Projection::Aggregate(Aggregate::Avg(_))
                | Projection::GroupedAggregate(_, Aggregate::Avg(_))
        )
    )
}

/// The row variable of every compiled WHERE selection.
const ROW: &str = "ŵ";

fn compile_select(core: &SelectCore, catalog: &Catalog) -> Result<CompiledQuery, CompileError> {
    // Build the FROM scope.
    let mut scope = Scope {
        columns: Vec::new(),
    };
    let mut seen_aliases = Vec::new();
    for table_ref in &core.from {
        if seen_aliases.contains(&table_ref.alias) {
            return Err(CompileError::DuplicateAlias(table_ref.alias.clone()));
        }
        seen_aliases.push(table_ref.alias.clone());
        let table = catalog
            .get(&table_ref.table)
            .ok_or_else(|| CompileError::UnknownTable(table_ref.table.clone()))?;
        for column in &table.columns {
            scope.columns.push(ScopeColumn {
                alias: table_ref.alias.clone(),
                column: column.clone(),
            });
        }
    }

    // WHERE: the conjuncts, each with the last scope column it reads
    // (resolved against the whole scope, so ambiguity is still an error).
    let mut pending = core
        .predicates
        .iter()
        .map(|comparison| compile_comparison(comparison, &scope))
        .collect::<Result<Vec<_>, _>>()?;

    // FROM: a left-deep chain of products. After each one, the conjuncts
    // whose columns are all in scope go through the conjunct splitter.
    let mut from = core.from.iter();
    let first = from.next().expect("parser guarantees nonempty FROM");
    let mut expr = Expr::var(&first.table);
    let mut arity = scope.arity(&first.alias);
    for table_ref in from {
        let in_scope = arity + scope.arity(&table_ref.alias);
        let (ready, later): (Vec<_>, Vec<_>) =
            pending.into_iter().partition(|(_, last)| *last <= in_scope);
        pending = later;
        expr = split_select_over_product(
            &ROW.into(),
            ready.into_iter().map(|(pred, _)| pred).collect(),
            expr,
            Expr::var(&table_ref.table),
            arity,
        );
        arity = in_scope;
    }
    // What is left is a single-table WHERE: the bare conjunction.
    if let Some(pred) = pending.into_iter().map(|(p, _)| p).reduce(Pred::and) {
        expr = expr.select(ROW, pred);
    }

    // GROUP BY: compiled via the nest operator (the Conclusion's
    // alternative to the powerset) — group, then aggregate each group's
    // nested bag.
    if !core.group_by.is_empty() {
        let (expr, output) = compile_grouped(core, expr, &scope)?;
        let expr = if core.distinct { expr.dedup() } else { expr };
        return Ok(CompiledQuery {
            expr,
            output: output.into(),
        });
    }

    // Projection / aggregate.
    let (expr, output): (Expr, Vec<Column>) = match &core.projection {
        Projection::Star => {
            let output = scope.columns.iter().map(|sc| sc.column.clone()).collect();
            (expr, output)
        }
        Projection::Columns(columns) => {
            let mut indices = Vec::with_capacity(columns.len());
            let mut output = Vec::with_capacity(columns.len());
            for reference in columns {
                let idx = scope.resolve(reference)?;
                indices.push(idx + 1);
                output.push(scope.columns[idx].column.clone());
            }
            (expr.project(&indices), output)
        }
        Projection::Aggregate(aggregate) => {
            let (expr, name) = compile_aggregate(aggregate, expr, &scope)?;
            (
                expr,
                vec![Column {
                    name,
                    numeric: true,
                }],
            )
        }
        Projection::GroupedAggregate(_, _) => {
            return Err(CompileError::GroupProjectionMismatch(
                "grouped aggregate requires a GROUP BY clause".into(),
            ))
        }
    };

    let expr = if core.distinct { expr.dedup() } else { expr };
    Ok(CompiledQuery {
        expr,
        output: output.into(),
    })
}

fn compile_aggregate(
    aggregate: &Aggregate,
    input: Expr,
    scope: &Scope,
) -> Result<(Expr, String), CompileError> {
    let scalar_row = |value: Expr| Expr::Tuple(vec![value]).singleton();
    match aggregate {
        Aggregate::CountStar => Ok((scalar_row(count(input)), "count".to_owned())),
        Aggregate::CountDistinct(column) => {
            let idx = scope.resolve(column)?;
            Ok((
                scalar_row(count(input.project(&[idx + 1]).dedup())),
                "count".to_owned(),
            ))
        }
        Aggregate::Sum(column) => {
            let idx = scope.resolve(column)?;
            if !scope.columns[idx].column.numeric {
                return Err(CompileError::NonNumericAggregate(column.to_string()));
            }
            // Project the integer-bag column out, then sum with δ
            // (multiplicities of equal rows scale their contribution).
            let values = input.map("ŝ", Expr::var("ŝ").attr(idx + 1));
            Ok((scalar_row(values.destroy()), "sum".to_owned()))
        }
        Aggregate::Avg(column) => {
            let idx = scope.resolve(column)?;
            if !scope.columns[idx].column.numeric {
                return Err(CompileError::NonNumericAggregate(column.to_string()));
            }
            // `values` is bound once, by a MAP over its singleton, and
            // read twice.
            let values = input.map("ŝ", Expr::var("ŝ").attr(idx + 1));
            let row = Expr::tuple([sum_and_count(Expr::var("â"))]);
            Ok((values.singleton().map("â", row), "avg".to_owned()))
        }
    }
}

/// SQL `AVG` of the integer bags `values` as one cell `[SUM, COUNT]`,
/// which [`decode_result`] divides. Section 3's powerset guess
/// (`derived::average`) is defined only for an integral average and costs
/// O(Σ values); this costs O(rows), and an average with no integral value
/// is [`SqlError::NoAverage`].
fn sum_and_count(values: Expr) -> Expr {
    Expr::tuple([sum(values.clone()), count(values)])
}

/// Compile `SELECT g₁, …, gₖ, AGG(col) FROM … GROUP BY …` via `nest`:
/// `MAP_{λg.[keys…, agg(α_{k+1}(g))]}(nest_{G}(core))`.
fn compile_grouped(
    core: &SelectCore,
    input: Expr,
    scope: &Scope,
) -> Result<(Expr, Vec<Column>), CompileError> {
    let Projection::GroupedAggregate(selected, aggregate) = &core.projection else {
        return Err(CompileError::GroupProjectionMismatch(
            "GROUP BY requires `SELECT group-cols…, AGG(col)`".into(),
        ));
    };
    // Resolve the GROUP BY columns to 1-based scope indices (nest key
    // order = GROUP BY order).
    let mut group_indices = Vec::with_capacity(core.group_by.len());
    for reference in &core.group_by {
        let idx = scope.resolve(reference)? + 1;
        if group_indices.contains(&idx) {
            return Err(CompileError::GroupProjectionMismatch(format!(
                "duplicate GROUP BY column {reference}"
            )));
        }
        group_indices.push(idx);
    }
    // Every selected plain column must be one of the grouped columns.
    let mut key_positions = Vec::with_capacity(selected.len());
    let mut output = Vec::with_capacity(selected.len() + 1);
    for reference in selected {
        let idx = scope.resolve(reference)? + 1;
        let Some(position) = group_indices.iter().position(|&g| g == idx) else {
            return Err(CompileError::GroupProjectionMismatch(format!(
                "column {reference} is not in GROUP BY"
            )));
        };
        key_positions.push(position + 1);
        output.push(scope.columns[idx - 1].column.clone());
    }
    // Two groups give rows with equal keys when the select list leaves a
    // grouped column out; their `AVG` cells then differ as pairs.
    if core.distinct
        && matches!(aggregate, Aggregate::Avg(_))
        && (1..=group_indices.len()).any(|p| !key_positions.contains(&p))
    {
        return Err(CompileError::AverageCompared(
            "DISTINCT over groups the select list does not tell apart".into(),
        ));
    }
    // The aggregated column must be a residual (non-group) column; its
    // index inside the nested tuples is its rank among residuals.
    let residual_index = |reference: &ColumnRef| -> Result<usize, CompileError> {
        let idx = scope.resolve(reference)? + 1;
        if group_indices.contains(&idx) {
            return Err(CompileError::AggregateOnGroupColumn(reference.to_string()));
        }
        let rank = (1..=scope.columns.len())
            .filter(|i| !group_indices.contains(i))
            .position(|i| i == idx)
            .expect("index is in range and non-group");
        Ok(rank + 1)
    };
    let nested = input.nest(&group_indices);
    let inner = || Expr::var("ĝ").attr(group_indices.len() + 1);
    let (agg_expr, agg_name) = match aggregate {
        Aggregate::CountStar => (count(inner()), "count"),
        Aggregate::CountDistinct(reference) => {
            let j = residual_index(reference)?;
            (count(inner().project(&[j]).dedup()), "count")
        }
        Aggregate::Sum(reference) => {
            let idx = scope.resolve(reference)?;
            if !scope.columns[idx].column.numeric {
                return Err(CompileError::NonNumericAggregate(reference.to_string()));
            }
            let j = residual_index(reference)?;
            (inner().map("ŝ", Expr::var("ŝ").attr(j)).destroy(), "sum")
        }
        Aggregate::Avg(reference) => {
            let idx = scope.resolve(reference)?;
            if !scope.columns[idx].column.numeric {
                return Err(CompileError::NonNumericAggregate(reference.to_string()));
            }
            let j = residual_index(reference)?;
            (
                sum_and_count(inner().map("ŝ", Expr::var("ŝ").attr(j))),
                "avg",
            )
        }
    };
    let mut fields: Vec<Expr> = key_positions
        .iter()
        .map(|&p| Expr::var("ĝ").attr(p))
        .collect();
    fields.push(agg_expr);
    let expr = nested.map("ĝ", Expr::Tuple(fields));
    output.push(Column {
        name: agg_name.to_owned(),
        numeric: true,
    });
    Ok((expr, output))
}

/// One WHERE comparison as a predicate over the row variable, with the
/// 1-based position of the last scope column it reads (`0` when it reads
/// none).
fn compile_comparison(
    comparison: &Comparison,
    scope: &Scope,
) -> Result<(Pred, usize), CompileError> {
    // Determine numeric context: a literal compared to a numeric column
    // must be encoded as an integer bag.
    let numeric_context =
        [&comparison.left, &comparison.right]
            .iter()
            .any(|operand| match operand {
                Operand::Column(reference) => scope
                    .resolve(reference)
                    .is_ok_and(|idx| scope.columns[idx].column.numeric),
                _ => false,
            });
    let (left, left_column) = compile_operand(&comparison.left, scope, numeric_context)?;
    let (right, right_column) = compile_operand(&comparison.right, scope, numeric_context)?;
    let pred = match comparison.op {
        CompareOp::Eq => Pred::Eq(left, right),
        CompareOp::Neq => Pred::Eq(left, right).not(),
        CompareOp::Lt => Pred::Lt(left, right),
        CompareOp::Le => Pred::Le(left, right),
        CompareOp::Gt => Pred::Lt(right, left),
        CompareOp::Ge => Pred::Le(right, left),
    };
    Ok((pred, left_column.max(right_column)))
}

/// One operand, with the 1-based scope column it reads (`0` for a
/// literal).
fn compile_operand(
    operand: &Operand,
    scope: &Scope,
    numeric_context: bool,
) -> Result<(Expr, usize), CompileError> {
    Ok(match operand {
        Operand::Column(reference) => {
            let column = scope.resolve(reference)? + 1;
            (Expr::var(ROW).attr(column), column)
        }
        Operand::Int(value) => {
            let literal = if numeric_context {
                let v = u64::try_from(*value)
                    .map_err(|_| CompileError::NumericStringComparison(value.to_string()))?;
                Expr::Lit(int_value(v))
            } else {
                Expr::lit(Value::int(*value))
            };
            (literal, 0)
        }
        Operand::Str(text) => {
            if numeric_context {
                return Err(CompileError::NumericStringComparison(text.clone()));
            }
            (Expr::lit(Value::sym(text)), 0)
        }
    })
}

/// All errors from end-to-end SQL execution.
#[derive(Debug)]
pub enum SqlError {
    /// Parse failure.
    Parse(ParseError),
    /// Compile failure.
    Compile(CompileError),
    /// The static analyzer ([`mod@balg_core::analyze`]) rejected the view
    /// expression: a shape/type error, or a statically predicted blowup
    /// (non-polynomial cost class — a `TooLarge` failure waiting to
    /// happen).
    Analysis {
        /// Byte offset of the analyzed expression within the statement.
        at: usize,
        /// The analyzer's diagnostic.
        message: String,
    },
    /// Evaluation failure.
    Eval(EvalError),
    /// The result did not decode against the output shape.
    Decode(String),
    /// An `AVG` with no integral value: over no rows (`count` 0), or with
    /// a `sum` that `count` does not divide. The subset has neither NULL
    /// nor decimals.
    NoAverage {
        /// The sum of the averaged values.
        sum: u64,
        /// The number of rows averaged.
        count: u64,
    },
    /// An update statement was rejected by the incremental view runtime.
    Update(balg_incremental::UpdateError),
    /// The durability layer failed (or a durable-only statement such as
    /// `CHECKPOINT` was issued against an in-memory session).
    Durability(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Compile(e) => write!(f, "{e}"),
            SqlError::Analysis { at, message } => {
                write!(f, "analysis error at byte {at}: {message}")
            }
            SqlError::Eval(e) => write!(f, "{e}"),
            SqlError::Decode(what) => write!(f, "decode failure: {what}"),
            SqlError::NoAverage { count: 0, .. } => f.write_str("AVG over no rows"),
            SqlError::NoAverage { sum, count } => {
                write!(f, "AVG of {count} rows summing to {sum} is not an integer")
            }
            SqlError::Update(e) => write!(f, "{e}"),
            SqlError::Durability(what) => write!(f, "durability error: {what}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// A query result: the result bag, validated against its output columns
/// by [`decode_result`]. Every row is a tuple of `columns.len()` cells
/// that decode (see [`crate::catalog::decode_value`]), with a
/// multiplicity that fits a `u64`, so bag semantics stays visible: each
/// distinct row once, with its count. The reply writer
/// (`Display for Response::Rows`) reads the rows straight from the bag;
/// [`QueryResult::rows`] decodes them on request.
///
/// The derived equality compares `(columns, bag)`. Over the same columns
/// it is equality of the decoded rows: a bag is canonical (sorted, each
/// distinct element once), and decoding a validated cell is injective
/// per column kind — an atom maps to itself, `⟦[a]ⁿ⟧` to `n`, and an
/// `AVG` pair has already been replaced by its quotient.
///
/// Both fields are private: the bag is only sound to render against the
/// columns it was validated with.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryResult {
    columns: Arc<[Column]>,
    bag: Bag,
}

/// What [`decode_result`] checked, restated where the writer relies on it.
const VALIDATED: &str = "decode_result validated the bag against its columns";

impl QueryResult {
    /// The output columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Each distinct row's cells, borrowed from the bag, with its
    /// multiplicity, in row order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (impl Iterator<Item = Cell<'_>>, u64)> + '_ {
        self.bag.iter().map(|(row, mult)| {
            let fields = row.as_tuple().expect(VALIDATED);
            let cells = fields
                .iter()
                .zip(self.columns.iter())
                .map(|(value, column)| decode_cell(value, column.numeric).expect(VALIDATED));
            (cells, mult.to_u64().expect(VALIDATED))
        })
    }

    /// The decoded `(row, multiplicity)` pairs in row order.
    pub fn rows(&self) -> Vec<(Vec<SqlValue>, u64)> {
        self.cells()
            .map(|(cells, mult)| (cells.map(Cell::to_sql).collect(), mult))
            .collect()
    }

    /// Total number of rows counting duplicates. Exact: each multiplicity
    /// fits a `u64`, so the sum over any bag fits a `u128`.
    pub fn total_rows(&self) -> u128 {
        self.cells().map(|(_, mult)| u128::from(mult)).sum()
    }

    /// The single scalar of an aggregate result.
    pub fn scalar(&self) -> Option<i64> {
        let mut rows = self.cells();
        match (rows.next(), rows.next()) {
            (Some((mut cells, 1)), None) => match (cells.next(), cells.next()) {
                (Some(Cell::Int(v)), None) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Parse, compile, evaluate, and decode a query in one call.
pub fn run_query(
    sql: &str,
    catalog: &Catalog,
    db: &Database,
    limits: Limits,
) -> Result<QueryResult, SqlError> {
    let parsed = parse(sql).map_err(SqlError::Parse)?;
    let compiled = compile_query(&parsed, catalog).map_err(SqlError::Compile)?;
    compiled.evaluate(db, limits)
}

/// Shorthand for [`run_query`] with default limits.
pub fn run(sql: &str, catalog: &Catalog, db: &Database) -> Result<QueryResult, SqlError> {
    run_query(sql, catalog, db, Limits::default())
}

/// As [`run`], but pass the compiled expression through the
/// [`balg_core::rewrite`] optimizer first (selection pushdown, MAP
/// fusion, …). Results are identical; intermediate bags are smaller.
pub fn run_optimized(sql: &str, catalog: &Catalog, db: &Database) -> Result<QueryResult, SqlError> {
    let parsed = parse(sql).map_err(SqlError::Parse)?;
    let mut compiled = compile_query(&parsed, catalog).map_err(SqlError::Compile)?;
    compiled.expr = balg_core::rewrite::optimize(&compiled.expr, &catalog.to_schema());
    compiled.evaluate(db, Limits::default())
}

/// Compile a `CREATE VIEW` query and have the static analyzer certify
/// what the compiler built: a shape error here means the SQL→BALG
/// translation itself is broken, and the view must not register. No cost
/// gate — compiled aggregates legitimately use the Section 3
/// powerset-guess, bounded at runtime by the evaluator's budgets.
pub(crate) fn compile_view(query: &Query, catalog: &Catalog) -> Result<CompiledQuery, SqlError> {
    let compiled = compile_query(query, catalog).map_err(SqlError::Compile)?;
    balg_core::analyze::analyze(&compiled.expr, &catalog.to_schema()).map_err(|e| {
        SqlError::Analysis {
            at: 0,
            message: format!("compiled view failed analysis: {e}"),
        }
    })?;
    Ok(compiled)
}

/// Validate a result bag against an output row shape and keep it as a
/// [`QueryResult`]. One pass, no allocation on success: the first
/// failure is, per row in bag order, a row that is not a tuple, the wrong
/// arity, a cell that does not decode, then a multiplicity over `u64`.
/// Only a bag with `AVG` cells is copied: rebuilt with each cell's
/// quotient, so that rows with equal averages are one row.
/// Public so external runtimes (the `balg-server` snapshot read path) can
/// check pinned view bags exactly the way [`CompiledQuery::evaluate`]
/// checks one-shot results. Pass the columns as the `Arc` their owner
/// holds and the result shares them instead of copying.
pub fn decode_result(bag: &Bag, output: impl Into<Arc<[Column]>>) -> Result<QueryResult, SqlError> {
    let output = output.into();
    let mut averages = false;
    for (row, mult) in bag.iter() {
        let fields = row
            .as_tuple()
            .ok_or_else(|| SqlError::Decode(row.to_string()))?;
        if fields.len() != output.len() {
            return Err(SqlError::Decode(format!(
                "row arity {} vs output arity {}",
                fields.len(),
                output.len()
            )));
        }
        for (value, column) in fields.iter().zip(output.iter()) {
            if decode_cell(value, column.numeric).is_some() {
                continue;
            }
            // Else an `AVG` cell, whose quotient must decode.
            match average_parts(value).filter(|_| column.numeric) {
                Some((sum, count)) if count == 0 || sum % count != 0 => {
                    return Err(SqlError::NoAverage { sum, count })
                }
                Some((sum, count)) if i64::try_from(sum / count).is_ok() => averages = true,
                _ => return Err(SqlError::Decode(value.to_string())),
            }
        }
        if mult.to_u64().is_none() {
            return Err(SqlError::Decode("multiplicity over u64".into()));
        }
    }
    let bag = if averages {
        let divided = divide_averages(bag);
        if divided.iter().any(|(_, mult)| mult.to_u64().is_none()) {
            return Err(SqlError::Decode("multiplicity over u64".into()));
        }
        divided
    } else {
        bag.clone()
    };
    Ok(QueryResult {
        columns: output,
        bag,
    })
}

/// A validated result bag with each `AVG` cell `[SUM, COUNT]` replaced by
/// its quotient `⟦[a]ⁿ⟧`, so that rows whose averages are equal are one
/// row, with their multiplicities added. Only an `AVG` cell is a tuple.
fn divide_averages(bag: &Bag) -> Bag {
    let mut rows = BagBuilder::with_capacity(bag.distinct_count());
    for (row, mult) in bag.iter() {
        let cells = row
            .as_tuple()
            .expect(VALIDATED)
            .iter()
            .map(|cell| match average_parts(cell) {
                Some((sum, count)) => int_value(sum / count),
                None => cell.clone(),
            });
        rows.push(Value::Tuple(cells.collect()), mult.clone());
    }
    rows.build()
}

/// Build a database by loading rows into catalog tables.
pub fn database_from_rows(
    catalog: &Catalog,
    data: &[(&str, Vec<Vec<SqlValue>>)],
) -> Result<Database, SqlError> {
    let mut db = Database::new();
    for (table_name, rows) in data {
        let table = catalog
            .get(table_name)
            .ok_or_else(|| SqlError::Compile(CompileError::UnknownTable((*table_name).into())))?;
        let bag =
            crate::catalog::load_table(table, rows).map_err(|e| SqlError::Decode(e.to_string()))?;
        db.insert(table_name, bag);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, Database) {
        let catalog = Catalog::new()
            .with_table(
                "orders",
                &[("customer", false), ("item", false), ("qty", true)],
            )
            .with_table("vip", &[("customer", false)]);
        let s = |x: &str| SqlValue::Str(x.into());
        let i = SqlValue::Int;
        let db = database_from_rows(
            &catalog,
            &[
                (
                    "orders",
                    vec![
                        vec![s("ann"), s("apple"), i(3)],
                        vec![s("ann"), s("apple"), i(3)], // duplicate row!
                        vec![s("bob"), s("pear"), i(5)],
                        vec![s("bob"), s("apple"), i(1)],
                    ],
                ),
                ("vip", vec![vec![s("ann")]]),
            ],
        )
        .unwrap();
        (catalog, db)
    }

    #[test]
    fn select_keeps_duplicates() {
        let (catalog, db) = setup();
        let result = run("SELECT customer FROM orders", &catalog, &db).unwrap();
        assert_eq!(result.total_rows(), 4);
        // ann appears twice via the duplicate row.
        let ann = result
            .rows()
            .into_iter()
            .find(|(row, _)| row[0] == SqlValue::Str("ann".into()))
            .unwrap();
        assert_eq!(ann.1, 2);
    }

    #[test]
    fn distinct_is_epsilon() {
        let (catalog, db) = setup();
        let result = run("SELECT DISTINCT customer FROM orders", &catalog, &db).unwrap();
        assert_eq!(result.total_rows(), 2);
        assert!(result.rows().iter().all(|(_, m)| *m == 1));
    }

    #[test]
    fn join_with_alias() {
        let (catalog, db) = setup();
        let result = run(
            "SELECT o.item FROM orders o, vip v WHERE o.customer = v.customer",
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(result.total_rows(), 2); // ann's duplicated apple rows
    }

    #[test]
    fn where_on_numeric_column() {
        let (catalog, db) = setup();
        let result = run("SELECT customer FROM orders WHERE qty >= 3", &catalog, &db).unwrap();
        assert_eq!(result.total_rows(), 3); // ann×2 (qty 3) + bob (qty 5)
    }

    #[test]
    fn count_star_counts_duplicates() {
        let (catalog, db) = setup();
        let result = run("SELECT COUNT(*) FROM orders", &catalog, &db).unwrap();
        assert_eq!(result.scalar(), Some(4));
        let distinct = run("SELECT COUNT(DISTINCT customer) FROM orders", &catalog, &db).unwrap();
        assert_eq!(distinct.scalar(), Some(2));
    }

    #[test]
    fn sum_and_avg() {
        let (catalog, db) = setup();
        let sum = run("SELECT SUM(qty) FROM orders", &catalog, &db).unwrap();
        assert_eq!(sum.scalar(), Some(3 + 3 + 5 + 1));
        let avg = run("SELECT AVG(qty) FROM orders", &catalog, &db).unwrap();
        assert_eq!(avg.scalar(), Some(3)); // (3+3+5+1)/4
    }

    /// `AVG` over `values` in a one-column numeric table.
    fn avg_of(values: &[i64]) -> Result<QueryResult, SqlError> {
        let catalog = Catalog::new().with_table("t", &[("n", true)]);
        let rows = values.iter().map(|&v| vec![SqlValue::Int(v)]).collect();
        let db = database_from_rows(&catalog, &[("t", rows)]).unwrap();
        run("SELECT AVG(n) FROM t", &catalog, &db)
    }

    #[test]
    fn avg_is_an_integer_or_an_error() {
        // 10/4 has no integral value: an error, never a silent 0.
        let err = avg_of(&[1, 2, 3, 4]).unwrap_err();
        assert!(
            matches!(err, SqlError::NoAverage { sum: 10, count: 4 }),
            "{err:?}"
        );
        let err = avg_of(&[]).unwrap_err();
        assert!(
            matches!(err, SqlError::NoAverage { sum: 0, count: 0 }),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "AVG over no rows");
        // O(rows), not O(Σ values): the powerset guess predicted 2 000 001
        // subbags here and failed with `TooLarge`.
        let avg = avg_of(&[1_000_000, 1_000_000]).unwrap();
        assert_eq!(avg.scalar(), Some(1_000_000));
    }

    #[test]
    fn set_operations() {
        let (catalog, db) = setup();
        let union_all = run(
            "SELECT customer FROM orders UNION ALL SELECT customer FROM vip",
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(union_all.total_rows(), 5);
        let except_all = run(
            "SELECT customer FROM orders EXCEPT ALL SELECT customer FROM vip",
            &catalog,
            &db,
        )
        .unwrap();
        // ann²−ann¹ = ann¹, bob² stays: 3 rows.
        assert_eq!(except_all.total_rows(), 3);
        let intersect = run(
            "SELECT customer FROM orders INTERSECT SELECT customer FROM vip",
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(intersect.total_rows(), 1);
    }

    #[test]
    fn group_by_with_aggregates() {
        let (catalog, db) = setup();
        // SUM per customer: ann has the duplicated (apple,3) rows.
        let result = run(
            "SELECT customer, SUM(qty) FROM orders GROUP BY customer",
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(result.rows().len(), 2);
        let find = |name: &str| {
            result
                .rows()
                .into_iter()
                .find(|(row, _)| row[0] == SqlValue::Str(name.into()))
                .map(|(row, _)| row[1].clone())
        };
        assert_eq!(find("ann"), Some(SqlValue::Int(6))); // 3 + 3
        assert_eq!(find("bob"), Some(SqlValue::Int(6))); // 5 + 1

        let counts = run(
            "SELECT customer, COUNT(*) FROM orders GROUP BY customer",
            &catalog,
            &db,
        )
        .unwrap();
        let find = |name: &str| {
            counts
                .rows()
                .into_iter()
                .find(|(row, _)| row[0] == SqlValue::Str(name.into()))
                .map(|(row, _)| row[1].clone())
        };
        assert_eq!(find("ann"), Some(SqlValue::Int(2)));
        assert_eq!(find("bob"), Some(SqlValue::Int(2)));

        let avg = run(
            "SELECT customer, AVG(qty) FROM orders GROUP BY customer",
            &catalog,
            &db,
        )
        .unwrap();
        let find = |name: &str| {
            avg.rows()
                .into_iter()
                .find(|(row, _)| row[0] == SqlValue::Str(name.into()))
                .map(|(row, _)| row[1].clone())
        };
        assert_eq!(find("ann"), Some(SqlValue::Int(3)));
        assert_eq!(find("bob"), Some(SqlValue::Int(3)));

        // A group whose average is not an integer fails the whole read.
        let s = |x: &str| SqlValue::Str(x.into());
        let db = database_from_rows(
            &catalog,
            &[(
                "orders",
                vec![
                    vec![s("ann"), s("apple"), SqlValue::Int(1)],
                    vec![s("ann"), s("pear"), SqlValue::Int(2)],
                    vec![s("bob"), s("pear"), SqlValue::Int(4)],
                ],
            )],
        )
        .unwrap();
        let err = run(
            "SELECT customer, AVG(qty) FROM orders GROUP BY customer",
            &catalog,
            &db,
        )
        .unwrap_err();
        assert!(
            matches!(err, SqlError::NoAverage { sum: 3, count: 2 }),
            "{err:?}"
        );
    }

    /// Equal averages have many `[SUM, COUNT]` cells, so an `AVG` branch of
    /// a set operation, and `DISTINCT` over groups that share their
    /// selected keys, are compile errors; such groups otherwise come out
    /// as one row per average.
    #[test]
    fn averages_are_compared_by_value_or_not_at_all() {
        let catalog = Catalog::new()
            .with_table("a", &[("n", true)])
            .with_table("b", &[("n", true)])
            .with_table("t", &[("g", false), ("h", false), ("n", true)]);
        let s = |x: &str| SqlValue::Str(x.into());
        let i = SqlValue::Int;
        let db = database_from_rows(
            &catalog,
            &[
                ("a", vec![vec![i(2)]]),             // [2, 1]
                ("b", vec![vec![i(1)], vec![i(3)]]), // [4, 2]
                (
                    "t",
                    vec![
                        vec![s("x"), s("p"), i(2)],
                        vec![s("x"), s("q"), i(1)],
                        vec![s("x"), s("q"), i(3)],
                    ],
                ),
            ],
        )
        .unwrap();
        for sql in [
            "SELECT AVG(n) FROM a UNION SELECT AVG(n) FROM b",
            "SELECT AVG(n) FROM a UNION ALL SELECT AVG(n) FROM b",
            "SELECT AVG(n) FROM a INTERSECT SELECT SUM(n) FROM a",
            "SELECT SUM(n) FROM a EXCEPT SELECT AVG(n) FROM b",
            "SELECT n FROM a EXCEPT ALL SELECT AVG(n) FROM b",
            "SELECT DISTINCT g, AVG(n) FROM t GROUP BY g, h",
        ] {
            let err = run(sql, &catalog, &db).unwrap_err();
            assert!(
                matches!(err, SqlError::Compile(CompileError::AverageCompared(_))),
                "{sql}: {err:?}"
            );
        }
        // Groups (x, p) and (x, q) average 2 as [2, 1] and as [4, 2].
        let grouped = run("SELECT g, AVG(n) FROM t GROUP BY g, h", &catalog, &db).unwrap();
        assert_eq!(grouped.rows(), vec![(vec![s("x"), i(2)], 2)]);
        let keyed = "SELECT DISTINCT g, h, AVG(n) FROM t GROUP BY g, h";
        assert_eq!(run(keyed, &catalog, &db).unwrap().total_rows(), 2);
        let scalar = run("SELECT DISTINCT AVG(n) FROM b", &catalog, &db).unwrap();
        assert_eq!(scalar.scalar(), Some(2));
    }

    #[test]
    fn group_by_count_distinct_and_multi_key() {
        let (catalog, db) = setup();
        let result = run(
            "SELECT customer, COUNT(DISTINCT item) FROM orders GROUP BY customer",
            &catalog,
            &db,
        )
        .unwrap();
        let find = |name: &str| {
            result
                .rows()
                .into_iter()
                .find(|(row, _)| row[0] == SqlValue::Str(name.into()))
                .map(|(row, _)| row[1].clone())
        };
        assert_eq!(find("ann"), Some(SqlValue::Int(1))); // apple only
        assert_eq!(find("bob"), Some(SqlValue::Int(2))); // pear + apple

        // Two grouping keys.
        let pairs = run(
            "SELECT customer, item, COUNT(*) FROM orders GROUP BY customer, item",
            &catalog,
            &db,
        )
        .unwrap();
        assert_eq!(pairs.rows().len(), 3); // (ann,apple), (bob,pear), (bob,apple)
    }

    #[test]
    fn group_by_errors() {
        let (catalog, db) = setup();
        assert!(matches!(
            run(
                "SELECT item, SUM(qty) FROM orders GROUP BY customer",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::GroupProjectionMismatch(_)))
        ));
        assert!(matches!(
            run("SELECT customer, SUM(qty) FROM orders", &catalog, &db),
            Err(SqlError::Compile(CompileError::GroupProjectionMismatch(_)))
        ));
        assert!(matches!(
            run(
                "SELECT customer, COUNT(DISTINCT customer) FROM orders GROUP BY customer",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::AggregateOnGroupColumn(_)))
        ));
        assert!(matches!(
            run(
                "SELECT customer, SUM(item) FROM orders GROUP BY customer",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::NonNumericAggregate(_)))
        ));
    }

    #[test]
    fn errors_surface() {
        let (catalog, db) = setup();
        assert!(matches!(
            run("SELECT nope FROM orders", &catalog, &db),
            Err(SqlError::Compile(CompileError::UnknownColumn(_)))
        ));
        assert!(matches!(
            run("SELECT customer FROM missing", &catalog, &db),
            Err(SqlError::Compile(CompileError::UnknownTable(_)))
        ));
        assert!(matches!(
            run("SELECT SUM(customer) FROM orders", &catalog, &db),
            Err(SqlError::Compile(CompileError::NonNumericAggregate(_)))
        ));
        assert!(matches!(
            run(
                "SELECT customer FROM orders, orders WHERE qty = 1",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::DuplicateAlias(_)))
        ));
        assert!(matches!(
            run(
                "SELECT customer FROM orders o, orders p WHERE qty = 1",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::AmbiguousColumn(_)))
        ));
        assert!(matches!(
            run(
                "SELECT customer FROM orders UNION ALL SELECT COUNT(*) FROM vip",
                &catalog,
                &db
            ),
            Err(SqlError::Compile(CompileError::ShapeMismatch))
        ));
    }

    #[test]
    fn compiled_queries_are_balg1_without_aggregates() {
        use balg_core::analyze::analyze;
        use balg_core::schema::Schema;
        use balg_core::types::Type;
        let (catalog, _) = setup();
        let parsed = parse("SELECT DISTINCT customer FROM orders WHERE item = 'apple'").unwrap();
        let compiled = compile_query(&parsed, &catalog).unwrap();
        // Schema: orders has a bag-typed numeric column, so the relation
        // type is [U, U, ⟦[U]⟧] — nesting 1 within a tuple, hence level 2
        // by the strict BALG¹ typing discipline. With purely symbolic
        // columns it would be level 1; check it is at most 2 and core.
        let orders_ty = Type::bag(Type::Tuple(vec![
            Type::Atom,
            Type::Atom,
            Type::bag(Type::atom_tuple(1)),
        ]));
        let schema = Schema::new().with("orders", orders_ty);
        let analysis = analyze(&compiled.expr, &schema).unwrap();
        assert!(analysis.is_core_balg());
        assert!(analysis.balg_level() <= 2);
    }
}
