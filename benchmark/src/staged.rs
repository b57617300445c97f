//! The traced run's replacement for each top-level call: the chain of
//! public stage calls that call is made of, one span per stage. A staged
//! reply must be byte-equal to the top-level reply for the same line; the
//! workloads check that for every op, so the chain cannot drift from
//! what `execute_read` / `execute_write` really do.
//!
//! Two stages are measured beside the chain rather than inside it,
//! because the program does them inside a larger public call:
//! `sql.lexer.tokenize` (again inside `parse_statement`) and, on durable
//! runtimes, `incremental.runtime.validate` and
//! `incremental.durable.encode` (again inside `commit`). Their spans are
//! the cost of that stage alone; the enclosing stage's span includes it.

use balg_core::eval::Evaluator;
use balg_core::value::Value;
use balg_core::wal::frame;
use balg_core::zbag::{ZBagBuilder, ZInt};
use balg_incremental::{UpdateBatch, WalRecord};
use balg_server::{route, Reply, Snapshot};
use balg_sql::prelude::{
    compile_query, decode_result, encode_value, parse_statement, tokenize_with_positions, Response,
    SqlRuntime, SqlValue, Statement,
};

use crate::span::Tracer;

/// `execute_read(snap, line)` as stages. Handles what the workloads send:
/// queries, `:rows NAME` and `:seq`.
pub fn read(tr: &mut Tracer, op: usize, snap: &Snapshot, line: &str) -> Reply {
    tr.enter("op", op);
    tr.span("server.exec.route", op, || route(line));
    let reply = read_stages(tr, op, snap, line.trim());
    tr.exit();
    reply
}

fn read_stages(tr: &mut Tracer, op: usize, snap: &Snapshot, line: &str) -> Reply {
    if line == ":seq" {
        return tr.span("sql.stmt.render", op, || Reply::ok(snap.seq.to_string()));
    }
    let result = if let Some(name) = line.strip_prefix(":rows") {
        let Some((bag, columns)) = snap.views.get(name.trim()) else {
            return Reply::err(format!("unknown view {}", name.trim()));
        };
        tr.span("sql.compile.decode", op, || {
            decode_result(bag, columns.clone())
        })
    } else {
        let _ = tr.span("sql.lexer.tokenize", op, || tokenize_with_positions(line));
        let query = match tr.span("sql.parser.parse", op, || parse_statement(line)) {
            Ok(Statement::Query(query)) => query,
            Ok(_) => return Reply::err("update statements must go through the writer"),
            Err(e) => return Reply::err(e.to_string()),
        };
        let compiled = match tr.span("sql.compile.compile", op, || {
            compile_query(&query, &snap.catalog)
        }) {
            Ok(compiled) => compiled,
            Err(e) => return Reply::err(e.to_string()),
        };
        let bag = tr.span("core.eval.eval", op, || {
            let mut evaluator = Evaluator::new(&snap.db, snap.limits.clone());
            if let Some(chunks) = snap.parallel_chunks {
                evaluator.set_parallel_threads(chunks);
            }
            evaluator.eval_bag(&compiled.expr)
        });
        let bag = match bag {
            Ok(bag) => bag,
            Err(e) => return Reply::err(e.to_string()),
        };
        tr.span("sql.compile.decode", op, || {
            decode_result(&bag, compiled.output)
        })
    };
    match result {
        Ok(rows) => tr.span("sql.stmt.render", op, || {
            Reply::ok(Response::Rows(rows).to_string())
        }),
        Err(e) => Reply::err(e.to_string()),
    }
}

/// A parsed `INSERT`/`DELETE … VALUES`: `(table, rows, is_delete)`.
type ParsedWrite = (String, Vec<Vec<SqlValue>>, bool);

fn parse_write(line: &str) -> Result<ParsedWrite, String> {
    match parse_statement(line).map_err(|e| e.to_string())? {
        Statement::Insert { table, rows } => Ok((table, rows, false)),
        Statement::Delete { table, rows } => Ok((table, rows, true)),
        other => Err(format!("not a staged write: {other:?}")),
    }
}

/// The update batch `SqlRuntime::execute` builds for these rows.
fn encode_rows(
    rt: &SqlRuntime,
    table: &str,
    rows: &[Vec<SqlValue>],
    delete: bool,
) -> Result<UpdateBatch, String> {
    let columns = &rt
        .catalog()
        .get(table)
        .ok_or_else(|| format!("unknown table {table}"))?
        .columns;
    let sign = if delete { ZInt::neg_one() } else { ZInt::one() };
    let mut builder = ZBagBuilder::new();
    for row in rows {
        if row.len() != columns.len() {
            return Err(format!(
                "row arity {} vs table arity {}",
                row.len(),
                columns.len()
            ));
        }
        let fields = row
            .iter()
            .zip(columns)
            .map(|(value, column)| encode_value(value, column.numeric).map_err(|e| e.to_string()))
            .collect::<Result<Vec<Value>, String>>()?;
        builder.push(Value::Tuple(fields.into()), sign.clone());
    }
    let mut batch = UpdateBatch::new();
    batch.merge_delta(table, &builder.build());
    Ok(batch)
}

/// `execute_write(rt, line)` as stages, for single-table `INSERT`/`DELETE
/// … VALUES` statements. On a durable runtime the caller has switched
/// `sync_on_commit` off, so the fsync is its own stage, as it is in the
/// server's writer loop.
pub fn write(tr: &mut Tracer, op: usize, rt: &mut SqlRuntime, line: &str) -> Reply {
    tr.enter("op", op);
    tr.span("server.exec.route", op, || route(line));
    let reply = match write_stages(tr, op, rt, line.trim()) {
        Ok(response) => Reply::ok(response.to_string()),
        Err(text) => Reply::err(text),
    };
    tr.exit();
    reply
}

fn write_stages(
    tr: &mut Tracer,
    op: usize,
    rt: &mut SqlRuntime,
    line: &str,
) -> Result<Response, String> {
    let (table, rows, delete) = tr.span("sql.parser.parse_insert", op, || parse_write(line))?;
    let batch = tr.span("sql.catalog.encode_rows", op, || {
        encode_rows(rt, &table, &rows, delete)
    })?;
    let count = rows.len() as u64;
    let (inserted, deleted) = if delete { (0, count) } else { (count, 0) };
    tr.span("incremental.runtime.validate", op, || {
        rt.runtime().validate(&batch)
    })
    .map_err(|e| e.to_string())?;
    match rt.durability() {
        None => tr
            .span("incremental.runtime.apply", op, || {
                rt.backend_mut().apply(&batch)
            })
            .map_err(|e| e.to_string())?,
        Some(durability) => {
            tr.span("incremental.durable.encode", op, || {
                let deltas = batch
                    .iter()
                    .map(|(name, delta)| (name.clone(), delta.clone()))
                    .collect();
                let record = WalRecord::Batch {
                    lsn: durability.lsn + 1,
                    deltas,
                };
                std::hint::black_box(frame(&record.encode()));
            });
            tr.span("incremental.durable.commit", op, || {
                rt.backend_mut().apply(&batch)
            })
            .map_err(|e| e.to_string())?;
            tr.span("incremental.durable.sync_wal", op, || {
                rt.backend_mut().sync_wal()
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(Response::Applied {
        table,
        inserted,
        deleted,
    })
}

/// The update batch of a write statement, outside any span: what the
/// memory twin of `update_stream` applies, to time `ViewRuntime::apply`
/// on the very batches the durable runtime commits.
pub fn batch_of(rt: &SqlRuntime, line: &str) -> Result<UpdateBatch, String> {
    let (table, rows, delete) = parse_write(line.trim())?;
    encode_rows(rt, &table, &rows, delete)
}
