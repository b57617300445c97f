//! The statement cache: each SQL read is parsed and compiled once per
//! catalog.
//!
//! A compiled query is a function of its text and of the catalog it was
//! compiled against — [`compile_query`] reads no data, no budgets and no
//! views. A [`StatementCache`] is therefore tied to one catalog by
//! construction, not by a version checked at lookup:
//! [`SqlRuntime`](crate::stmt::SqlRuntime) swaps in a fresh cache in the
//! same assignment that changes its catalog, and a snapshot published
//! from the runtime carries the cache of the catalog it carries.
//!
//! Only a successful query compile is retained. Parse errors, compile
//! errors, updates, `CREATE VIEW` and `CHECKPOINT` are never cached, so
//! every error reply is built exactly as without the cache.
//!
//! The cache is bounded whatever a client sends: at most [`CAPACITY`]
//! entries, none larger than [`MAX_ENTRY_BYTES`], so its live heap stays
//! under [`BUDGET_BYTES`]. Once full it stops inserting; nothing is
//! evicted.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use balg_core::expr::{Expr, Pred};
use balg_obs::Counter;

use crate::catalog::{Catalog, Column};
use crate::compile::{compile_query, CompiledQuery, SqlError};
use crate::stmt::{parse_statement, Statement};

/// The most entries one cache holds. A point, range, `SUM` or `DISTINCT`
/// select over a three-column table holds 0.7–1 KiB (text, compiled
/// tree, output columns; counted by an allocator), so a full cache of
/// such reads is about half a megabyte.
pub const CAPACITY: usize = 512;

/// The largest entry the cache keeps, by an over-estimate of its heap:
/// the text, every node of the compiled tree with the names, literals
/// and predicate boxes it owns, the output columns, and the entry's
/// share of the table. The selects above count 1.0–1.6 KiB, a three-way
/// join with four conjuncts about 2.5 KiB; larger statements compile on
/// every request.
pub const MAX_ENTRY_BYTES: usize = 4096;

/// The most heap one cache holds: [`CAPACITY`] entries at
/// [`MAX_ENTRY_BYTES`] each.
pub const BUDGET_BYTES: usize = CAPACITY * MAX_ENTRY_BYTES;

/// Compiled queries by trimmed statement text, for one catalog.
#[derive(Debug, Default)]
pub struct StatementCache {
    /// Keyed by client text, so it keeps the default hasher's protection
    /// against crafted collisions.
    entries: RwLock<HashMap<Box<str>, Arc<CompiledQuery>>>,
}

/// What [`StatementCache::prepare`] makes of one statement.
#[derive(Debug)]
pub enum Prepared {
    /// A query, compiled (possibly by an earlier request).
    Query(Arc<CompiledQuery>),
    /// Any other statement, parsed; never cached.
    Other(Statement),
}

impl StatementCache {
    /// The number of cached statements.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the trimmed `text` is cached.
    pub fn contains(&self, text: &str) -> bool {
        self.lookup(text.trim()).is_some()
    }

    /// Parse and compile `text` against `catalog`, the catalog this cache
    /// belongs to, unless an earlier request already did. Every call
    /// counts one hit or one miss.
    pub fn prepare(&self, text: &str, catalog: &Catalog) -> Result<Prepared, SqlError> {
        let text = text.trim();
        if let Some(compiled) = self.lookup(text) {
            if let Some(obs) = obs() {
                obs.hits.inc();
            }
            return Ok(Prepared::Query(compiled));
        }
        if let Some(obs) = obs() {
            obs.misses.inc();
        }
        let query = match parse_statement(text).map_err(SqlError::Parse)? {
            Statement::Query(query) => query,
            other => return Ok(Prepared::Other(other)),
        };
        let compiled = Arc::new(compile_query(&query, catalog).map_err(SqlError::Compile)?);
        // A full cache costs a miss one length check, not a footprint.
        if self.len() < CAPACITY && footprint(text, &compiled) <= MAX_ENTRY_BYTES {
            // The table is valid at every instant a panic could strike,
            // so a poisoned lock is recovered rather than propagated.
            let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
            if entries.len() < CAPACITY {
                entries
                    .entry(text.into())
                    .or_insert_with(|| Arc::clone(&compiled));
            }
        }
        Ok(Prepared::Query(compiled))
    }

    fn lookup(&self, text: &str) -> Option<Arc<CompiledQuery>> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(text)
            .cloned()
    }
}

/// The fixed cost of one entry: its `Arc` allocation, and two table
/// slots for the key and the `Arc`, each with its control byte — a full
/// cache's table has twice as many buckets as entries.
const ENTRY_BYTES: usize =
    ARC_BYTES + size_of::<CompiledQuery>() + 2 * (size_of::<(Box<str>, Arc<CompiledQuery>)>() + 1);

/// An `Arc` allocation's two counts.
const ARC_BYTES: usize = 2 * size_of::<usize>();

/// The allocation behind an `Arc<str>` name: its counts, then the bytes
/// padded to the counts' alignment.
fn name_bytes(name: &str) -> usize {
    ARC_BYTES + name.len().next_multiple_of(size_of::<usize>())
}

/// The most a literal's value holds besides its text: a compiled integer
/// is a bag of one unit tuple (`derived::int_value`).
const LITERAL_BYTES: usize = 160;

/// An upper estimate of the heap one entry holds: its key, every node of
/// the compiled tree with the names, literals and predicate boxes it
/// owns, and the output columns.
fn footprint(text: &str, compiled: &CompiledQuery) -> usize {
    fn predicate_boxes(pred: &Pred) -> usize {
        1 + match pred {
            Pred::Not(inner) => predicate_boxes(inner),
            Pred::And(a, b) | Pred::Or(a, b) => predicate_boxes(a) + predicate_boxes(b),
            _ => 0,
        }
    }
    let mut bytes = ENTRY_BYTES + text.len();
    compiled.expr.visit(&mut |node| {
        bytes += size_of::<Expr>()
            + match node {
                Expr::Var(name) => name_bytes(name),
                Expr::Lit(value) => LITERAL_BYTES + value.to_string().len(),
                Expr::Map { var, .. } | Expr::Ifp { var, .. } => name_bytes(var),
                Expr::Select { var, pred, .. } => {
                    name_bytes(var) + predicate_boxes(pred) * size_of::<Pred>()
                }
                // The fields are nodes themselves; the vector's spare
                // capacity is not.
                Expr::Tuple(fields) => (fields.capacity() - fields.len()) * size_of::<Expr>(),
                Expr::Nest { group, .. } => group.capacity() * size_of::<usize>(),
                _ => 0,
            };
    });
    let names: usize = compiled.output.iter().map(|c| c.name.capacity()).sum();
    bytes + ARC_BYTES + compiled.output.len() * size_of::<Column>() + names
}

/// The cache's metric handles. The absent-registry answer is not cached:
/// a process that installs a registry later counts from then on.
struct CacheObs {
    hits: Counter,
    misses: Counter,
}

static OBS: OnceLock<CacheObs> = OnceLock::new();

fn obs() -> Option<&'static CacheObs> {
    if let Some(obs) = OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    Some(OBS.get_or_init(|| CacheObs {
        hits: registry.counter(
            "balg_sql_statement_cache_hits_total",
            "SQL statements answered from the statement cache",
        ),
        misses: registry.counter(
            "balg_sql_statement_cache_misses_total",
            "SQL statements parsed because the statement cache did not hold them",
        ),
    }))
}
