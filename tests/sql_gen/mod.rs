//! The random join-query generator: conjunctive `WHERE` clauses over two
//! or three small tables with duplicate rows. `tests/sql_differential.rs`
//! checks the planned lowering of each query against the naive one, and
//! `crates/server/tests/statement_cache.rs` replays each query through the
//! statement cache.

use balg_core::derived::int_lit;
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_sql::prelude::{database_from_rows, Catalog, SqlValue};
use proptest::collection::vec;
use proptest::prelude::*;

/// Rows of `a`, `b` and `c`, whether `c` joins, and the conjuncts as
/// `(left, right, op, literal)` draws for [`comparison`].
pub type Case = (
    Vec<(u8, u8)>,
    Vec<(u8, u8)>,
    Vec<(u8, u8)>,
    bool,
    Vec<(usize, usize, usize, u8)>,
);

/// The strategy for one [`Case`].
pub fn case() -> impl Strategy<Value = Case> {
    (
        vec((0u8..3, 0u8..3), 0..6),
        vec((0u8..3, 0u8..3), 0..6),
        vec((0u8..3, 0u8..3), 0..6),
        any::<bool>(),
        vec((0usize..6, 0usize..8, 0usize..6, 0u8..3), 0..5),
    )
}

/// The tables: `a(s, n)`, `b(s, n)`, `c(n, s)` — six scope columns, `n`
/// numeric. `true` marks the numeric ones.
const COLUMNS: [(&str, bool); 6] = [
    ("a.s", false),
    ("a.n", true),
    ("b.s", false),
    ("b.n", true),
    ("c.n", true),
    ("c.s", false),
];
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

pub fn catalog() -> Catalog {
    Catalog::new()
        .with_table("a", &[("s", false), ("n", true)])
        .with_table("b", &[("s", false), ("n", true)])
        .with_table("c", &[("n", true), ("s", false)])
}

/// The case's rows loaded into [`catalog`]'s tables.
pub fn database(case: &Case) -> Database {
    let (a, b, c, _, _) = case;
    let s = |v: u8| SqlValue::Str(format!("s{v}"));
    let n = |v: u8| SqlValue::Int(i64::from(v));
    database_from_rows(
        &catalog(),
        &[
            ("a", a.iter().map(|&(x, y)| vec![s(x), n(y)]).collect()),
            ("b", b.iter().map(|&(x, y)| vec![s(x), n(y)]).collect()),
            ("c", c.iter().map(|&(x, y)| vec![n(x), s(y)]).collect()),
        ],
    )
    .unwrap()
}

/// The case's query as SQL text, and its naive lowering: one `σ` of the
/// whole conjunction over the plain product chain.
pub fn query(case: &Case) -> (String, Expr) {
    let (_, _, _, three_tables, conjuncts) = case;
    let (from, in_scope) = if *three_tables {
        ("a, b, c", 6)
    } else {
        ("a, b", 4)
    };
    let (texts, preds): (Vec<String>, Vec<Pred>) = conjuncts
        .iter()
        .map(|&(left, right, op, lit)| comparison(left, right, op, lit, in_scope))
        .unzip();
    let mut sql = format!("SELECT * FROM {from}");
    if !texts.is_empty() {
        sql = format!("{sql} WHERE {}", texts.join(" AND "));
    }
    let mut naive = Expr::var("a").product(Expr::var("b"));
    if *three_tables {
        naive = naive.product(Expr::var("c"));
    }
    if let Some(pred) = preds.into_iter().reduce(Pred::and) {
        naive = naive.select("r", pred);
    }
    (sql, naive)
}

fn attr(i: usize) -> Expr {
    Expr::var("r").attr(i)
}

/// One random comparison, as SQL text and as the predicate the naive
/// lowering gives it: column `left`, operator `op`, then column `right`
/// when it exists in scope and has the same kind, else the literal `lit`.
fn comparison(left: usize, right: usize, op: usize, lit: u8, in_scope: usize) -> (String, Pred) {
    let left = left % in_scope;
    let numeric = COLUMNS[left].1;
    let (rhs_sql, rhs) = if right < in_scope && COLUMNS[right].1 == numeric {
        (COLUMNS[right].0.to_owned(), attr(right + 1))
    } else if numeric {
        (lit.to_string(), int_lit(u64::from(lit)))
    } else {
        (
            format!("'s{lit}'"),
            Expr::lit(Value::sym(&format!("s{lit}"))),
        )
    };
    let lhs = attr(left + 1);
    let pred = match OPS[op] {
        "=" => Pred::eq(lhs, rhs),
        "<>" => Pred::eq(lhs, rhs).not(),
        "<" => Pred::lt(lhs, rhs),
        "<=" => Pred::le(lhs, rhs),
        ">" => Pred::lt(rhs, lhs),
        _ => Pred::le(rhs, lhs),
    };
    (format!("{} {} {rhs_sql}", COLUMNS[left].0, OPS[op]), pred)
}
