//! Abstract syntax for the SQL-bag subset.

use std::fmt;

/// A full query: a tree of set operations over SELECT cores.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// A plain SELECT block.
    Select(SelectCore),
    /// `q UNION ALL q′` — additive union `∪⁺`.
    UnionAll(Box<Query>, Box<Query>),
    /// `q UNION q′` — additive union followed by `ε`.
    Union(Box<Query>, Box<Query>),
    /// `q EXCEPT ALL q′` — bag subtraction `−` (monus on multiplicities).
    ExceptAll(Box<Query>, Box<Query>),
    /// `q EXCEPT q′` — set difference (`ε` then `−`).
    Except(Box<Query>, Box<Query>),
    /// `q INTERSECT ALL q′` — bag intersection `∩` (min of counts).
    IntersectAll(Box<Query>, Box<Query>),
    /// `q INTERSECT q′` — set intersection.
    Intersect(Box<Query>, Box<Query>),
}

/// One SELECT block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SelectCore {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// The projection (or a scalar aggregate).
    pub projection: Projection,
    /// FROM items (joined by Cartesian product).
    pub from: Vec<TableRef>,
    /// Conjunctive WHERE comparisons.
    pub predicates: Vec<Comparison>,
    /// GROUP BY columns (empty = no grouping).
    pub group_by: Vec<ColumnRef>,
}

/// The projected output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Projection {
    /// `*` — all columns of the FROM product, in order.
    Star,
    /// An explicit column list.
    Columns(Vec<ColumnRef>),
    /// A single scalar aggregate.
    Aggregate(Aggregate),
    /// Grouping columns followed by one aggregate (requires GROUP BY):
    /// `SELECT c₁, …, cₖ, AGG(col) FROM … GROUP BY c₁, …, cₖ`.
    GroupedAggregate(Vec<ColumnRef>, Aggregate),
}

/// A scalar aggregate call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(DISTINCT col)`.
    CountDistinct(ColumnRef),
    /// `SUM(col)` — requires a numeric (bag-encoded) column.
    Sum(ColumnRef),
    /// `AVG(col)` — requires a numeric column; an integral average, else
    /// [`crate::compile::SqlError::NoAverage`]. Never compared across rows
    /// ([`crate::compile::CompileError::AverageCompared`]).
    Avg(ColumnRef),
}

/// A table in FROM, with an optional alias.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRef {
    /// The catalog table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// A possibly-qualified column reference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnRef {
    /// Qualifier (alias), if written.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

/// One WHERE comparison.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Comparison {
    /// Left operand.
    pub left: Operand,
    /// Comparison operator.
    pub op: CompareOp,
    /// Right operand.
    pub right: Operand,
}

/// A comparison operator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A comparison operand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A column.
    Column(ColumnRef),
    /// An integer literal.
    Int(i64),
    /// A string literal.
    Str(String),
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

impl ColumnRef {
    /// An unqualified column.
    pub fn bare(column: &str) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            column: column.to_owned(),
        }
    }

    /// A qualified column.
    pub fn qualified(qualifier: &str, column: &str) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.to_owned()),
            column: column.to_owned(),
        }
    }
}
