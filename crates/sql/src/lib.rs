//! # balg-sql — a SQL frontend with honest bag semantics
//!
//! SQL engines implement *bag* semantics — the paper's opening motivation.
//! This crate parses a SQL subset (SELECT \[DISTINCT\] … FROM … WHERE
//! conjunctive comparisons; UNION/EXCEPT/INTERSECT with and without ALL;
//! scalar COUNT/SUM/AVG) and compiles it to BALG expressions evaluated by
//! `balg-core`. Duplicates behave exactly as in SQL because the target
//! algebra is a bag algebra; `DISTINCT` is the paper's `ε`; `SUM` and
//! `COUNT` are the Section 3 aggregate constructions over the integer-bag
//! encoding, and `AVG` is their quotient, an error unless it is an
//! integer. An `AVG` column cannot feed a set operation, whose rows the
//! algebra compares before the quotient is taken.
//!
//! ```
//! use balg_sql::prelude::*;
//!
//! let catalog = Catalog::new().with_table("t", &[("name", false), ("qty", true)]);
//! let db = database_from_rows(&catalog, &[(
//!     "t",
//!     vec![
//!         vec![SqlValue::Str("x".into()), SqlValue::Int(2)],
//!         vec![SqlValue::Str("x".into()), SqlValue::Int(2)],
//!     ],
//! )]).unwrap();
//! let result = run("SELECT SUM(qty) FROM t", &catalog, &db).unwrap();
//! assert_eq!(result.scalar(), Some(4)); // the duplicate row counts!
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod cache;
pub mod catalog;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod stmt;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::ast::{
        Aggregate, ColumnRef, CompareOp, Comparison, Operand, Projection, Query, SelectCore,
        TableRef,
    };
    pub use crate::cache::{Prepared, StatementCache};
    pub use crate::catalog::{
        decode_value, encode_value, load_table, Catalog, Column, LoadError, SqlValue, Table,
    };
    pub use crate::compile::{
        compile_query, database_from_rows, decode_result, run, run_optimized, run_query,
        CompileError, CompiledQuery, QueryResult, SqlError,
    };
    pub use crate::lexer::{tokenize, tokenize_with_positions, Keyword, LexError, Token};
    pub use crate::parser::{parse, ParseError};
    pub use crate::render::render;
    pub use crate::stmt::{parse_statement, Response, SqlRuntime, Statement};
}

pub use prelude::*;
