//! # balg-core — the nested bag algebra of Grumbach & Milo
//!
//! A from-scratch implementation of the **BALG** algebra from
//! *"Towards Tractable Algebras for Bags"* (PODS 1993; JCSS 52(3), 1996):
//! complex objects built from atoms with tuple and bag constructors, the
//! full operator set of Section 3, and the structural analyses (bag
//! nesting, power nesting) that the paper's expressiveness hierarchy is
//! phrased in.
//!
//! ## Quick tour
//!
//! ```
//! use balg_core::prelude::*;
//!
//! // A bag database: a graph with a duplicated edge.
//! let g = Bag::from_values([
//!     Value::tuple([Value::sym("a"), Value::sym("b")]),
//!     Value::tuple([Value::sym("a"), Value::sym("b")]),
//!     Value::tuple([Value::sym("b"), Value::sym("c")]),
//! ]);
//! let db = Database::new().with("G", g);
//!
//! // π₂,₁(G): reverse the edges — duplicates survive (bag semantics).
//! let q = Expr::var("G").project(&[2, 1]);
//! let out = eval_bag(&q, &db).unwrap();
//! assert_eq!(
//!     out.multiplicity(&Value::tuple([Value::sym("b"), Value::sym("a")])),
//!     2u64.into()
//! );
//!
//! // The static analyzer places the query in BALG¹.
//! let schema = Schema::new().with("G", Type::relation(2));
//! let facts = analyze(&q, &schema).unwrap();
//! assert_eq!(facts.balg_level(), 1);
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`natural`] | arbitrary-precision multiplicities |
//! | [`types`]   | the type system; bag nesting |
//! | [`value`]   | atoms, tuples, bags as values; standard encoding size |
//! | [`bag`]     | the counted bag representation and all primitive operators |
//! | [`expr`]    | the BALG expression AST with first-class λ |
//! | [`mod@analyze`] | the one static pass: type inference, fragment (BALGᵏᵢ), set-ness & linearity certificates, tractability class |
//! | [`mod@eval`] | resource-limited evaluation with metrics |
//! | [`index`]   | per-key join indexes and their representation-keyed cache |
//! | [`join`]    | the equi-join kernel: classify, index probe, reference scan — every engine's fused `σ_{αᵢ=αⱼ}(×)` is an adapter over it |
//! | [`pool`]    | the inert partition count (`1`): every kernel is serial |
//! | [`derived`] | aggregates, cardinality quantifiers, Prop 3.1 identities |
//! | [`rewrite`] | multiplicity-exact optimization rules (σ pushdown, ε/MAP fusion) |
//! | [`schema`]  | bag databases, schemas, isomorphism (genericity) |
//! | [`zbag`]    | signed-multiplicity ℤ-bags — the delta objects of incremental view maintenance |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod bag;
pub mod derived;
pub mod eval;
pub mod expr;
pub mod index;
pub mod join;
pub mod natural;
pub mod parse;
pub mod pool;
pub mod profile;
pub mod rewrite;
pub mod schema;
pub mod types;
pub mod value;
pub mod wal;
pub mod zbag;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::analyze::{
        analyze, base_linearity, certified_duplicate_free, infer_type, lambda_affected,
        render_report, AnalyzeError, CostClass, Facts, Linearity, TypeError,
    };
    pub use crate::bag::{Bag, BagError};
    pub use crate::eval::{
        eval, eval_bag, eval_with_metrics, EvalError, Evaluator, Limits, Metrics,
    };
    pub use crate::expr::{Expr, Pred, Var};
    pub use crate::index::{BagIndex, IndexCache};
    pub use crate::natural::Natural;
    pub use crate::parse::{parse_expr, ExprParseError};
    pub use crate::rewrite::optimize;
    pub use crate::schema::{Database, Schema};
    pub use crate::types::Type;
    pub use crate::value::{Atom, Value};
    pub use crate::wal::{crc32, frame, frames, unframe, ByteReader, DecodeError, Unframed};
    pub use crate::zbag::{ZBag, ZBagBuilder, ZBagError, ZInt};
}

pub use prelude::*;
