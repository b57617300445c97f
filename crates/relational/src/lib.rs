//! # balg-relational — the nested relational algebra RALG
//!
//! The set-semantics baseline the paper measures BALG against: nested
//! relations, the RALG operator set of \[AB87\]/\[HS91\], a direct
//! evaluator that serves as the reference (one node at a time, no fast
//! paths — a fast RALG query is its BALG embedding, optimized), and the
//! Proposition 4.2 translations showing
//! `BALG¹₋₋ ≡ RALG₋₋` over sets (and that the equivalence *breaks* once
//! bag subtraction enters — Example 4.1 / Proposition 4.3, experiment E7).
//!
//! ```
//! use balg_core::prelude::*;
//! use balg_relational::prelude::*;
//!
//! // A graph with duplicate edges: RALG sees it as a set.
//! let mut g = Bag::new();
//! g.insert_with_multiplicity(
//!     Value::tuple([Value::sym("a"), Value::sym("b")]),
//!     Natural::from(3u64),
//! );
//! let db = Database::new().with("G", g);
//! let rel = ralg_eval_relation(&RalgExpr::var("G"), &db).unwrap();
//! assert_eq!(rel.len(), 1); // duplicates invisible to set semantics
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod expr;
pub mod relation;
pub mod translate;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::eval::{eval as ralg_eval, eval_relation as ralg_eval_relation, RalgEvaluator};
    pub use crate::expr::{RalgExpr, RalgPred};
    pub use crate::relation::{deep_dedup, is_set_value, Relation};
    pub use crate::translate::{
        balg1_to_ralg, check_prop_4_2, dedup_database, ralg_to_balg, TranslateError,
    };
}

pub use prelude::*;
