//! Active-domain evaluation of CALC1 (the completion semantics of
//! Section 5).
//!
//! Quantified variables of type `T` range over `dom(T, A)` — every object
//! of type `T` built from the atoms of the input. Set-typed domains are
//! exponential (`2^|dom(T)|` subsets), so enumeration is budgeted; this is
//! the evaluation-cost asymmetry Theorem 5.2 turns into an expressiveness
//! gap.

use std::fmt;

use balg_core::bag::Bag;
use balg_core::schema::Database;
use balg_core::types::Type;
use balg_core::value::{Atom, Value};

use crate::ast::{CalcFormula, CalcTerm, CalcVar};

/// Errors from CALC1 evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalcError {
    /// A variable was used before being quantified.
    UnboundVariable(CalcVar),
    /// A relation name is not in the database.
    UnknownRelation(String),
    /// Component selection on a non-tuple or out of range.
    BadComponent(String),
    /// `∈`/`⊆` applied to a non-set right-hand side.
    NotASet(String),
    /// A quantifier domain would exceed the enumeration budget.
    DomainTooLarge {
        /// The type whose domain exploded.
        ty: Type,
        /// The budget.
        limit: u64,
    },
    /// `Unknown` type in a quantifier.
    UnknownType,
}

impl fmt::Display for CalcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            CalcError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            CalcError::BadComponent(t) => write!(f, "bad component selection on {t}"),
            CalcError::NotASet(t) => write!(f, "expected a set, got {t}"),
            CalcError::DomainTooLarge { ty, limit } => {
                write!(f, "domain of type {ty} exceeds budget {limit}")
            }
            CalcError::UnknownType => f.write_str("cannot quantify over an unknown type"),
        }
    }
}

impl std::error::Error for CalcError {}

/// Enumerate `dom(T, atoms)` — all objects of type `T` over the given
/// atoms — failing if more than `limit` objects would be produced.
pub fn enumerate_domain(ty: &Type, atoms: &[Atom], limit: u64) -> Result<Vec<Value>, CalcError> {
    let out = match ty {
        Type::Unknown => return Err(CalcError::UnknownType),
        Type::Atom => atoms.iter().cloned().map(Value::Atom).collect(),
        Type::Tuple(fields) => {
            let mut out: Vec<Vec<Value>> = vec![Vec::new()];
            for field in fields {
                let dom = enumerate_domain(field, atoms, limit)?;
                let mut next = Vec::with_capacity(out.len() * dom.len());
                for prefix in &out {
                    for value in &dom {
                        if next.len() as u64 > limit {
                            return Err(CalcError::DomainTooLarge {
                                ty: ty.clone(),
                                limit,
                            });
                        }
                        let mut tuple = prefix.clone();
                        tuple.push(value.clone());
                        next.push(tuple);
                    }
                }
                out = next;
            }
            out.into_iter()
                .map(|fields| Value::Tuple(fields.into()))
                .collect()
        }
        Type::Bag(elem) => {
            let dom = enumerate_domain(elem, atoms, limit)?;
            if dom.len() >= 63 || (1u64 << dom.len()) > limit {
                return Err(CalcError::DomainTooLarge {
                    ty: ty.clone(),
                    limit,
                });
            }
            let mut out = Vec::with_capacity(1 << dom.len());
            for mask in 0u64..(1 << dom.len()) {
                let subset = dom
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, v)| v.clone());
                out.push(Value::Bag(Bag::from_values(subset)));
            }
            out
        }
    };
    if out.len() as u64 > limit {
        return Err(CalcError::DomainTooLarge {
            ty: ty.clone(),
            limit,
        });
    }
    Ok(out)
}

/// A CALC1 evaluator over one database (viewed with set semantics).
pub struct CalcEvaluator<'a> {
    db: &'a Database,
    atoms: Vec<Atom>,
    domain_limit: u64,
    env: Vec<(CalcVar, Value)>,
}

impl<'a> CalcEvaluator<'a> {
    /// Create an evaluator; `domain_limit` bounds each quantifier domain.
    pub fn new(db: &'a Database, domain_limit: u64) -> Self {
        CalcEvaluator {
            db,
            atoms: db.active_domain().into_iter().collect(),
            domain_limit,
            env: Vec::new(),
        }
    }

    /// Evaluate a sentence (no free variables).
    pub fn eval(&mut self, formula: &CalcFormula) -> Result<bool, CalcError> {
        debug_assert!(self.env.is_empty());
        self.eval_inner(formula)
    }

    fn term(&self, term: &CalcTerm) -> Result<Value, CalcError> {
        match term {
            CalcTerm::Var(name) => self
                .env
                .iter()
                .rev()
                .find(|(bound, _)| bound == name)
                .map(|(_, value)| value.clone())
                .ok_or_else(|| CalcError::UnboundVariable(name.clone())),
            CalcTerm::Component(t, i) => {
                let value = self.term(t)?;
                match &value {
                    Value::Tuple(fields) => fields
                        .get(i.wrapping_sub(1))
                        .cloned()
                        .ok_or_else(|| CalcError::BadComponent(value.to_string())),
                    other => Err(CalcError::BadComponent(other.to_string())),
                }
            }
            CalcTerm::Rel(name) => self
                .db
                .get(name)
                .map(|bag| Value::Bag(bag.dedup()))
                .ok_or_else(|| CalcError::UnknownRelation(name.to_string())),
        }
    }

    fn eval_inner(&mut self, formula: &CalcFormula) -> Result<bool, CalcError> {
        match formula {
            CalcFormula::Eq(a, b) => Ok(self.term(a)? == self.term(b)?),
            CalcFormula::RelAtom(rel, args) => {
                let tuple = Value::Tuple(
                    args.iter()
                        .map(|t| self.term(t))
                        .collect::<Result<Vec<_>, _>>()?
                        .into(),
                );
                let bag = self
                    .db
                    .get(rel)
                    .ok_or_else(|| CalcError::UnknownRelation(rel.to_string()))?;
                Ok(bag.contains(&tuple))
            }
            CalcFormula::Member(a, b) => {
                let elem = self.term(a)?;
                match self.term(b)? {
                    Value::Bag(bag) => Ok(bag.contains(&elem)),
                    other => Err(CalcError::NotASet(other.to_string())),
                }
            }
            CalcFormula::Subset(a, b) => {
                let left = match self.term(a)? {
                    Value::Bag(bag) => bag,
                    other => return Err(CalcError::NotASet(other.to_string())),
                };
                match self.term(b)? {
                    Value::Bag(bag) => Ok(left.is_subbag_of(&bag)),
                    other => Err(CalcError::NotASet(other.to_string())),
                }
            }
            CalcFormula::Not(p) => Ok(!self.eval_inner(p)?),
            CalcFormula::And(a, b) => Ok(self.eval_inner(a)? && self.eval_inner(b)?),
            CalcFormula::Or(a, b) => Ok(self.eval_inner(a)? || self.eval_inner(b)?),
            CalcFormula::Exists { var, ty, body } => {
                let domain = enumerate_domain(ty, &self.atoms, self.domain_limit)?;
                for value in domain {
                    self.env.push((var.clone(), value));
                    let holds = self.eval_inner(body);
                    self.env.pop();
                    if holds? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CalcFormula::Forall { var, ty, body } => {
                let domain = enumerate_domain(ty, &self.atoms, self.domain_limit)?;
                for value in domain {
                    self.env.push((var.clone(), value));
                    let holds = self.eval_inner(body);
                    self.env.pop();
                    if !holds? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }
}

/// Evaluate a sentence with a default quantifier-domain budget.
pub fn eval_sentence(formula: &CalcFormula, db: &Database) -> Result<bool, CalcError> {
    CalcEvaluator::new(db, 1 << 20).eval(formula)
}

/// Check whether two databases **agree** on a sentence (the Theorem 5.3
/// consequence of a duplicator win: every sentence of quantifier depth
/// ≤ k with types in 𝒯 gets the same answer).
pub fn structures_agree(
    formula: &CalcFormula,
    left: &Database,
    right: &Database,
) -> Result<bool, CalcError> {
    Ok(eval_sentence(formula, left)? == eval_sentence(formula, right)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CalcFormula as F;
    use crate::ast::CalcTerm as T;

    fn graph(edges: &[(i64, i64)]) -> Database {
        Database::new().with(
            "E",
            Bag::from_values(
                edges
                    .iter()
                    .map(|(a, b)| Value::tuple([Value::int(*a), Value::int(*b)])),
            ),
        )
    }

    #[test]
    fn domain_enumeration_counts() {
        let atoms: Vec<Atom> = (1..=3).map(Atom::Int).collect();
        assert_eq!(enumerate_domain(&Type::Atom, &atoms, 100).unwrap().len(), 3);
        assert_eq!(
            enumerate_domain(&Type::atom_tuple(2), &atoms, 100)
                .unwrap()
                .len(),
            9
        );
        assert_eq!(
            enumerate_domain(&Type::bag(Type::Atom), &atoms, 100)
                .unwrap()
                .len(),
            8
        );
        assert!(matches!(
            enumerate_domain(&Type::bag(Type::atom_tuple(2)), &atoms, 100),
            Err(CalcError::DomainTooLarge { .. })
        )); // 2^9 = 512 > 100
    }

    #[test]
    fn simple_graph_sentences() {
        let db = graph(&[(1, 2), (2, 3)]);
        // ∃x∃y. E(x,y)
        let exists_edge = F::exists(
            "x",
            Type::Atom,
            F::exists(
                "y",
                Type::Atom,
                F::rel_atom("E", [T::var("x"), T::var("y")]),
            ),
        );
        assert!(eval_sentence(&exists_edge, &db).unwrap());
        // ∀x∀y. E(x,y) — false.
        let complete = F::forall(
            "x",
            Type::Atom,
            F::forall(
                "y",
                Type::Atom,
                F::rel_atom("E", [T::var("x"), T::var("y")]),
            ),
        );
        assert!(!eval_sentence(&complete, &db).unwrap());
    }

    #[test]
    fn set_quantification() {
        // ∃s:{U}. ∀x:U. x ∈ s — the full set exists.
        let db = graph(&[(1, 2)]);
        let phi = F::exists(
            "s",
            Type::bag(Type::Atom),
            F::forall("x", Type::Atom, F::member(T::var("x"), T::var("s"))),
        );
        assert!(eval_sentence(&phi, &db).unwrap());
    }

    #[test]
    fn subset_predicate() {
        // ∃s:{U}. s ⊆ s — trivially true (even the empty set).
        let db = graph(&[(1, 2)]);
        let phi = F::exists(
            "s",
            Type::bag(Type::Atom),
            F::subset(T::var("s"), T::var("s")),
        );
        assert!(eval_sentence(&phi, &db).unwrap());
    }

    #[test]
    fn component_selection() {
        // ∃p:[U,U]. E(p.1, p.2) — a pair whose components form an edge.
        let db = graph(&[(1, 2)]);
        let phi = F::exists(
            "p",
            Type::atom_tuple(2),
            F::rel_atom("E", [T::var("p").component(1), T::var("p").component(2)]),
        );
        assert!(eval_sentence(&phi, &db).unwrap());
    }

    #[test]
    fn agreement_on_isomorphic_graphs() {
        let a = graph(&[(1, 2)]);
        let b = graph(&[(7, 8)]);
        let phi = F::exists(
            "x",
            Type::Atom,
            F::exists(
                "y",
                Type::Atom,
                F::rel_atom("E", [T::var("x"), T::var("y")]),
            ),
        );
        assert!(structures_agree(&phi, &a, &b).unwrap());
    }

    #[test]
    fn relation_constant_as_set() {
        // The relation itself is a term: ∃p:[U,U]. p ∈ E.
        let db = graph(&[(1, 2)]);
        let phi = F::exists(
            "p",
            Type::atom_tuple(2),
            F::member(T::var("p"), T::rel("E")),
        );
        assert!(eval_sentence(&phi, &db).unwrap());
    }

    #[test]
    fn errors_are_reported() {
        let db = graph(&[(1, 2)]);
        let unbound = F::eq(T::var("z"), T::var("z"));
        assert!(matches!(
            eval_sentence(&unbound, &db),
            Err(CalcError::UnboundVariable(_))
        ));
        let unknown = F::rel_atom("Q", [T::var("z")]);
        let phi = F::exists("z", Type::Atom, unknown);
        assert!(matches!(
            eval_sentence(&phi, &db),
            Err(CalcError::UnknownRelation(_))
        ));
    }
}
