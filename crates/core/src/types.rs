//! The type system of the paper's Section 2.
//!
//! Types are built from the atomic type `U` with the tuple constructor
//! `[T₁, …, Tₖ]` and the bag constructor `⟦T⟧`. A complex type is a tree
//! whose internal nodes are the two constructors; the **bag nesting** of a
//! type is the maximal number of bag nodes on a root-to-leaf path, which is
//! the parameter defining the fragments BALG¹ / BALG² / BALG³ studied in
//! Sections 4–6.

use std::fmt;

/// A BALG type: the atomic type `U`, tuple types, and bag types.
///
/// [`Type::Unknown`] is not part of the paper's type system; it is the type
/// of a literal empty bag's element, and unifies with everything. The static
/// type checker only produces `Unknown` under a `Bag` node of an empty bag
/// literal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// The atomic type `U` (an infinite domain of constants).
    Atom,
    /// A tuple type `[T₁, …, Tₖ]`.
    Tuple(Vec<Type>),
    /// A bag type `⟦T⟧`.
    Bag(Box<Type>),
    /// The element type of a literal empty bag; unifies with any type.
    Unknown,
}

impl Type {
    /// Convenience constructor for `⟦T⟧`.
    pub fn bag(inner: Type) -> Type {
        Type::Bag(Box::new(inner))
    }

    /// Convenience constructor for a tuple of `k` atoms, `U^k`.
    pub fn atom_tuple(k: usize) -> Type {
        Type::Tuple(vec![Type::Atom; k])
    }

    /// A flat relation type `⟦U^k⟧` — the unnested bag types of BALG¹.
    pub fn relation(k: usize) -> Type {
        Type::bag(Type::atom_tuple(k))
    }

    /// The bag nesting of the type: the maximal number of bag constructors
    /// on a path from the root to a leaf (Section 2). `U` and pure tuple
    /// types have nesting 0; `⟦U^k⟧` has nesting 1; `⟦⟦U⟧⟧` has nesting 2.
    pub fn bag_nesting(&self) -> usize {
        match self {
            Type::Atom | Type::Unknown => 0,
            Type::Tuple(fields) => fields.iter().map(Type::bag_nesting).max().unwrap_or(0),
            Type::Bag(inner) => 1 + inner.bag_nesting(),
        }
    }

    /// `true` if this type contains no `Unknown` leaves.
    pub fn is_concrete(&self) -> bool {
        match self {
            Type::Atom => true,
            Type::Unknown => false,
            Type::Tuple(fields) => fields.iter().all(Type::is_concrete),
            Type::Bag(inner) => inner.is_concrete(),
        }
    }

    /// Structural compatibility, treating `Unknown` as a wildcard on either
    /// side. Two compatible concrete types are equal.
    pub fn compatible(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Unknown, _) | (_, Type::Unknown) => true,
            (Type::Atom, Type::Atom) => true,
            (Type::Tuple(a), Type::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.compatible(y))
            }
            (Type::Bag(a), Type::Bag(b)) => a.compatible(b),
            _ => false,
        }
    }

    /// Least upper bound of two compatible types, replacing `Unknown` by
    /// concrete information where available. Returns `None` if incompatible.
    pub fn unify(&self, other: &Type) -> Option<Type> {
        match (self, other) {
            (Type::Unknown, t) | (t, Type::Unknown) => Some(t.clone()),
            (Type::Atom, Type::Atom) => Some(Type::Atom),
            (Type::Tuple(a), Type::Tuple(b)) if a.len() == b.len() => {
                let fields = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| x.unify(y))
                    .collect::<Option<Vec<_>>>()?;
                Some(Type::Tuple(fields))
            }
            (Type::Bag(a), Type::Bag(b)) => Some(Type::bag(a.unify(b)?)),
            _ => None,
        }
    }

    /// The element type if this is a bag type.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Bag(inner) => Some(inner),
            _ => None,
        }
    }

    /// The field types if this is a tuple type.
    pub fn fields(&self) -> Option<&[Type]> {
        match self {
            Type::Tuple(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for the unnested types of BALG¹: `U^k` or `⟦U^k⟧`
    /// (Section 4), including bare `U`.
    pub fn is_unnested(&self) -> bool {
        fn flat_tuple(t: &Type) -> bool {
            match t {
                Type::Atom | Type::Unknown => true,
                Type::Tuple(fields) => fields
                    .iter()
                    .all(|f| matches!(f, Type::Atom | Type::Unknown)),
                _ => false,
            }
        }
        match self {
            Type::Bag(inner) => flat_tuple(inner),
            other => flat_tuple(other),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Atom => f.write_str("U"),
            Type::Unknown => f.write_str("?"),
            Type::Tuple(fields) => {
                f.write_str("[")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{field}")?;
                }
                f.write_str("]")
            }
            Type::Bag(inner) => write!(f, "{{{{{inner}}}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_nesting_counts_bag_nodes_on_deepest_path() {
        assert_eq!(Type::Atom.bag_nesting(), 0);
        assert_eq!(Type::atom_tuple(3).bag_nesting(), 0);
        assert_eq!(Type::relation(2).bag_nesting(), 1);
        assert_eq!(Type::bag(Type::relation(2)).bag_nesting(), 2);
        // Mixed tuple: [U, ⟦⟦U⟧⟧] has nesting 2.
        let t = Type::Tuple(vec![Type::Atom, Type::bag(Type::bag(Type::Atom))]);
        assert_eq!(t.bag_nesting(), 2);
    }

    #[test]
    fn unnested_types_are_exactly_balg1_types() {
        assert!(Type::Atom.is_unnested());
        assert!(Type::atom_tuple(4).is_unnested());
        assert!(Type::relation(4).is_unnested());
        assert!(!Type::bag(Type::relation(1)).is_unnested());
        assert!(!Type::Tuple(vec![Type::Atom, Type::bag(Type::Atom)]).is_unnested());
    }

    #[test]
    fn unify_fills_unknowns() {
        let partial = Type::bag(Type::Unknown);
        let full = Type::relation(2);
        assert_eq!(partial.unify(&full), Some(full.clone()));
        assert!(partial.compatible(&full));
        assert_eq!(Type::Atom.unify(&Type::relation(1)), None);
        assert!(!Type::Atom.compatible(&Type::relation(1)));
    }

    #[test]
    fn unify_rejects_arity_mismatch() {
        assert_eq!(Type::atom_tuple(2).unify(&Type::atom_tuple(3)), None);
    }

    #[test]
    fn display_round_trips_shape() {
        let t = Type::bag(Type::Tuple(vec![Type::Atom, Type::bag(Type::Atom)]));
        assert_eq!(t.to_string(), "{{[U, {{U}}]}}");
    }

    #[test]
    fn concrete_detection() {
        assert!(Type::relation(2).is_concrete());
        assert!(!Type::bag(Type::Unknown).is_concrete());
    }
}
