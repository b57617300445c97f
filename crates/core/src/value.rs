//! Complex objects: atoms, tuples, and bags.
//!
//! A value is an object of some [`Type`]: an atomic
//! constant, a tuple of values, or a bag of values. Values carry a total
//! order — the lexicographic order the paper uses in the PSPACE encoding of
//! Theorem 5.1 ("From an order on the atomic constants, we can derive a
//! lexicographic order on tuples and then on sets and bags of tuples") —
//! which also makes them usable as `BTreeMap` keys inside [`Bag`].

use std::fmt;
use std::sync::Arc;

use crate::bag::Bag;
use crate::natural::Natural;
use crate::types::Type;

/// An atomic constant from the infinite domain of the atomic type `U`.
///
/// The paper's domain is an abstract infinite set of constants; we provide
/// integers and interned strings. Ordering places all integers before all
/// strings, giving the total order on the domain that Section 4's
/// parity-with-order expression and Section 5's encodings assume.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// An integer constant.
    Int(i64),
    /// A symbolic constant.
    Str(Arc<str>),
}

impl Atom {
    /// A symbolic constant from a string slice.
    pub fn sym(s: &str) -> Atom {
        Atom::Str(Arc::from(s))
    }
}

impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::sym(s)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A complex object: an atom, a tuple of objects, or a bag of objects.
///
/// Both container variants are cheap to clone: tuples share their field
/// slice behind an [`Arc`], and [`Bag`] is internally copy-on-write. The
/// hand-written `PartialEq`/`Ord` add pointer-equality fast paths for
/// shared containers while keeping exactly the derived (structural,
/// variant-ordered) semantics — the total order of Theorem 5.1's encoding.
// The manual `PartialEq` below is the structural equality the derive would
// produce, plus an `Arc` pointer fast path — so the derived `Hash` remains
// consistent with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, Hash, Debug)]
pub enum Value {
    /// An atomic constant.
    Atom(Atom),
    /// A tuple `[o₁, …, oₖ]` (the paper's tupling constructor `τ`).
    Tuple(Arc<[Value]>),
    /// A bag `⟦…⟧`.
    Bag(Bag),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Atom(a), Value::Atom(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Bag(a), Value::Bag(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Atom(a), Value::Atom(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Value::Bag(a), Value::Bag(b)) => a.cmp(b),
            // Variant order: atoms < tuples < bags, as derived.
            (Value::Atom(_), _) => Ordering::Less,
            (_, Value::Atom(_)) => Ordering::Greater,
            (Value::Tuple(_), Value::Bag(_)) => Ordering::Less,
            (Value::Bag(_), Value::Tuple(_)) => Ordering::Greater,
        }
    }
}

impl Value {
    /// An integer atom.
    pub fn int(v: i64) -> Value {
        Value::Atom(Atom::Int(v))
    }

    /// A symbolic atom.
    pub fn sym(s: &str) -> Value {
        Value::Atom(Atom::sym(s))
    }

    /// A tuple value.
    pub fn tuple(fields: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(fields.into_iter().collect())
    }

    /// The concatenated tuple `[l₁, …, lₘ, r₁, …, rₙ]` — the element shape
    /// the Cartesian product produces, shared by the materializing and the
    /// fused (hash-join / streamed-pair) product paths. The ubiquitous
    /// small arities build their `Arc` slice from a fixed array — one
    /// allocation instead of the `Vec`-then-`Arc` two.
    pub fn concat_tuples(left: &[Value], right: &[Value]) -> Value {
        match (left, right) {
            ([l], [r]) => Value::Tuple(Arc::from([l.clone(), r.clone()])),
            ([l0, l1], [r0, r1]) => {
                Value::Tuple(Arc::from([l0.clone(), l1.clone(), r0.clone(), r1.clone()]))
            }
            _ => {
                let mut fields = Vec::with_capacity(left.len() + right.len());
                fields.extend_from_slice(left);
                fields.extend_from_slice(right);
                Value::Tuple(fields.into())
            }
        }
    }

    /// A bag value from an iterator of elements (each with multiplicity 1).
    pub fn bag(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::Bag(Bag::from_values(elems))
    }

    /// The empty bag.
    pub fn empty_bag() -> Value {
        Value::Bag(Bag::new())
    }

    /// Borrow as a bag, if this is one.
    pub fn as_bag(&self) -> Option<&Bag> {
        match self {
            Value::Bag(b) => Some(b),
            _ => None,
        }
    }

    /// Consume into a bag, if this is one.
    pub fn into_bag(self) -> Option<Bag> {
        match self {
            Value::Bag(b) => Some(b),
            _ => None,
        }
    }

    /// Borrow as a tuple, if this is one.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrow as an atom, if this is one.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Value::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// Infer the type of this value. Homogeneity of bags is checked; an
    /// empty bag infers `⟦?⟧` ([`Type::Unknown`] element). Returns `None`
    /// for heterogeneous bags, which are not objects of any type.
    pub fn infer_type(&self) -> Option<Type> {
        match self {
            Value::Atom(_) => Some(Type::Atom),
            Value::Tuple(fields) => {
                let tys = fields
                    .iter()
                    .map(Value::infer_type)
                    .collect::<Option<Vec<_>>>()?;
                Some(Type::Tuple(tys))
            }
            Value::Bag(bag) => {
                let mut elem = Type::Unknown;
                for (value, _) in bag.iter() {
                    let ty = value.infer_type()?;
                    elem = elem.unify(&ty)?;
                }
                Some(Type::bag(elem))
            }
        }
    }

    /// `true` if this value is an object of the given type (`Unknown`
    /// matches anything; empty bags match every bag type).
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (_, Type::Unknown) => true,
            (Value::Atom(_), Type::Atom) => true,
            (Value::Tuple(fields), Type::Tuple(tys)) => {
                fields.len() == tys.len() && fields.iter().zip(tys).all(|(v, t)| v.has_type(t))
            }
            (Value::Bag(bag), Type::Bag(elem)) => bag.iter().all(|(v, _)| v.has_type(elem)),
            _ => false,
        }
    }

    /// The bag nesting of the value: maximal number of bag nodes on a path
    /// from the root to a leaf of the object.
    pub fn bag_nesting(&self) -> usize {
        match self {
            Value::Atom(_) => 0,
            Value::Tuple(fields) => fields.iter().map(Value::bag_nesting).max().unwrap_or(0),
            Value::Bag(bag) => 1 + bag.iter().map(|(v, _)| v.bag_nesting()).max().unwrap_or(0),
        }
    }

    /// Size of the **standard encoding** of the value (Section 2): each
    /// object is repeated in the encoding as many times as it appears in a
    /// bag — duplicates are *not* compressed, matching the paper's
    /// complexity measure ("duplicates are explicitly stored"). Atoms have
    /// size 1; tuples and bags add 1 for their constructor.
    pub fn encoded_size(&self) -> Natural {
        match self {
            Value::Atom(_) => Natural::one(),
            Value::Tuple(fields) => {
                let mut total = Natural::one();
                for field in fields.iter() {
                    total += &field.encoded_size();
                }
                total
            }
            Value::Bag(bag) => {
                let mut total = Natural::one();
                for (value, mult) in bag.iter() {
                    total += &(&value.encoded_size() * mult);
                }
                total
            }
        }
    }

    /// All distinct atomic constants occurring in the value, in order.
    pub fn atoms(&self) -> std::collections::BTreeSet<Atom> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    pub(crate) fn collect_atoms(&self, out: &mut std::collections::BTreeSet<Atom>) {
        match self {
            Value::Atom(a) => {
                out.insert(a.clone());
            }
            Value::Tuple(fields) => {
                for field in fields.iter() {
                    field.collect_atoms(out);
                }
            }
            Value::Bag(bag) => {
                for (value, _) in bag.iter() {
                    value.collect_atoms(out);
                }
            }
        }
    }

    /// Apply an atom renaming `h` componentwise (the isomorphisms of
    /// Section 2 extend bijections on the domain to complex objects).
    pub fn rename_atoms(&self, h: &impl Fn(&Atom) -> Atom) -> Value {
        match self {
            Value::Atom(a) => Value::Atom(h(a)),
            Value::Tuple(fields) => {
                Value::Tuple(fields.iter().map(|f| f.rename_atoms(h)).collect())
            }
            Value::Bag(bag) => {
                let mut out = Bag::new();
                for (value, mult) in bag.iter() {
                    out.insert_with_multiplicity(value.rename_atoms(h), mult.clone());
                }
                Value::Bag(out)
            }
        }
    }
}

impl From<Atom> for Value {
    fn from(a: Atom) -> Self {
        Value::Atom(a)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

impl From<Bag> for Value {
    fn from(b: Bag) -> Self {
        Value::Bag(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(a) => write!(f, "{a}"),
            Value::Tuple(fields) => {
                f.write_str("[")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{field}")?;
                }
                f.write_str("]")
            }
            Value::Bag(bag) => write!(f, "{bag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_type_of_flat_relation() {
        let b = Value::bag([
            Value::tuple([Value::sym("a"), Value::sym("b")]),
            Value::tuple([Value::sym("b"), Value::sym("a")]),
        ]);
        assert_eq!(b.infer_type(), Some(Type::relation(2)));
        assert!(b.has_type(&Type::relation(2)));
        assert!(!b.has_type(&Type::relation(3)));
    }

    #[test]
    fn empty_bag_matches_any_bag_type() {
        let e = Value::empty_bag();
        assert_eq!(e.infer_type(), Some(Type::bag(Type::Unknown)));
        assert!(e.has_type(&Type::relation(5)));
        assert!(e.has_type(&Type::bag(Type::bag(Type::Atom))));
        assert!(!e.has_type(&Type::Atom));
    }

    #[test]
    fn heterogeneous_bag_has_no_type() {
        let mut bag = Bag::new();
        bag.insert(Value::sym("a"));
        bag.insert(Value::tuple([Value::sym("a")]));
        assert_eq!(Value::Bag(bag).infer_type(), None);
    }

    #[test]
    fn bag_nesting_of_values() {
        assert_eq!(Value::sym("a").bag_nesting(), 0);
        let flat = Value::bag([Value::sym("a")]);
        assert_eq!(flat.bag_nesting(), 1);
        let nested = Value::bag([flat]);
        assert_eq!(nested.bag_nesting(), 2);
        let tup = Value::tuple([Value::sym("x"), nested]);
        assert_eq!(tup.bag_nesting(), 2);
    }

    #[test]
    fn encoded_size_expands_duplicates() {
        // ⟦a, a, a⟧: 1 (bag) + 3·1 (three copies of a) = 4.
        let mut bag = Bag::new();
        bag.insert_with_multiplicity(Value::sym("a"), Natural::from(3u64));
        assert_eq!(Value::Bag(bag).encoded_size(), Natural::from(4u64));
        // The counted representation would be O(log n); the standard
        // encoding is linear in the number of duplicates.
        let mut big = Bag::new();
        big.insert_with_multiplicity(Value::sym("a"), Natural::from(1000u64));
        assert_eq!(Value::Bag(big).encoded_size(), Natural::from(1001u64));
    }

    #[test]
    fn ordering_is_total_and_structural() {
        let a = Value::sym("a");
        let b = Value::sym("b");
        assert!(a < b);
        assert!(Value::int(5) < a); // ints sort before symbols
        let t1 = Value::tuple([a.clone(), b.clone()]);
        let t2 = Value::tuple([b, a]);
        assert!(t1 < t2);
    }

    #[test]
    fn rename_atoms_is_deep() {
        let v = Value::bag([Value::tuple([Value::sym("a"), Value::sym("b")])]);
        let renamed = v.rename_atoms(&|a| {
            if *a == Atom::sym("a") {
                Atom::sym("z")
            } else {
                a.clone()
            }
        });
        assert_eq!(
            renamed,
            Value::bag([Value::tuple([Value::sym("z"), Value::sym("b")])])
        );
    }

    #[test]
    fn atoms_collects_distinct_constants() {
        let v = Value::bag([
            Value::tuple([Value::sym("a"), Value::sym("b")]),
            Value::tuple([Value::sym("a"), Value::sym("c")]),
        ]);
        let atoms = v.atoms();
        assert_eq!(atoms.len(), 3);
        assert!(atoms.contains(&Atom::sym("a")));
    }

    #[test]
    fn display_shapes() {
        let v = Value::tuple([Value::int(1), Value::bag([Value::sym("a")])]);
        assert_eq!(v.to_string(), "[1, {{a}}]");
    }
}
