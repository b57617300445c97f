//! Bag databases: schemas, instances, and isomorphism (Section 2).
//!
//! A bag database is a set of named bags; a schema assigns each name a bag
//! type. Queries must be *generic* — insensitive to isomorphisms of the
//! database, where an isomorphism is a bijection on atomic constants
//! extended componentwise that preserves every `k-belongs` fact. The
//! [`Database::isomorphic`] search is used by tests to certify genericity
//! of the algebra's operators on small instances.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::bag::Bag;
use crate::types::Type;
use crate::value::{Atom, Value};

/// A database schema: bag names with their bag types.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    types: BTreeMap<Arc<str>, Type>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Add a bag schema `name : ty`. `ty` must be a bag type.
    pub fn with(mut self, name: &str, ty: Type) -> Schema {
        assert!(
            matches!(ty, Type::Bag(_)),
            "schema entry {name} must have a bag type, got {ty}"
        );
        self.types.insert(Arc::from(name), ty);
        self
    }

    /// Look up a bag type by name.
    pub fn get(&self, name: &str) -> Option<&Type> {
        self.types.get(name)
    }

    /// Iterate over `(name, type)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Type)> {
        self.types.iter()
    }
}

/// A bag database instance: named bags.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Database {
    bags: BTreeMap<Arc<str>, Bag>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Add (or replace) a named bag.
    pub fn with(mut self, name: &str, bag: Bag) -> Database {
        self.bags.insert(Arc::from(name), bag);
        self
    }

    /// Insert a named bag.
    pub fn insert(&mut self, name: &str, bag: Bag) {
        self.bags.insert(Arc::from(name), bag);
    }

    /// Look up a bag by name.
    pub fn get(&self, name: &str) -> Option<&Bag> {
        self.bags.get(name)
    }

    /// Remove and return a named bag — gives the caller unique ownership
    /// so an update can mutate in place instead of copy-on-write cloning
    /// (the incremental runtime's commit path).
    pub fn take(&mut self, name: &str) -> Option<Bag> {
        self.bags.remove(name)
    }

    /// Iterate over `(name, bag)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Bag)> {
        self.bags.iter()
    }

    /// Number of named bags.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// `true` if there are no named bags.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Check the instance against a schema: same names, each bag of the
    /// declared type.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.bags.len() == schema.types.len()
            && self.bags.iter().all(|(name, bag)| {
                schema
                    .get(name)
                    .is_some_and(|ty| Value::Bag(bag.clone()).has_type(ty))
            })
    }

    /// All distinct atomic constants occurring in the instance — the active
    /// domain `D`.
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for bag in self.bags.values() {
            Value::Bag(bag.clone()).collect_atoms(&mut out);
        }
        out
    }

    /// Total size of the standard encoding of the instance (Section 2's
    /// complexity measure).
    pub fn encoded_size(&self) -> crate::natural::Natural {
        self.bags
            .values()
            .map(|bag| Value::Bag(bag.clone()).encoded_size())
            .sum()
    }

    /// Apply an atom renaming to every bag.
    pub fn rename_atoms(&self, h: &impl Fn(&Atom) -> Atom) -> Database {
        Database {
            bags: self
                .bags
                .iter()
                .map(|(name, bag)| {
                    let renamed = Value::Bag(bag.clone())
                        .rename_atoms(h)
                        .into_bag()
                        .expect("renaming preserves shape");
                    (name.clone(), renamed)
                })
                .collect(),
        }
    }

    /// Decide isomorphism of two bag databases (Section 2): a bijection
    /// `h : D → D′` on atoms extending componentwise such that `t`
    /// k-belongs to each `Bᵢ` iff `h(t)` k-belongs to `B′ᵢ`.
    ///
    /// Backtracking over atom matchings; exponential in `|D|` in the worst
    /// case, intended for the small instances used in genericity tests.
    pub fn isomorphic(&self, other: &Database) -> bool {
        self.find_isomorphism(other).is_some()
    }

    /// As [`Database::isomorphic`], returning a witness bijection.
    pub fn find_isomorphism(&self, other: &Database) -> Option<BTreeMap<Atom, Atom>> {
        if self.bags.keys().ne(other.bags.keys()) {
            return None;
        }
        let dom: Vec<Atom> = self.active_domain().into_iter().collect();
        let codom: Vec<Atom> = other.active_domain().into_iter().collect();
        if dom.len() != codom.len() {
            return None;
        }
        let mut assignment: BTreeMap<Atom, Atom> = BTreeMap::new();
        let mut used = vec![false; codom.len()];
        if self.search(other, &dom, &codom, 0, &mut used, &mut assignment) {
            Some(assignment)
        } else {
            None
        }
    }

    fn search(
        &self,
        other: &Database,
        dom: &[Atom],
        codom: &[Atom],
        index: usize,
        used: &mut [bool],
        assignment: &mut BTreeMap<Atom, Atom>,
    ) -> bool {
        if index == dom.len() {
            let mapping = assignment.clone();
            let renamed =
                self.rename_atoms(&|a| mapping.get(a).cloned().unwrap_or_else(|| a.clone()));
            return &renamed == other;
        }
        for j in 0..codom.len() {
            if used[j] {
                continue;
            }
            used[j] = true;
            assignment.insert(dom[index].clone(), codom[j].clone());
            if self.search(other, dom, codom, index + 1, used, assignment) {
                return true;
            }
            assignment.remove(&dom[index]);
            used[j] = false;
        }
        false
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, bag) in &self.bags {
            writeln!(f, "{name} = {bag}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::natural::Natural;

    fn graph(edges: &[(&str, &str)]) -> Bag {
        Bag::from_values(
            edges
                .iter()
                .map(|(a, b)| Value::tuple([Value::sym(a), Value::sym(b)])),
        )
    }

    #[test]
    fn schema_conformance() {
        let schema = Schema::new().with("G", Type::relation(2));
        let db = Database::new().with("G", graph(&[("a", "b")]));
        assert!(db.conforms_to(&schema));
        let bad = Database::new().with("G", Bag::singleton(Value::sym("a")));
        assert!(!bad.conforms_to(&schema));
        let missing = Database::new();
        assert!(!missing.conforms_to(&schema));
    }

    #[test]
    fn isomorphic_graphs_found() {
        // a→b,b→c  ≅  x→y,y→z
        let g1 = Database::new().with("G", graph(&[("a", "b"), ("b", "c")]));
        let g2 = Database::new().with("G", graph(&[("x", "y"), ("y", "z")]));
        let h = g1.find_isomorphism(&g2).expect("isomorphic");
        assert_eq!(h[&Atom::sym("a")], Atom::sym("x"));
        assert_eq!(h[&Atom::sym("b")], Atom::sym("y"));
    }

    #[test]
    fn non_isomorphic_multiplicities_detected() {
        // Same support, different duplicate counts: NOT isomorphic as bags.
        let mut b1 = Bag::new();
        b1.insert_with_multiplicity(Value::tuple([Value::sym("a")]), Natural::from(2u64));
        let mut b2 = Bag::new();
        b2.insert_with_multiplicity(Value::tuple([Value::sym("x")]), Natural::from(3u64));
        let d1 = Database::new().with("B", b1);
        let d2 = Database::new().with("B", b2);
        assert!(!d1.isomorphic(&d2));
    }

    #[test]
    fn path_not_isomorphic_to_fork() {
        let g1 = Database::new().with("G", graph(&[("a", "b"), ("b", "c")]));
        let g2 = Database::new().with("G", graph(&[("x", "y"), ("x", "z")]));
        assert!(!g1.isomorphic(&g2));
    }

    #[test]
    fn active_domain_and_size() {
        let db = Database::new().with("G", graph(&[("a", "b"), ("b", "c")]));
        assert_eq!(db.active_domain().len(), 3);
        // each edge tuple: 1 + 2 atoms = 3; bag adds 1 → 1 + 3 + 3 = 7
        assert_eq!(db.encoded_size(), Natural::from(7u64));
    }

    #[test]
    fn isomorphism_is_reflexive_on_nested_bags() {
        let nested = Bag::singleton(Value::bag([Value::sym("a"), Value::sym("b")]));
        let db = Database::new().with("N", nested);
        assert!(db.isomorphic(&db.clone()));
    }
}
