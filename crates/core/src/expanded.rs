//! The expanded (standard-encoding) bag representation — a differential
//! oracle.
//!
//! Section 2 defines bag size via the standard encoding, where "each
//! object is repeated in the encoding as many times as it appears in the
//! bag"; Section 3 then observes that real systems often store the
//! duplicates explicitly. This module implements bags exactly that way —
//! a sorted vector of occurrences — with independent, deliberately naive
//! implementations of the duplicate-sensitive operators.
//!
//! Its purpose is differential testing: every counted [`Bag`] operation
//! is checked against this oracle on random inputs (see
//! `tests/differential.rs`).
//!
//! Multiplicities beyond `u32::MAX` cannot be materialized; constructors
//! return `None` for such bags (the counted form is the only lossless
//! one — which is itself a finding the paper's encoding discussion
//! anticipates).

use crate::bag::Bag;
use crate::natural::Natural;
use crate::value::Value;

/// A bag stored as its standard encoding: one slot per occurrence, kept
/// sorted so equality is canonical.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExpandedBag {
    items: Vec<Value>,
}

impl ExpandedBag {
    /// The empty bag.
    pub fn new() -> ExpandedBag {
        ExpandedBag::default()
    }

    /// Expand a counted bag; `None` if any multiplicity exceeds `u32::MAX`
    /// (the representation gap the counted form closes).
    pub fn from_bag(bag: &Bag) -> Option<ExpandedBag> {
        let mut items = Vec::new();
        for (value, mult) in bag.iter() {
            let count = mult.to_u64().filter(|&c| c <= u32::MAX as u64)?;
            items.extend(std::iter::repeat_n(value.clone(), count as usize));
        }
        // Bag iteration is ordered, repeats are adjacent: already sorted.
        debug_assert!(items.windows(2).all(|w| w[0] <= w[1]));
        Some(ExpandedBag { items })
    }

    /// Collapse back to the counted representation.
    pub fn to_bag(&self) -> Bag {
        Bag::from_values(self.items.iter().cloned())
    }

    /// Number of occurrences (the paper's bag size).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Occurrences of one value, by scanning.
    pub fn count_of(&self, value: &Value) -> usize {
        self.items.iter().filter(|item| *item == value).count()
    }

    /// `∪⁺` — concatenate and re-sort.
    pub fn additive_union(&self, other: &ExpandedBag) -> ExpandedBag {
        let mut items = Vec::with_capacity(self.items.len() + other.items.len());
        items.extend(self.items.iter().cloned());
        items.extend(other.items.iter().cloned());
        items.sort();
        ExpandedBag { items }
    }

    /// `−` — remove one occurrence from `self` per occurrence in `other`.
    pub fn subtract(&self, other: &ExpandedBag) -> ExpandedBag {
        let mut items = self.items.clone();
        for needle in &other.items {
            if let Ok(pos) = items.binary_search(needle) {
                items.remove(pos);
            }
        }
        ExpandedBag { items }
    }

    /// `∪` — per distinct value, the larger occurrence count.
    pub fn max_union(&self, other: &ExpandedBag) -> ExpandedBag {
        let mut out = self.clone();
        for needle in distinct(&other.items) {
            let mine = self.count_of(needle);
            let theirs = other.count_of(needle);
            for _ in mine..theirs {
                let pos = out.items.binary_search(needle).unwrap_or_else(|p| p);
                out.items.insert(pos, needle.clone());
            }
        }
        out
    }

    /// `∩` — per distinct value, the smaller occurrence count.
    pub fn intersect(&self, other: &ExpandedBag) -> ExpandedBag {
        let mut items = Vec::new();
        for needle in distinct(&self.items) {
            let keep = self.count_of(needle).min(other.count_of(needle));
            items.extend(std::iter::repeat_n(needle.clone(), keep));
        }
        items.sort();
        ExpandedBag { items }
    }

    /// `ε` — one occurrence of each distinct value.
    pub fn dedup(&self) -> ExpandedBag {
        ExpandedBag {
            items: distinct(&self.items).cloned().collect(),
        }
    }

    /// `×` — pairwise tuple concatenation (quadratic in occurrences).
    pub fn product(&self, other: &ExpandedBag) -> Option<ExpandedBag> {
        let mut items = Vec::with_capacity(self.items.len() * other.items.len());
        for left in &self.items {
            let left_fields = left.as_tuple()?;
            for right in &other.items {
                let right_fields = right.as_tuple()?;
                let mut fields = Vec::with_capacity(left_fields.len() + right_fields.len());
                fields.extend_from_slice(left_fields);
                fields.extend_from_slice(right_fields);
                items.push(Value::Tuple(fields.into()));
            }
        }
        items.sort();
        Some(ExpandedBag { items })
    }

    /// `MAP` — apply to every occurrence.
    pub fn map(&self, f: impl Fn(&Value) -> Value) -> ExpandedBag {
        let mut items: Vec<Value> = self.items.iter().map(f).collect();
        items.sort();
        ExpandedBag { items }
    }

    /// `σ` — keep occurrences satisfying the predicate.
    pub fn select(&self, pred: impl Fn(&Value) -> bool) -> ExpandedBag {
        ExpandedBag {
            items: self.items.iter().filter(|v| pred(v)).cloned().collect(),
        }
    }

    /// `δ` — concatenate the inner bags of every occurrence.
    pub fn destroy(&self) -> Option<ExpandedBag> {
        let mut items = Vec::new();
        for value in &self.items {
            let inner = value.as_bag()?;
            let expanded = ExpandedBag::from_bag(inner)?;
            items.extend(expanded.items);
        }
        items.sort();
        Some(ExpandedBag { items })
    }

    /// The size of the standard encoding (occurrences, not distinct
    /// values) as a [`Natural`] — definitionally `len()` here.
    pub fn encoded_cardinality(&self) -> Natural {
        Natural::from(self.items.len() as u64)
    }
}

/// Iterate over the distinct values of a sorted slice.
fn distinct(items: &[Value]) -> impl Iterator<Item = &Value> {
    items
        .iter()
        .enumerate()
        .filter(|(i, v)| *i == 0 || items[i - 1] != **v)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(pairs: &[(&str, u64)]) -> Bag {
        Bag::from_counted(
            pairs
                .iter()
                .map(|(s, m)| (Value::tuple([Value::sym(s)]), Natural::from(*m))),
        )
    }

    #[test]
    fn roundtrip() {
        let bag = counted(&[("a", 3), ("b", 1)]);
        let expanded = ExpandedBag::from_bag(&bag).unwrap();
        assert_eq!(expanded.len(), 4);
        assert_eq!(expanded.to_bag(), bag);
    }

    #[test]
    fn huge_multiplicities_rejected() {
        let bag = Bag::repeated(Value::sym("a"), Natural::pow2(40));
        assert!(ExpandedBag::from_bag(&bag).is_none());
    }

    #[test]
    fn operations_agree_with_counted_on_samples() {
        let b1 = counted(&[("a", 3), ("b", 1)]);
        let b2 = counted(&[("a", 1), ("c", 2)]);
        let e1 = ExpandedBag::from_bag(&b1).unwrap();
        let e2 = ExpandedBag::from_bag(&b2).unwrap();
        assert_eq!(e1.additive_union(&e2).to_bag(), b1.additive_union(&b2));
        assert_eq!(e1.subtract(&e2).to_bag(), b1.subtract(&b2));
        assert_eq!(e1.max_union(&e2).to_bag(), b1.max_union(&b2));
        assert_eq!(e1.intersect(&e2).to_bag(), b1.intersect(&b2));
        assert_eq!(e1.dedup().to_bag(), b1.dedup());
        assert_eq!(
            e1.product(&e2).unwrap().to_bag(),
            b1.product(&b2, u64::MAX).unwrap()
        );
    }

    #[test]
    fn destroy_agrees() {
        let inner1 = counted(&[("x", 2)]);
        let inner2 = counted(&[("y", 1)]);
        let mut outer = Bag::new();
        outer.insert_with_multiplicity(Value::Bag(inner1), Natural::from(2u64));
        outer.insert(Value::Bag(inner2));
        let expanded = ExpandedBag::from_bag(&outer).unwrap();
        assert_eq!(
            expanded.destroy().unwrap().to_bag(),
            outer.destroy().unwrap()
        );
    }
}
