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
//! is checked against this oracle on random inputs (`differential.rs`),
//! and `bag_model_props.rs` groups its occurrences for the key-run
//! kernels.
//!
//! Multiplicities beyond `u32::MAX` cannot be materialized; constructors
//! return `None` for such bags (the counted form is the only lossless
//! one — which is itself a finding the paper's encoding discussion
//! anticipates).

use balg_core::bag::Bag;
use balg_core::natural::Natural;
use balg_core::value::Value;

/// A bag stored as its standard encoding: one slot per occurrence, kept
/// sorted so equality is canonical.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExpandedBag {
    items: Vec<Value>,
}

impl ExpandedBag {
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
