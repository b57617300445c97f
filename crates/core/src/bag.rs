//! Bags with exact multiplicities and the primitive operations of Section 3.
//!
//! A bag is a finite multiset: a map from distinct elements to positive
//! multiplicities. An element *n-belongs* to a bag if it has exactly `n`
//! occurrences. The operations here are the data-level semantics of the
//! BALG operators; the expression AST in [`crate::expr`] composes them.
//!
//! The counted representation is the optimization the paper's Section 3
//! anticipates ("representing each object in association with the number of
//! its occurrences"); the paper's complexity measure nevertheless charges
//! for the expanded standard encoding, which
//! [`Value::encoded_size`](crate::value::Value::encoded_size) computes.
//!
//! # Sorted-slice representation
//!
//! Elements live in one contiguous slice of `(Value, Natural)` pairs kept
//! in strictly ascending [`Value`] order with no zero multiplicities — the
//! two invariants every constructor here re-establishes. Compared to the
//! previous `BTreeMap`:
//!
//! * lookups are a binary search over one allocation (no tree-node hops);
//! * the merge operations (`∪⁺`, `−`, `∪`, `∩`) are one keywise walk over
//!   both slices producing its output already sorted (§ *One keywise
//!   merge* below);
//! * `powerset`/`powerbag` enumerate the subbags in bag order (a subbag
//!   is its choices `(eᵢ, cᵢ)` in ascending `i`, and a preorder walk that
//!   extends each choice list by ascending `i`, then `c`, emits a prefix
//!   before its extensions), so every subbag slice and the output slice
//!   are born sorted: no per-subbag tree, and no sort of the output;
//! * equality, ordering, and hashing are slice operations, and the
//!   lexicographic order over `(element, multiplicity)` pairs is exactly
//!   the order the old map iteration induced, so the total [`Value`] order
//!   of Theorem 5.1's PSPACE encoding is unchanged.
//!
//! Tuples compare field by field, a shorter tuple before its extensions,
//! so the slice is also a group index on its leading attributes. Taking
//! the first `k` fields is monotone in that order, hence rows that share
//! their first `k` fields form one contiguous *key run*. Two distinct rows
//! of a run first differ at a field past `k` (or one ends there), so their
//! residuals `[α_{k+1}, …]` ascend strictly in slice order. [`Bag::nest`]
//! and [`Bag::project_prefix`] walk these runs, building every output
//! slice already sorted ([`is_key_prefix`] says when the key is a prefix).
//!
//! # Grouping by hash
//!
//! Any other key is not clustered by the slice, but its groups keep one
//! property of a run: two rows with equal key fields first differ at a
//! non-key position, so their residuals compare as the rows do, and a
//! group's rows taken in slice order ascend in both. `KeyGroups` is the
//! one kernel for such keys. It reads the rows in slice order, borrowed,
//! and files each under a hash of its key fields (the multiply-xor
//! [`ValueHasher`] of the join indexes; the first few groups are found by
//! comparison alone); a group accumulates what its caller needs — the
//! member rows for [`Bag::nest`], a multiplicity sum for the evaluator's
//! projection sink — and only the distinct keys are sorted, once, at the
//! end. A sort of every row by its key fields, the path this replaced,
//! compared values `O(n log n)` times; past the first few groups the
//! kernel hashes each row's key once and compares it only with keys whose
//! hashes match. No key vector is ever cloned: a group's key is read off
//! its first row.
//!
//! The same order makes `α₁` monotone: once the first row is a non-empty
//! tuple and the last a tuple, every row is a tuple with an `α₁` (atoms
//! sort before tuples, bags after, and `[]` before every other tuple), and
//! `α₁` never decreases along the slice. So for a literal `c` the rows with
//! `α₁ < c`, `α₁ = c` and `α₁ > c` are three contiguous runs, cut by two
//! binary searches, and `L` literals cut the slice into at most `2L + 1`
//! runs on each of which every comparison of `α₁` with a literal has one
//! answer. [`Bag::lead_runs`] computes the cuts; the evaluator decides a
//! selection on `α₁` once per run instead of once per row.
//!
//! # One keywise merge
//!
//! Section 3 defines `∪⁺`, `−`, `∪` and `∩` in one shape: the
//! multiplicity of `o` in the result is `f(p, q)`, where `p` and `q` are
//! its multiplicities in the two operands and `f` is `+`, monus, `sup` or
//! `inf` ([`MergeOp`]). An absent key has multiplicity 0, and `f(p, 0)` is
//! either `p` or 0, so each op also says whether a side's unmatched keys
//! are kept. One slice kernel runs all four: it walks the side with fewer
//! keys and finds each key in the rest of the other side, then copies or
//! skips the run before it by that side's keep flag. The find is a linear
//! scan, which makes the walk a two-pointer merge, until the bigger side
//! holds more than 16× the keys; then it is a binary search, so a small
//! operand costs `O(s log b)` comparisons instead of `O(s + b)`.
//! [`Bag::merge`] takes the short cuts first (an empty side, or both
//! operands one representation, where `f(p, p)` is `2p`, 0 or `p`).
//! [`Bag::is_subbag_of`] walks its candidate with the same find step.
//!
//! The kernel reads its left operand borrowed, cloning each pair it
//! keeps, or owned, moving it. [`Bag::merge_owned`] consumes the left bag
//! and hands the kernel its pairs when `Arc::get_mut` says no other bag
//! and no weak `Version` holds its slice — an intermediate result, or the
//! fixpoint's accumulator. An owned left side of `∸` whose right side
//! holds under 1/16 of its keys is rewritten in place: the walk (over the
//! right side, binary-searching the left) lowers each multiplicity where
//! it sits, zeroes the keys it drops, and the slice is compacted once at
//! the end, so the merge needs no second buffer. The evaluator's merges
//! consume their left operand; the reference reads it borrowed.
//!
//! The slice sits behind an [`Arc`] (as a `Vec`, so a uniquely-owned bag
//! can still be mutated in place) with copy-on-write mutation: cloning a
//! bag — which the evaluator does for every variable lookup, every λ
//! binding, and every nested-bag value — is a reference-count bump, and
//! shared clones unlock pointer-equality fast paths in `==` and `cmp`.
//!
//! Insert-heavy construction goes through [`BagBuilder`], which batches
//! out-of-order insertions and merges them in bulk instead of paying a
//! `memmove` per insertion.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock, Weak};

use crate::index::ValueHasher;
use crate::natural::Natural;
use crate::value::Value;

/// An error from a primitive bag operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BagError {
    /// Cartesian product or projection applied to a non-tuple element.
    NotATuple(Value),
    /// Bag-destroy `δ` applied to a bag whose elements are not bags.
    NotABag(Value),
    /// Attribute projection `α₀`: attribute indices are 1-based, so index
    /// zero is invalid on every tuple (distinct from [`BagError::BadArity`],
    /// which reports a positive index past the tuple's arity).
    AttrIndexZero,
    /// Attribute projection `αᵢ` with an out-of-range index `i ≥ 1`.
    BadArity {
        /// Requested 1-based attribute index.
        index: usize,
        /// Actual tuple arity.
        arity: usize,
    },
    /// An operator's output would exceed the caller's element budget.
    /// `predicted` is the exact predicted count for powerset/powerbag
    /// (`Π(mᵢ+1)` distinct subbags) and the distinct-pair upper bound
    /// `|B|·|B′|` for the Cartesian product.
    TooLarge {
        /// Predicted number of distinct output elements.
        predicted: Natural,
        /// The caller-imposed budget.
        limit: u64,
    },
}

impl fmt::Display for BagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagError::NotATuple(v) => write!(f, "expected a tuple element, got {v}"),
            BagError::NotABag(v) => write!(f, "expected a bag element, got {v}"),
            BagError::AttrIndexZero => {
                f.write_str("attribute indices are 1-based: α0 is not a valid attribute")
            }
            BagError::BadArity { index, arity } => {
                write!(f, "attribute α{index} out of range for arity {arity}")
            }
            BagError::TooLarge { predicted, limit } => write!(
                f,
                "operator would produce {predicted} elements, over the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for BagError {}

/// Resolve the 1-based attribute `index` in a tuple's fields — the shared
/// `αᵢ` semantics of the BALG and RALG evaluators. Index 0 is rejected
/// explicitly as [`BagError::AttrIndexZero`] (attribute indices are
/// 1-based; the old `wrapping_sub` lookup happened to miss but produced a
/// misleading `BadArity { index: 0, .. }`), and positive out-of-range
/// indices report the actual arity.
pub fn attr_field(fields: &[Value], index: usize) -> Result<&Value, BagError> {
    let i = index.checked_sub(1).ok_or(BagError::AttrIndexZero)?;
    fields.get(i).ok_or(BagError::BadArity {
        index,
        arity: fields.len(),
    })
}

/// `true` iff `indices` is `1, 2, …, k` (`k ≥ 0`): the leading attributes,
/// on which the sorted slice is already clustered into key runs (module
/// doc). The one test behind [`Bag::nest`]'s run walk, the prefix
/// projections and the evaluator's `key-runs`/`key-hash` profile tags.
pub fn is_key_prefix(indices: &[usize]) -> bool {
    indices.iter().enumerate().all(|(i, &ix)| ix == i + 1)
}

/// The fields `key` picks out of a row, in key order. Every index must be
/// in range (`1..=fields.len()`); callers check it with [`attr_field`].
pub(crate) fn key_fields<'a>(
    key: &'a [usize],
    fields: &'a [Value],
) -> impl Iterator<Item = &'a Value> + 'a {
    key.iter().map(move |&ix| &fields[ix - 1])
}

/// A borrowed row seen through its key: hashes and compares only the key
/// fields, so grouping never clones a key.
#[derive(Clone, Copy)]
struct KeyView<'a> {
    key: &'a [usize],
    fields: &'a [Value],
}

impl Hash for KeyView<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        key_fields(self.key, self.fields).for_each(|field| field.hash(state));
    }
}

impl PartialEq for KeyView<'_> {
    fn eq(&self, other: &KeyView<'_>) -> bool {
        key_fields(self.key, self.fields).eq(key_fields(other.key, other.fields))
    }
}

impl Eq for KeyView<'_> {}

/// The grouping kernel for keys that are not a prefix of the row (module
/// doc, § *Grouping by hash*): rows borrowed from a bag's slice, grouped by
/// their key fields, each group accumulating an `A` — a multiplicity sum
/// for a projection, the member rows for `nest`. Fed in slice order, every
/// group sees its rows in slice order; the distinct keys are sorted once,
/// by [`KeyGroups::into_sorted`].
///
/// The first [`KeyGroups::SCAN`] groups are found by comparing key fields
/// one group after another; past that, every group is filed under a hash
/// of its key fields ([`ValueHasher`]). A handful of groups — a point
/// select's one row — never pays for a hash table.
pub(crate) struct KeyGroups<'a, A> {
    key: &'a [usize],
    /// Every group so far, in the order of its first row.
    groups: Vec<(&'a [Value], A)>,
    /// Each group's position in `groups`, once there are more than
    /// [`KeyGroups::SCAN`].
    positions: HashMap<KeyView<'a>, usize, BuildHasherDefault<ValueHasher>>,
}

impl<'a, A> KeyGroups<'a, A> {
    /// The most groups found by comparison alone.
    const SCAN: usize = 8;

    /// No groups yet, keyed on the 1-based attributes `key`.
    pub(crate) fn new(key: &'a [usize]) -> Self {
        KeyGroups {
            key,
            groups: Vec::new(),
            positions: HashMap::default(),
        }
    }

    /// The accumulator of the group `fields` belongs to, made by `new` if
    /// the group is new. Every key index must be in range for `fields`.
    pub(crate) fn entry(&mut self, fields: &'a [Value], new: impl FnOnce() -> A) -> &mut A {
        let key = self.key;
        let view = KeyView { key, fields };
        let found = if self.groups.len() <= Self::SCAN {
            self.groups
                .iter()
                .position(|(first, _)| KeyView { key, fields: first } == view)
        } else {
            if self.positions.is_empty() {
                self.positions = self
                    .groups
                    .iter()
                    .enumerate()
                    .map(|(at, (first, _))| (KeyView { key, fields: first }, at))
                    .collect();
            }
            self.positions.get(&view).copied()
        };
        let at = found.unwrap_or_else(|| {
            let at = self.groups.len();
            if !self.positions.is_empty() {
                self.positions.insert(view, at);
            }
            self.groups.push((fields, new()));
            at
        });
        &mut self.groups[at].1
    }

    /// The key the groups are made on.
    pub(crate) fn key(&self) -> &'a [usize] {
        self.key
    }

    /// The number of groups so far.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Every group in ascending key order: the fields of a row it holds
    /// (its key fields are the group's key) and its accumulator.
    pub(crate) fn into_sorted(mut self) -> Vec<(&'a [Value], A)> {
        let key = self.key;
        // Distinct keys: an unstable sort is exact.
        self.groups
            .sort_unstable_by(|a, b| key_fields(key, a.0).cmp(key_fields(key, b.0)));
        self.groups
    }
}

/// A homogeneous bag of [`Value`]s with exact [`Natural`] multiplicities.
///
/// Invariant: the pair slice is strictly ascending in [`Value`] order and
/// stores no multiplicity-zero entries, so equality and ordering of bags
/// are canonical and iteration is in the total [`Value`] order, which the
/// PSPACE encoding of Theorem 5.1 relies on.
///
/// Cloning is `O(1)` (shared `Arc`); the first mutation of a shared bag
/// copies the pair slice (copy-on-write).
#[derive(Clone, Debug)]
pub struct Bag {
    elems: Arc<Vec<(Value, Natural)>>,
}

/// All empty bags share one allocation, so `Bag::new()` is free and
/// comparisons against the empty bag hit the pointer-equality fast path.
fn shared_empty() -> Arc<Vec<(Value, Natural)>> {
    static EMPTY: OnceLock<Arc<Vec<(Value, Natural)>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new())).clone()
}

/// One version of a bag, named without keeping it alive: a `Weak` to its
/// slice. The `Weak` pins the allocation's address, so a freed and reused
/// address never matches a stale handle. And while a handle is held, an
/// in-place mutation of the slice through `Arc::make_mut` moves it to a
/// new allocation, so a matching bag also has the content it had.
#[derive(Clone, Debug, Default)]
pub(crate) struct Version(Weak<Vec<(Value, Natural)>>);

impl Version {
    /// The handle of `bag`'s current version.
    pub(crate) fn of(bag: &Bag) -> Version {
        Version(Arc::downgrade(&bag.elems))
    }

    /// `true` iff `bag` is the version this handle names.
    pub(crate) fn is(&self, bag: &Bag) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&bag.elems))
    }
}

impl Default for Bag {
    fn default() -> Bag {
        Bag::new()
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Bag) -> bool {
        Arc::ptr_eq(&self.elems, &other.elems) || self.elems == other.elems
    }
}

impl Eq for Bag {}

impl PartialOrd for Bag {
    fn partial_cmp(&self, other: &Bag) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bag {
    fn cmp(&self, other: &Bag) -> Ordering {
        if Arc::ptr_eq(&self.elems, &other.elems) {
            return Ordering::Equal;
        }
        // Lexicographic over (element, multiplicity) pairs in element
        // order — identical to the order the BTreeMap representation
        // induced, so `Value`'s total order is unchanged.
        self.elems.cmp(&other.elems)
    }
}

impl Hash for Bag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.elems).hash(state);
    }
}

impl Bag {
    /// The empty bag `⟦⟧`.
    pub fn new() -> Bag {
        Bag {
            elems: shared_empty(),
        }
    }

    /// Wrap a pair vector that already satisfies the representation
    /// invariant (strictly ascending keys, no zero multiplicities).
    pub(crate) fn from_sorted_vec(pairs: Vec<(Value, Natural)>) -> Bag {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bag keys must be strictly ascending"
        );
        debug_assert!(
            pairs.iter().all(|(_, m)| !m.is_zero()),
            "bags store no zero multiplicities"
        );
        if pairs.is_empty() {
            return Bag::new();
        }
        Bag {
            elems: Arc::new(pairs),
        }
    }

    /// Mutable access to the pair vector for same-crate patching
    /// ([`crate::zbag::ZBag::apply_into`]); copy-on-write like every
    /// mutation, and the caller must re-establish the invariant.
    pub(crate) fn elems_mut(&mut self) -> &mut Vec<(Value, Natural)> {
        Arc::make_mut(&mut self.elems)
    }

    /// `true` iff another clone holds this bag's slice, so a patch must
    /// copy it. The shared empty slice always counts as shared.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.elems) > 1
    }

    /// Read-only view of the sorted `(element, multiplicity)` pair slice
    /// (strictly ascending keys, no zero multiplicities) — what the
    /// [`crate::join`] loops walk. Construction stays
    /// crate-private, so the invariant cannot be broken through this view.
    pub fn pairs(&self) -> &[(Value, Natural)] {
        &self.elems
    }

    /// Check the representation invariant: strictly ascending keys, no
    /// zero multiplicities. `true` on a well-formed bag. Intended for
    /// `debug_assert!` at construction boundaries and for test harnesses;
    /// it is `O(n)` and should not guard hot paths.
    pub fn debug_validate(&self) -> bool {
        self.elems.windows(2).all(|w| w[0].0 < w[1].0)
            && self.elems.iter().all(|(_, mult)| !mult.is_zero())
    }

    /// `true` iff the two bags share one copy-on-write slice allocation —
    /// the identity the [`crate::index::IndexCache`] keys cached indexes
    /// by. Shared representation implies equality; the converse does not
    /// hold (equal bags may be separately allocated).
    pub fn shares_representation(&self, other: &Bag) -> bool {
        Arc::ptr_eq(&self.elems, &other.elems)
    }

    /// The bagging constructor `β(o) = ⟦o⟧`: a bag where `o` 1-belongs.
    pub fn singleton(value: Value) -> Bag {
        Bag::from_sorted_vec(vec![(value, Natural::one())])
    }

    /// A bag containing `count` occurrences of `value` — the paper's `Bᵗᵢ`
    /// notation and its integer encoding (an integer `i` is the bag with
    /// `i` occurrences of a fixed constant).
    pub fn repeated(value: Value, count: impl Into<Natural>) -> Bag {
        let count = count.into();
        if count.is_zero() {
            return Bag::new();
        }
        Bag::from_sorted_vec(vec![(value, count)])
    }

    /// Build from values, each contributing one occurrence.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Bag {
        let mut builder = BagBuilder::new();
        for value in values {
            builder.push_one(value);
        }
        builder.build()
    }

    /// Build from `(value, multiplicity)` pairs; zero multiplicities are
    /// dropped, duplicate keys accumulate.
    pub fn from_counted(pairs: impl IntoIterator<Item = (Value, Natural)>) -> Bag {
        let mut builder = BagBuilder::new();
        for (value, mult) in pairs {
            builder.push(value, mult);
        }
        builder.build()
    }

    /// Add one occurrence of `value`.
    pub fn insert(&mut self, value: Value) {
        self.insert_with_multiplicity(value, Natural::one());
    }

    /// Add `mult` occurrences of `value` (no-op when `mult` is zero).
    ///
    /// Appending past the current maximum element is `O(1)` amortized;
    /// out-of-order insertion into a uniquely-owned bag is a binary search
    /// plus a `memmove`. Prefer [`BagBuilder`] for loops that insert in
    /// arbitrary order.
    pub fn insert_with_multiplicity(&mut self, value: Value, mult: Natural) {
        if mult.is_zero() {
            return;
        }
        let elems = Arc::make_mut(&mut self.elems);
        match elems.last_mut() {
            None => elems.push((value, mult)),
            Some(last) => match last.0.cmp(&value) {
                Ordering::Less => elems.push((value, mult)),
                Ordering::Equal => last.1 += &mult,
                Ordering::Greater => match elems.binary_search_by(|probe| probe.0.cmp(&value)) {
                    Ok(ix) => elems[ix].1 += &mult,
                    Err(ix) => elems.insert(ix, (value, mult)),
                },
            },
        }
    }

    /// The number of occurrences of `o` — the `n` such that `o` n-belongs.
    pub fn multiplicity(&self, value: &Value) -> Natural {
        match self.elems.binary_search_by(|probe| probe.0.cmp(value)) {
            Ok(ix) => self.elems[ix].1.clone(),
            Err(_) => Natural::zero(),
        }
    }

    /// `true` iff `o` p-belongs for some `p > 0`.
    pub fn contains(&self, value: &Value) -> bool {
        self.elems
            .binary_search_by(|probe| probe.0.cmp(value))
            .is_ok()
    }

    /// Total number of occurrences, `Σ mᵢ` (the paper's bag size up to
    /// encoding constants).
    pub fn cardinality(&self) -> Natural {
        self.elems.iter().map(|(_, m)| m).sum()
    }

    /// Number of distinct elements.
    pub fn distinct_count(&self) -> usize {
        self.elems.len()
    }

    /// `true` iff the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Iterate over `(element, multiplicity)` in element order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Natural)> {
        self.elems.iter().map(|(v, m)| (v, m))
    }

    /// Iterate over distinct elements in order.
    pub fn elements(&self) -> impl Iterator<Item = &Value> {
        self.elems.iter().map(|(v, _)| v)
    }

    /// The maximal multiplicity of any element (zero for the empty bag).
    /// This is the quantity bounded polynomially in Theorem 4.4 and
    /// exponentially in Theorem 5.1.
    pub fn max_multiplicity(&self) -> Natural {
        self.elems
            .iter()
            .map(|(_, m)| m)
            .max()
            .cloned()
            .unwrap_or_default()
    }

    /// Subbag test `B ⊑ B′`: whenever `o` n-belongs to `B`, `o` p-belongs
    /// to `B′` for some `p ≥ n`. Walks `B` and finds each key in the rest
    /// of `B′` with the find step of the keywise merge (module doc): a
    /// two-pointer walk, or a binary search once `B′` holds more than 16×
    /// the keys.
    pub fn is_subbag_of(&self, other: &Bag) -> bool {
        if Arc::ptr_eq(&self.elems, &other.elems) {
            return true;
        }
        if self.distinct_count() > other.distinct_count() {
            return false;
        }
        let skewed = is_skewed(self.elems.len(), other.elems.len());
        let mut lo = 0;
        for (value, mult) in self.elems.iter() {
            match find_key(&other.elems[lo..], value, skewed) {
                Ok(ix) if &other.elems[lo + ix].1 >= mult => lo += ix + 1,
                _ => return false,
            }
        }
        true
    }

    // ----- basic bag operations (Section 3) -----

    /// The keywise merge `B op B′`: `o` has multiplicity `f(p, q)` in the
    /// result (module doc, § *One keywise merge*).
    pub fn merge(&self, other: &Bag, op: MergeOp) -> Bag {
        self.merge_short_cut(other, op).unwrap_or_else(|| {
            Bag::from_sorted_vec(merge_slices(&self.elems[..], &other.elems, op))
        })
    }

    /// [`Bag::merge`] consuming the left operand: when nothing else holds
    /// its slice — no other bag, and no weak handle such as a patch's
    /// `Version` — the kernel moves its pairs instead of cloning them, and
    /// `∸` against a right side under 1/16 of its keys rewrites it in
    /// place (module doc, § *One keywise merge*). Equal to [`Bag::merge`]
    /// in every case.
    pub fn merge_owned(mut self, other: &Bag, op: MergeOp) -> Bag {
        if let Some(out) = self.merge_short_cut(other, op) {
            return out;
        }
        let pairs = match Arc::get_mut(&mut self.elems).map(std::mem::take) {
            None => merge_slices(&self.elems[..], &other.elems, op),
            Some(pairs) if op == MergeOp::Monus && is_skewed(other.elems.len(), pairs.len()) => {
                merge_slices(InPlace::new(pairs), &other.elems, op)
            }
            Some(pairs) => merge_slices(Moved(pairs.into_iter()), &other.elems, op),
        };
        Bag::from_sorted_vec(pairs)
    }

    /// The merges that need no walk, or `None`: an empty side leaves the
    /// other side whole or nothing, by its keep flag, and a bag merged
    /// with its own representation has `f(p, p)` at every key — doubled,
    /// emptied or shared.
    fn merge_short_cut(&self, other: &Bag, op: MergeOp) -> Option<Bag> {
        let (keep_left, keep_right) = op.keeps();
        if other.is_empty() {
            return Some(if keep_left { self.clone() } else { Bag::new() });
        }
        if self.is_empty() {
            return Some(if keep_right {
                other.clone()
            } else {
                Bag::new()
            });
        }
        if !self.shares_representation(other) {
            return None;
        }
        Some(match op {
            MergeOp::Add => self.scale(&Natural::from(2u64)),
            MergeOp::Monus => Bag::new(),
            MergeOp::Max | MergeOp::Min => self.clone(),
        })
    }

    /// Additive union `B ∪⁺ B′`: multiplicities add (`n = p + q`).
    pub fn additive_union(&self, other: &Bag) -> Bag {
        self.merge(other, MergeOp::Add)
    }

    /// Subtraction `B − B′`: monus on multiplicities (`n = sup(0, p − q)`).
    pub fn subtract(&self, other: &Bag) -> Bag {
        self.merge(other, MergeOp::Monus)
    }

    /// Maximal union `B ∪ B′`: `n = sup(p, q)`.
    pub fn max_union(&self, other: &Bag) -> Bag {
        self.merge(other, MergeOp::Max)
    }

    /// Intersection `B ∩ B′`: `n = inf(p, q)`.
    pub fn intersect(&self, other: &Bag) -> Bag {
        self.merge(other, MergeOp::Min)
    }

    /// Duplicate elimination `ε(B)`: each element of `B` 1-belongs to the
    /// result. Already-duplicate-free bags are shared, not copied.
    pub fn dedup(&self) -> Bag {
        if self.elems.iter().all(|(_, m)| m.is_one()) {
            return self.clone();
        }
        Bag::from_sorted_vec(
            self.elems
                .iter()
                .map(|(value, _)| (value.clone(), Natural::one()))
                .collect(),
        )
    }

    /// Scale every multiplicity by `factor` (used by `δ` on nested bags
    /// with duplicated inner bags).
    pub fn scale(&self, factor: &Natural) -> Bag {
        if factor.is_zero() {
            return Bag::new();
        }
        if factor.is_one() {
            return self.clone();
        }
        Bag::from_sorted_vec(
            self.elems
                .iter()
                .map(|(value, mult)| (value.clone(), mult * factor))
                .collect(),
        )
    }

    // ----- constructive operations -----

    /// Cartesian product `B × B′` on bags of tuples: tuples concatenate and
    /// multiplicities multiply (`n = p·q`). The distinct-element budget is
    /// enforced *inside* the loop, so an over-budget product reports
    /// [`BagError::TooLarge`] without ever materializing the full
    /// `|B|·|B′|` intermediate.
    ///
    /// When every left element has the same arity the concatenated tuples
    /// inherit the operands' order, so the output is emitted already
    /// sorted and duplicate-free; mixed left arities fall back to a
    /// [`BagBuilder`] (concatenations can collide, merging multiplicities).
    pub fn product(&self, other: &Bag, max_elements: u64) -> Result<Bag, BagError> {
        if self.is_empty() {
            return Ok(Bag::new());
        }
        let mut left_arity: Option<usize> = None;
        let mut uniform = true;
        for (value, _) in self.elems.iter() {
            let fields = value
                .as_tuple()
                .ok_or_else(|| BagError::NotATuple(value.clone()))?;
            match left_arity {
                None => left_arity = Some(fields.len()),
                Some(a) if a == fields.len() => {}
                Some(_) => uniform = false,
            }
        }
        let predicted = || {
            &Natural::from(self.distinct_count() as u64)
                * &Natural::from(other.distinct_count() as u64)
        };
        if uniform {
            let cap = (self.elems.len() as u128 * other.elems.len() as u128)
                .min(max_elements as u128) as usize;
            let mut out: Vec<(Value, Natural)> = Vec::with_capacity(cap);
            for (left, lm) in self.elems.iter() {
                let left_fields = left.as_tuple().expect("scanned above");
                for (right, rm) in other.elems.iter() {
                    let right_fields = right
                        .as_tuple()
                        .ok_or_else(|| BagError::NotATuple(right.clone()))?;
                    if out.len() as u64 >= max_elements {
                        return Err(BagError::TooLarge {
                            predicted: predicted(),
                            limit: max_elements,
                        });
                    }
                    out.push((Value::concat_tuples(left_fields, right_fields), lm * rm));
                }
            }
            Ok(Bag::from_sorted_vec(out))
        } else {
            let mut out = BagBuilder::new();
            for (left, lm) in self.elems.iter() {
                let left_fields = left.as_tuple().expect("scanned above");
                for (right, rm) in other.elems.iter() {
                    let right_fields = right
                        .as_tuple()
                        .ok_or_else(|| BagError::NotATuple(right.clone()))?;
                    out.push(Value::concat_tuples(left_fields, right_fields), lm * rm);
                    if out.ensure_distinct_within(max_elements).is_err() {
                        return Err(BagError::TooLarge {
                            predicted: predicted(),
                            limit: max_elements,
                        });
                    }
                }
            }
            Ok(out.build())
        }
    }

    /// Powerset `P(B) = ⟦b | b ⊑ B⟧`: one occurrence of **each distinct
    /// subbag** of `B`. There are exactly `Π (mᵢ + 1)` of them. Because
    /// that count explodes, callers pass an element budget and receive
    /// [`BagError::TooLarge`] when the exact predicted count exceeds it.
    pub fn powerset(&self, max_elements: u64) -> Result<Bag, BagError> {
        self.subbags(max_elements, false)
    }

    /// The exact number of distinct subbags, `Π (mᵢ + 1)` — what
    /// [`Bag::powerset`] would produce. (`n + 1` for the paper's bag of
    /// `n` copies of one constant.)
    pub fn powerset_cardinality(&self) -> Natural {
        let mut total = Natural::one();
        for (_, mult) in self.elems.iter() {
            total *= &mult.succ();
        }
        total
    }

    /// Powerbag `P_b(B)` (Definition 5.1): distinguishes occurrences, so a
    /// subbag choosing `jᵢ` of `mᵢ` duplicates occurs `Π C(mᵢ, jᵢ)` times.
    /// Output cardinality is `2^|B|` (`2ⁿ` for `n` copies of one constant)
    /// while the number of *distinct* elements stays `Π (mᵢ + 1)`.
    pub fn powerbag(&self, max_elements: u64) -> Result<Bag, BagError> {
        self.subbags(max_elements, true)
    }

    /// The exact total cardinality of `P_b(B)`, namely `2^|B|`.
    ///
    /// When `|B| > u64::MAX` the value `2^|B|` is not representable (its
    /// limb vector alone would need ≥ 2^58 entries), so instead of
    /// attempting the allocation this reports [`BagError::TooLarge`] with
    /// the exact cardinality that overflowed.
    pub fn powerbag_cardinality(&self) -> Result<Natural, BagError> {
        let card = self.cardinality();
        match card.to_u64() {
            Some(n) => Ok(Natural::pow2(n)),
            None => Err(BagError::TooLarge {
                predicted: card,
                limit: u64::MAX,
            }),
        }
    }

    /// Bag-destroy `δ(B)` on a bag of bags:
    /// `δ(⟦x₁, …, xₙ⟧) = x₁ ∪⁺ ⋯ ∪⁺ xₙ` with duplicated inner bags
    /// contributing once per occurrence.
    pub fn destroy(&self) -> Result<Bag, BagError> {
        // δ(⟦x⟧) = x: share the inner bag instead of rebuilding it.
        if self.distinct_count() == 1 {
            let (value, mult) = self.elems.first().expect("one element");
            let inner = value
                .as_bag()
                .ok_or_else(|| BagError::NotABag(value.clone()))?;
            return Ok(if mult.is_one() {
                inner.clone()
            } else {
                inner.scale(mult)
            });
        }
        let mut out = BagBuilder::new();
        for (value, mult) in self.elems.iter() {
            let inner = value
                .as_bag()
                .ok_or_else(|| BagError::NotABag(value.clone()))?;
            for (elem, inner_mult) in inner.iter() {
                out.push(elem.clone(), inner_mult * mult);
            }
        }
        Ok(out.build())
    }

    // ----- filters -----

    /// Restructuring `MAP_φ(B)`: applies `φ` to every member; images
    /// accumulate multiplicities (`n = n₁ + ⋯ + n_l` over the preimages).
    pub fn map<E>(&self, mut f: impl FnMut(&Value) -> Result<Value, E>) -> Result<Bag, E> {
        let mut out = BagBuilder::new();
        for (value, mult) in self.elems.iter() {
            out.push(f(value)?, mult.clone());
        }
        Ok(out.build())
    }

    /// Selection `σ(B)`: keeps elements satisfying the predicate with their
    /// multiplicities. The output is a subsequence of the sorted slice, so
    /// it is built directly (no re-sorting).
    pub fn select<E>(&self, mut pred: impl FnMut(&Value) -> Result<bool, E>) -> Result<Bag, E> {
        let mut out = Vec::new();
        for (value, mult) in self.elems.iter() {
            if pred(value)? {
                out.push((value.clone(), mult.clone()));
            }
        }
        Ok(Bag::from_sorted_vec(out))
    }

    /// Projection helper `π_{i₁,…,iₙ}` over 1-based attribute indices —
    /// the paper's abbreviation for `MAP_{λx.[α_{i₁}(x), …]}`. Prefix
    /// indices `1..=k` take [`Bag::project_prefix`]; a row it declines is
    /// reported by the general path.
    pub fn project(&self, indices: &[usize]) -> Result<Bag, BagError> {
        if is_key_prefix(indices) {
            if let Some(out) = self.project_prefix(indices.len()) {
                return Ok(out);
            }
        }
        self.map(|value| {
            let fields = value
                .as_tuple()
                .ok_or_else(|| BagError::NotATuple(value.clone()))?;
            let mut out = Vec::with_capacity(indices.len());
            for &ix in indices {
                let field = fields.get(ix.checked_sub(1).ok_or(BagError::AttrIndexZero)?);
                out.push(
                    field
                        .ok_or(BagError::BadArity {
                            index: ix,
                            arity: fields.len(),
                        })?
                        .clone(),
                );
            }
            Ok(Value::Tuple(out.into()))
        })
    }

    /// `π_{1,…,k}` in one pass over key runs (module doc): each run of
    /// rows sharing their first `k` fields becomes one tuple whose
    /// multiplicity is the run's sum, and the output is born sorted.
    /// `None` when a row is not a tuple or has fewer than `k` fields, so
    /// each caller reports that row with its own error.
    pub fn project_prefix(&self, k: usize) -> Option<Bag> {
        let mut out: Vec<(Value, Natural)> = Vec::new();
        let mut run: &[Value] = &[];
        for (row, mult) in self.elems.iter() {
            let key = row.as_tuple()?.get(..k)?;
            match out.last_mut() {
                Some((_, sum)) if key == run => *sum += mult,
                _ => {
                    out.push((Value::Tuple(key.into()), mult.clone()));
                    run = key;
                }
            }
        }
        Some(Bag::from_sorted_vec(out))
    }

    /// The runs on which `α₁` compares the same way with each of
    /// `literals` (module doc): the ascending cut points `0 = c₀ < … <
    /// c_r = n`, two binary searches per literal, so `r ≤ 2·|literals| + 1`.
    /// `None` unless every row has an `α₁`, which the first row (a
    /// non-empty tuple) and the last (a tuple) prove.
    pub fn lead_runs(&self, literals: &[&Value]) -> Option<Vec<usize>> {
        let rows = &self.elems[..];
        let (first, last) = (&rows.first()?.0, &rows.last()?.0);
        if first.as_tuple().is_none_or(<[Value]>::is_empty) || last.as_tuple().is_none() {
            return None;
        }
        fn lead((row, _): &(Value, Natural)) -> Option<&Value> {
            row.as_tuple().and_then(<[Value]>::first)
        }
        let mut cuts = Vec::with_capacity(2 * literals.len() + 2);
        cuts.extend([0, rows.len()]);
        for &c in literals {
            let below = rows.partition_point(|row| lead(row) < Some(c));
            let equal = rows[below..].partition_point(|row| lead(row) == Some(c));
            cuts.extend([below, below + equal]);
        }
        cuts.sort_unstable();
        cuts.dedup();
        Some(cuts)
    }

    /// The nest operator of \[PG88\] (Conclusion): group a bag of tuples by
    /// the 1-based attributes in `group`; each distinct group key appears
    /// **once**, extended with a bag holding the residual-attribute tuples
    /// of its members (inner multiplicities preserved).
    ///
    /// A prefix key `1..=k` reads its groups straight off the slice's key
    /// runs; any other key groups the borrowed rows by hash (`KeyGroups`,
    /// module doc). Either way each group's members come in slice order, so
    /// each inner bag is born ascending and distinct, and the groups come
    /// out in key order. Every row is checked as it is read, in slice
    /// order, so the first bad row raises as it would in a row-by-row pass.
    pub fn nest(&self, group: &[usize]) -> Result<Bag, BagError> {
        let prefix = is_key_prefix(group);
        let mut rows: Vec<(&[Value], &Natural)> =
            Vec::with_capacity(if prefix { self.elems.len() } else { 0 });
        let mut groups = KeyGroups::new(group);
        for (row, mult) in self.elems.iter() {
            let fields = row
                .as_tuple()
                .ok_or_else(|| BagError::NotATuple(row.clone()))?;
            for &ix in group {
                attr_field(fields, ix)?;
            }
            if prefix {
                rows.push((fields, mult));
            } else {
                groups.entry(fields, Vec::new).push((fields, mult));
            }
        }
        // Every index is now known to be in range for every row.
        // Membership bitmask over 1-based attribute positions, so the
        // residual split is O(arity) per row instead of O(arity × |group|).
        // Fixed-size (no allocation keyed to attacker-controlled indices);
        // positions beyond the mask — which only matter for equally wide
        // rows — fall back to the linear scan.
        let mut mask = 0u128;
        for &ix in group {
            if (1..=128).contains(&ix) {
                mask |= 1 << (ix - 1);
            }
        }
        let residual = |fields: &[Value]| -> Value {
            if prefix {
                return Value::Tuple(fields[group.len()..].into());
            }
            let grouped = |i: usize| {
                if i < 128 {
                    mask >> i & 1 == 1
                } else {
                    group.contains(&(i + 1))
                }
            };
            Value::Tuple(
                fields
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !grouped(*i))
                    .map(|(_, v)| v.clone())
                    .collect(),
            )
        };
        let nested = |members: &[(&[Value], &Natural)]| {
            let inner = members
                .iter()
                .map(|(fields, mult)| (residual(fields), (*mult).clone()))
                .collect();
            let nested = Value::Bag(Bag::from_sorted_vec(inner));
            // An exact-size chain: one allocation for the whole tuple.
            let fields: Arc<[Value]> = key_fields(group, members[0].0)
                .cloned()
                .chain([nested])
                .collect();
            (Value::Tuple(fields), Natural::one())
        };
        let out = if prefix {
            rows.chunk_by(|a, b| key_fields(group, a.0).eq(key_fields(group, b.0)))
                .map(nested)
                .collect()
        } else {
            groups
                .into_sorted()
                .into_iter()
                .map(|(_, members)| nested(&members))
                .collect()
        };
        Ok(Bag::from_sorted_vec(out))
    }

    /// Every distinct subbag, in bag order, for `P` and `P_b`: with
    /// `weighed`, each occurs `Π C(mᵢ, cᵢ)` times, else once. A subbag is
    /// its choices `(eᵢ, cᵢ)`, `cᵢ ≥ 1`, in ascending `i`, and bags
    /// compare lexicographically over such pairs, a prefix first. So a
    /// preorder walk that emits each choice list before its extensions,
    /// extending by ascending `i`, then ascending `c`, emits the subbags
    /// in ascending order: every subbag slice, and the output slice, is
    /// born sorted. `TooLarge` is decided from the exact predicted count
    /// before anything is allocated.
    fn subbags(&self, max_elements: u64, weighed: bool) -> Result<Bag, BagError> {
        let predicted = self.powerset_cardinality();
        if predicted > Natural::from(max_elements) {
            return Err(BagError::TooLarge {
                predicted,
                limit: max_elements,
            });
        }
        let predicted = predicted.to_u64().expect("bounded by the element budget");
        let mut out = Vec::with_capacity(predicted as usize);
        let mut choices = Vec::with_capacity(self.elems.len());
        extend_subbags(
            &self.elems,
            &mut choices,
            &Natural::one(),
            weighed,
            &mut out,
        );
        Ok(Bag::from_sorted_vec(out))
    }
}

/// Emit the subbag `choices`, weighed `weight`, then every extension of
/// it by entries of `rest` in ascending order (preorder, [`Bag::subbags`]).
/// The depth is at most the number of distinct elements, which is at most
/// 64 since each one at least doubles the predicted count.
fn extend_subbags(
    rest: &[(Value, Natural)],
    choices: &mut Vec<(Value, Natural)>,
    weight: &Natural,
    weighed: bool,
    out: &mut Vec<(Value, Natural)>,
) {
    out.push((
        Value::Bag(Bag::from_sorted_vec(choices.clone())),
        weight.clone(),
    ));
    for (i, (value, mult)) in rest.iter().enumerate() {
        // Since Π(mᵢ+1) fits the budget (a u64), every mᵢ fits in u64.
        let m = mult.to_u64().expect("bounded by the element budget");
        for count in 1..=m {
            let weight = if weighed {
                weight * &Natural::binomial(mult, count)
            } else {
                Natural::one()
            };
            choices.push((value.clone(), Natural::from(count)));
            extend_subbags(&rest[i + 1..], choices, &weight, weighed, out);
            choices.pop();
        }
    }
}

/// The multiplicity interface shared by the ℕ-valued [`Bag`] machinery and
/// the ℤ-valued [`crate::zbag::ZBag`] delta machinery: the merge and the
/// builder below are generic over it, so both number systems run through
/// one implementation of the two-pointer merge and the overflow-buffer
/// accumulation strategy.
pub(crate) trait Multiplicity: Clone {
    /// Whether accumulating two nonzero values can produce zero. `false`
    /// for ℕ (addition only grows), `true` for ℤ (cancellation) — lets
    /// the shared machinery skip zero-filtering scans entirely on the ℕ
    /// hot paths.
    const CAN_CANCEL: bool;
    /// `true` iff this is the additive identity (such entries are dropped).
    fn is_zero(&self) -> bool;
    /// `self += other` in the multiplicity's own arithmetic.
    fn accumulate(&mut self, other: &Self);
}

impl Multiplicity for Natural {
    const CAN_CANCEL: bool = false;

    fn is_zero(&self) -> bool {
        Natural::is_zero(self)
    }

    fn accumulate(&mut self, other: &Natural) {
        *self += other;
    }
}

/// The four keywise merges of Section 3, each the function `f(p, q)` of
/// the two multiplicities at a key (module doc, § *One keywise merge*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOp {
    /// `∪⁺`: `p + q`.
    Add,
    /// `−`: monus, `sup(0, p − q)`.
    Monus,
    /// `∪`: `sup(p, q)`.
    Max,
    /// `∩`: `inf(p, q)`.
    Min,
}

impl MergeOp {
    /// `f(p, q)` at a key both sides hold; zero drops the key.
    fn combine(self, p: &Natural, q: &Natural) -> Natural {
        match self {
            MergeOp::Add => p + q,
            MergeOp::Monus => p.monus(q),
            MergeOp::Max => p.max(q).clone(),
            MergeOp::Min => p.min(q).clone(),
        }
    }

    /// Whether a key held only by the left (right) side survives:
    /// `f(p, 0) = p` (`f(0, q) = q`) rather than 0.
    fn keeps(self) -> (bool, bool) {
        match self {
            MergeOp::Add | MergeOp::Max => (true, true),
            MergeOp::Monus => (true, false),
            MergeOp::Min => (false, false),
        }
    }
}

/// The one keywise merge kernel: `op` over the sorted pairs of `a` and
/// `b`, the output sorted. It walks the side with fewer keys and finds
/// each key in the rest of the other side — by a linear scan, or by binary
/// search when that side holds more than 16× the keys — keeping or
/// skipping the run before it by that side's keep flag (module doc). The
/// left operand is read borrowed, cloning what it keeps, or owned,
/// moving it ([`Operand`]).
fn merge_slices<A: Operand>(
    mut a: A,
    mut b: &[(Value, Natural)],
    op: MergeOp,
) -> Vec<(Value, Natural)> {
    let (keep_a, keep_b) = op.keeps();
    let (a_len, b_len) = (a.rest().len(), b.len());
    let mut out = a.output(match (keep_a, keep_b) {
        (true, true) => a_len + b_len,
        (true, false) => a_len,
        _ => a_len.min(b_len),
    });
    // Walk the shorter side; flipped when that is `b`, so `f` still sees
    // its arguments in operand order.
    if a_len > b_len {
        walk(
            &mut b,
            &mut a,
            (keep_b, keep_a),
            |p, q| op.combine(q, p),
            &mut out,
        );
    } else {
        walk(
            &mut a,
            &mut b,
            (keep_a, keep_b),
            |p, q| op.combine(p, q),
            &mut out,
        );
    }
    a.finish(out)
}

/// The walk of [`merge_slices`] over `small`, finding each key in `big`;
/// `f(p, q)` with `p` from `small`. A key both sides hold is taken from
/// the owned side, if one is.
fn walk<S: Operand, B: Operand>(
    small: &mut S,
    big: &mut B,
    (keep_small, keep_big): (bool, bool),
    f: impl Fn(&Natural, &Natural) -> Natural,
    out: &mut Vec<(Value, Natural)>,
) {
    let skewed = is_skewed(small.rest().len(), big.rest().len());
    while let Some((value, p)) = small.rest().first() {
        let found = find_key(big.rest(), value, skewed);
        let (Ok(ix) | Err(ix)) = found;
        let combined = found.is_ok().then(|| f(p, &big.rest()[ix].1));
        big.pass(ix, keep_big, out);
        match combined {
            Some(m) if m.is_zero() => {
                small.pass(1, false, out);
                big.pass(1, false, out);
            }
            Some(m) if B::OWNED && !S::OWNED => {
                small.pass(1, false, out);
                big.keep_as(m, out);
            }
            Some(m) => {
                big.pass(1, false, out);
                small.keep_as(m, out);
            }
            None => small.pass(1, keep_small, out),
        }
    }
    let rest = big.rest().len();
    big.pass(rest, keep_big, out);
}

/// One operand of the keywise merge, read front to back by
/// [`merge_slices`]: a borrowed slice clones the pairs it keeps, an owned
/// vector ([`Moved`]) moves them, and the left side of a skewed `∸`
/// ([`InPlace`]) leaves them where they sit.
pub(crate) trait Operand {
    /// Whether the pairs are owned, so a key both sides hold is taken from
    /// this side rather than cloned from the other.
    const OWNED: bool;
    /// The pairs not read yet.
    fn rest(&self) -> &[(Value, Natural)];
    /// Read the next `n` pairs, keeping them in the result or not.
    fn pass(&mut self, n: usize, keep: bool, out: &mut Vec<(Value, Natural)>);
    /// Read the next pair, keeping its key with multiplicity `mult`.
    fn keep_as(&mut self, mult: Natural, out: &mut Vec<(Value, Natural)>);
    /// The buffer the walk writes kept pairs to.
    fn output(&self, capacity: usize) -> Vec<(Value, Natural)> {
        Vec::with_capacity(capacity)
    }
    /// The merged pairs, once both sides are read.
    fn finish(self, out: Vec<(Value, Natural)>) -> Vec<(Value, Natural)>
    where
        Self: Sized,
    {
        out
    }
}

impl Operand for &[(Value, Natural)] {
    const OWNED: bool = false;

    fn rest(&self) -> &[(Value, Natural)] {
        self
    }

    fn pass(&mut self, n: usize, keep: bool, out: &mut Vec<(Value, Natural)>) {
        if keep {
            out.extend_from_slice(&self[..n]);
        }
        *self = &self[n..];
    }

    fn keep_as(&mut self, mult: Natural, out: &mut Vec<(Value, Natural)>) {
        out.push((self[0].0.clone(), mult));
        *self = &self[1..];
    }
}

/// An owned operand whose kept pairs move into the result.
struct Moved(std::vec::IntoIter<(Value, Natural)>);

impl Operand for Moved {
    const OWNED: bool = true;

    fn rest(&self) -> &[(Value, Natural)] {
        self.0.as_slice()
    }

    fn pass(&mut self, n: usize, keep: bool, out: &mut Vec<(Value, Natural)>) {
        let run = self.0.by_ref().take(n);
        if keep {
            out.extend(run);
        } else {
            run.for_each(drop);
        }
    }

    fn keep_as(&mut self, mult: Natural, out: &mut Vec<(Value, Natural)>) {
        let (value, _) = self.0.next().expect("a pair is left");
        out.push((value, mult));
    }
}

/// An owned left operand of `∸` rewritten in place: a kept pair stays
/// where it sits, a dropped one is zeroed, and the zeroed pairs are
/// compacted away once, at the end. Sound only when the other side keeps
/// nothing of its own, and worth it when that side is small: `∸` drops at
/// most one key per right-side key, so the buffer stays mostly full.
struct InPlace {
    pairs: Vec<(Value, Natural)>,
    read: usize,
    dropped: bool,
}

impl InPlace {
    fn new(pairs: Vec<(Value, Natural)>) -> InPlace {
        InPlace {
            pairs,
            read: 0,
            dropped: false,
        }
    }
}

impl Operand for InPlace {
    const OWNED: bool = true;

    fn rest(&self) -> &[(Value, Natural)] {
        &self.pairs[self.read..]
    }

    fn pass(&mut self, n: usize, keep: bool, _: &mut Vec<(Value, Natural)>) {
        if !keep {
            for (_, mult) in &mut self.pairs[self.read..self.read + n] {
                *mult = Natural::zero();
            }
            self.dropped |= n > 0;
        }
        self.read += n;
    }

    fn keep_as(&mut self, mult: Natural, _: &mut Vec<(Value, Natural)>) {
        self.pairs[self.read].1 = mult;
        self.read += 1;
    }

    fn output(&self, _: usize) -> Vec<(Value, Natural)> {
        Vec::new()
    }

    fn finish(mut self, out: Vec<(Value, Natural)>) -> Vec<(Value, Natural)> {
        debug_assert!(out.is_empty(), "an in-place merge keeps only its own pairs");
        if self.dropped {
            self.pairs.retain(|(_, mult)| !mult.is_zero());
        }
        self.pairs
    }
}

/// Whether a walk over `small` keys finds them in `big` keys by binary
/// search rather than by the two-pointer step: once `big` holds more than
/// 16× the keys.
fn is_skewed(small: usize, big: usize) -> bool {
    small * 16 < big
}

/// The find step of the keywise walks ([`merge_slices`],
/// [`Bag::is_subbag_of`]): where `value` sits in the sorted `rest`, `Ok`
/// at its key or `Err` before the first greater one. A linear scan, one
/// comparison per key passed, or a binary search when `skewed`.
#[inline]
fn find_key<M>(rest: &[(Value, M)], value: &Value, skewed: bool) -> Result<usize, usize> {
    if skewed {
        return rest.binary_search_by(|probe| probe.0.cmp(value));
    }
    let mut ix = 0;
    loop {
        match rest.get(ix).map(|probe| probe.0.cmp(value)) {
            Some(Ordering::Less) => ix += 1,
            Some(Ordering::Equal) => return Ok(ix),
            _ => return Err(ix),
        }
    }
}

/// Two-pointer merge of two sorted pair sequences taken by value: keys
/// present on one side pass through, keys present on both are combined
/// with `combine`; zero results are dropped (for ℕ accumulation that never
/// happens, for ℤ addition it is how cancellation disappears). The
/// builders' compaction and the `ZBag` group operations run it; the ℕ
/// merges of Section 3 run `merge_slices`.
pub(crate) fn merge_sorted_pairs<M: Multiplicity>(
    a: impl IntoIterator<Item = (Value, M)>,
    b: impl IntoIterator<Item = (Value, M)>,
    mut combine: impl FnMut(M, M) -> M,
) -> Vec<(Value, M)> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut out = Vec::with_capacity(a.size_hint().0 + b.size_hint().0);
    loop {
        match (a.peek(), b.peek()) {
            (Some((av, _)), Some((bv, _))) => match av.cmp(bv) {
                Ordering::Less => out.push(a.next().expect("peeked")),
                Ordering::Greater => out.push(b.next().expect("peeked")),
                Ordering::Equal => {
                    let (value, am) = a.next().expect("peeked");
                    let (_, bm) = b.next().expect("peeked");
                    let combined = combine(am, bm);
                    if !M::CAN_CANCEL || !combined.is_zero() {
                        out.push((value, combined));
                    }
                }
            },
            (Some(_), None) => {
                out.extend(a);
                break;
            }
            (None, Some(_)) => {
                out.extend(b);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

/// The generic accumulation core of [`BagBuilder`] (and of the ℤ-valued
/// `ZBagBuilder`): a sorted prefix plus a small unsorted overflow buffer
/// bulk-merged on demand.
///
/// Signed multiplicities can cancel to zero in place; zeroed entries are
/// left where they sit (keys stay ascending) and filtered during
/// compaction, so [`PairBuffer::ensure_distinct_within`] remains exact
/// after a compact.
#[derive(Default)]
pub(crate) struct PairBuffer<M: Multiplicity> {
    /// Ascending keys — a valid prefix, except that signed accumulation
    /// may have zeroed some entries in place (filtered on compact).
    sorted: Vec<(Value, M)>,
    /// Unordered overflow of keys that were new and out-of-order when
    /// pushed. May contain internal duplicates; disjoint from `sorted`
    /// only at push time.
    pending: Vec<(Value, M)>,
}

impl<M: Multiplicity> PairBuffer<M> {
    /// Minimum overflow size before a bulk merge.
    const COMPACT_MIN: usize = 32;

    pub(crate) fn with_capacity(cap: usize) -> Self {
        PairBuffer {
            sorted: Vec::with_capacity(cap),
            pending: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        if !M::CAN_CANCEL {
            return self.sorted.is_empty() && self.pending.is_empty();
        }
        // Cancelling multiplicities can zero entries in place, so vector
        // emptiness alone under-reports emptiness.
        self.sorted
            .iter()
            .chain(self.pending.iter())
            .all(|(_, m)| m.is_zero())
    }

    pub(crate) fn push(&mut self, value: Value, mult: M) {
        if mult.is_zero() {
            return;
        }
        match self.sorted.last_mut() {
            None => {
                self.sorted.push((value, mult));
                return;
            }
            Some(last) => match last.0.cmp(&value) {
                Ordering::Less => {
                    self.sorted.push((value, mult));
                    return;
                }
                Ordering::Equal => {
                    last.1.accumulate(&mult);
                    return;
                }
                Ordering::Greater => {}
            },
        }
        // Out of order: merging into an existing entry needs no shift.
        if let Ok(ix) = self.sorted.binary_search_by(|probe| probe.0.cmp(&value)) {
            self.sorted[ix].1.accumulate(&mult);
            return;
        }
        self.pending.push((value, mult));
        if self.pending.len() >= Self::COMPACT_MIN.max(self.sorted.len() / 2) {
            self.compact();
        }
    }

    pub(crate) fn distinct_upper_bound(&self) -> usize {
        self.sorted.len() + self.pending.len()
    }

    pub(crate) fn ensure_distinct_within(&mut self, limit: u64) -> Result<(), u64> {
        if (self.sorted.len() + self.pending.len()) as u64 <= limit {
            return Ok(());
        }
        self.compact();
        let observed = self.sorted.len() as u64;
        if observed > limit {
            Err(observed)
        } else {
            Ok(())
        }
    }

    /// Sort the overflow buffer and bulk-merge it into the sorted prefix,
    /// dropping entries that cancelled to zero. The zero-filtering scans
    /// only exist for cancelling multiplicities (ℤ); for ℕ accumulation
    /// cannot produce zeros, so the builder hot paths skip them.
    fn compact(&mut self) {
        if self.pending.is_empty() {
            if M::CAN_CANCEL {
                self.sorted.retain(|(_, m)| !m.is_zero());
            }
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        // Collapse duplicate keys within the overflow.
        let mut merged: Vec<(Value, M)> = Vec::with_capacity(pending.len());
        for (value, mult) in pending {
            match merged.last_mut() {
                Some(last) if last.0 == value => last.1.accumulate(&mult),
                _ => merged.push((value, mult)),
            }
        }
        let mut old = std::mem::take(&mut self.sorted);
        if M::CAN_CANCEL {
            merged.retain(|(_, m)| !m.is_zero());
            old.retain(|(_, m)| !m.is_zero());
        }
        self.sorted = merge_sorted_pairs(old, merged, |mut x, y| {
            x.accumulate(&y);
            x
        });
    }

    /// Finish into the canonical sorted pair vector (ascending keys, no
    /// zeros).
    pub(crate) fn into_sorted(mut self) -> Vec<(Value, M)> {
        self.compact();
        self.sorted
    }
}

/// An accumulator for building a [`Bag`] by repeated insertion in
/// arbitrary order.
///
/// In-order insertions (each key ≥ the current maximum) append directly.
/// Out-of-order insertions first try to merge into an existing entry by
/// binary search (no shifting); genuinely new out-of-order keys land in a
/// small unsorted overflow buffer that is sorted and bulk-merged once it
/// grows past a fraction of the sorted prefix — `O(log n)` amortized per
/// insertion instead of the `O(n)` memmove a sorted `Vec` would pay.
///
/// The element budget of resource-limited evaluation is enforceable
/// mid-build via [`BagBuilder::ensure_distinct_within`], which is exact
/// whenever it matters: the distinct count can only exceed the budget if
/// `sorted + overflow` does, and that triggers a compaction.
#[derive(Default)]
pub struct BagBuilder {
    buffer: PairBuffer<Natural>,
}

impl BagBuilder {
    /// An empty builder.
    pub fn new() -> BagBuilder {
        BagBuilder::default()
    }

    /// An empty builder with room for `cap` in-order insertions.
    pub fn with_capacity(cap: usize) -> BagBuilder {
        BagBuilder {
            buffer: PairBuffer::with_capacity(cap),
        }
    }

    /// `true` iff nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Add one occurrence of `value`.
    pub fn push_one(&mut self, value: Value) {
        self.push(value, Natural::one());
    }

    /// Add `mult` occurrences of `value` (no-op when `mult` is zero).
    pub fn push(&mut self, value: Value, mult: Natural) {
        self.buffer.push(value, mult);
    }

    /// An upper bound on the number of distinct elements pushed so far
    /// (exact when the overflow buffer is empty).
    pub fn distinct_upper_bound(&self) -> usize {
        self.buffer.distinct_upper_bound()
    }

    /// Enforce a distinct-element budget mid-build: `Err(observed)` with
    /// the exact distinct count as soon as it exceeds `limit`. Cheap when
    /// comfortably under budget (two integer adds); compacts the overflow
    /// buffer only when the upper bound crosses the limit.
    pub fn ensure_distinct_within(&mut self, limit: u64) -> Result<(), u64> {
        self.buffer.ensure_distinct_within(limit)
    }

    /// Finish into a [`Bag`].
    pub fn build(self) -> Bag {
        let bag = Bag::from_sorted_vec(self.buffer.into_sorted());
        debug_assert!(bag.debug_validate(), "builder broke the bag invariant");
        bag
    }

    /// Finish into a duplicate-free [`Bag`] (every multiplicity clamped to
    /// one) — the set-semantics variant the RALG layer builds with.
    pub fn build_set(self) -> Bag {
        let mut sorted = self.buffer.into_sorted();
        for pair in &mut sorted {
            if !pair.1.is_one() {
                pair.1 = Natural::one();
            }
        }
        let bag = Bag::from_sorted_vec(sorted);
        debug_assert!(bag.debug_validate(), "builder broke the bag invariant");
        bag
    }
}

impl FromIterator<Value> for Bag {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Bag::from_values(iter)
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{{")?;
        let mut first = true;
        for (value, mult) in self.elems.iter() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            if mult.is_one() {
                write!(f, "{value}")?;
            } else {
                write!(f, "{value}^{mult}")?;
            }
        }
        f.write_str("}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sym(s: &str) -> Value {
        Value::sym(s)
    }

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    fn bag_of(pairs: &[(&str, u64)]) -> Bag {
        Bag::from_counted(pairs.iter().map(|(s, m)| (sym(s), nat(*m))))
    }

    /// The representation invariant: strictly ascending keys, no zeros.
    fn assert_invariant(bag: &Bag) {
        let pairs: Vec<_> = bag.iter().collect();
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(pairs.iter().all(|(_, m)| !m.is_zero()));
    }

    #[test]
    fn multiplicity_arithmetic_of_the_four_unions() {
        let b1 = bag_of(&[("a", 3), ("b", 1)]);
        let b2 = bag_of(&[("a", 2), ("c", 5)]);
        let add = b1.additive_union(&b2);
        assert_eq!(add.multiplicity(&sym("a")), nat(5));
        assert_eq!(add.multiplicity(&sym("b")), nat(1));
        assert_eq!(add.multiplicity(&sym("c")), nat(5));
        let sub = b1.subtract(&b2);
        assert_eq!(sub.multiplicity(&sym("a")), nat(1));
        assert_eq!(sub.multiplicity(&sym("b")), nat(1));
        assert!(!sub.contains(&sym("c"))); // sup(0, 0-5) = 0
        let max = b1.max_union(&b2);
        assert_eq!(max.multiplicity(&sym("a")), nat(3));
        assert_eq!(max.multiplicity(&sym("c")), nat(5));
        let int = b1.intersect(&b2);
        assert_eq!(int.multiplicity(&sym("a")), nat(2));
        assert!(!int.contains(&sym("b")));
        assert!(!int.contains(&sym("c")));
        for bag in [add, sub, max, int] {
            assert_invariant(&bag);
        }
    }

    #[test]
    fn zero_multiplicities_never_stored() {
        let b1 = bag_of(&[("a", 2)]);
        let b2 = bag_of(&[("a", 2)]);
        let diff = b1.subtract(&b2);
        assert!(diff.is_empty());
        assert_eq!(diff, Bag::new());
    }

    #[test]
    fn out_of_order_insertion_restores_the_invariant() {
        let mut bag = Bag::new();
        for s in ["m", "c", "z", "c", "a", "m"] {
            bag.insert(sym(s));
        }
        assert_invariant(&bag);
        assert_eq!(bag.distinct_count(), 4);
        assert_eq!(bag.multiplicity(&sym("c")), nat(2));
        let ordered: Vec<_> = bag.elements().cloned().collect();
        assert_eq!(ordered, vec![sym("a"), sym("c"), sym("m"), sym("z")]);
    }

    #[test]
    fn builder_matches_incremental_insertion() {
        let values = ["q", "a", "f", "a", "z", "f", "f", "b"];
        let mut builder = BagBuilder::new();
        let mut reference = Bag::new();
        for v in values {
            builder.push_one(sym(v));
            reference.insert(sym(v));
        }
        let built = builder.build();
        assert_eq!(built, reference);
        assert_invariant(&built);
    }

    #[test]
    fn builder_budget_is_enforced_incrementally() {
        let mut builder = BagBuilder::new();
        for i in (0..100i64).rev() {
            builder.push_one(Value::int(i));
            if builder.ensure_distinct_within(10).is_err() {
                return; // over budget exactly as distinct count crossed 10
            }
        }
        panic!("100 distinct values never tripped a budget of 10");
    }

    #[test]
    fn product_multiplies_multiplicities() {
        // The Section 4 counting technique: B with n×[a,b] and m×[b,a].
        let n = 4u64;
        let m = 3u64;
        let mut b = Bag::new();
        b.insert_with_multiplicity(Value::tuple([sym("a"), sym("b")]), nat(n));
        b.insert_with_multiplicity(Value::tuple([sym("b"), sym("a")]), nat(m));
        let prod = b.product(&b, u64::MAX).unwrap();
        let abab = Value::tuple([sym("a"), sym("b"), sym("a"), sym("b")]);
        let baab = Value::tuple([sym("b"), sym("a"), sym("a"), sym("b")]);
        assert_eq!(prod.multiplicity(&abab), nat(n * n));
        assert_eq!(prod.multiplicity(&baab), nat(m * n));
        assert_eq!(prod.cardinality(), nat((n + m) * (n + m)));
        assert_invariant(&prod);
    }

    #[test]
    fn product_rejects_non_tuples() {
        let b = Bag::singleton(sym("a"));
        assert!(matches!(
            b.product(&b, u64::MAX),
            Err(BagError::NotATuple(_))
        ));
    }

    #[test]
    fn product_budget_enforced_without_materializing() {
        // Regression for the unbounded-intermediate bug: the full |B|·|B′|
        // cross product must never be built when the budget is tiny.
        let b = Bag::from_values((0..1000i64).map(|i| Value::tuple([Value::int(i)])));
        match b.product(&b, 50) {
            Err(BagError::TooLarge { predicted, limit }) => {
                assert_eq!(predicted, nat(1_000_000));
                assert_eq!(limit, 50);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Mixed left arities take the builder path; same enforcement.
        let mut mixed = Bag::new();
        for i in 0..1000i64 {
            mixed.insert(Value::tuple([Value::int(i)]));
        }
        mixed.insert(Value::tuple([sym("w"), sym("w")]));
        assert!(matches!(
            mixed.product(&b, 50),
            Err(BagError::TooLarge { limit: 50, .. })
        ));
        // Within budget both paths still succeed exactly.
        let small = Bag::from_values((0..3i64).map(|i| Value::tuple([Value::int(i)])));
        assert_eq!(small.product(&small, 9).unwrap().distinct_count(), 9);
        assert!(small.product(&small, 8).is_err());
    }

    #[test]
    fn product_with_mixed_arities_merges_collisions() {
        // [a]×[b,c] and [a,b]×[c] concatenate to the same triple, so the
        // builder path must merge their multiplicities.
        let left = Bag::from_counted([
            (Value::tuple([sym("a")]), nat(2)),
            (Value::tuple([sym("a"), sym("b")]), nat(3)),
        ]);
        let right = Bag::from_counted([
            (Value::tuple([sym("b"), sym("c")]), nat(1)),
            (Value::tuple([sym("c")]), nat(1)),
        ]);
        let prod = left.product(&right, u64::MAX).unwrap();
        let triple = Value::tuple([sym("a"), sym("b"), sym("c")]);
        assert_eq!(prod.multiplicity(&triple), nat(2 + 3));
        assert_invariant(&prod);
    }

    #[test]
    fn powerset_of_n_copies_has_n_plus_1_elements() {
        // Introduction: "the powerbag of a bag containing n occurrences of a
        // single constant has cardinality 2^n, while its powerset has
        // cardinality n+1."
        for n in 0u64..6 {
            let b = Bag::repeated(sym("a"), n);
            let ps = b.powerset(1 << 20).unwrap();
            assert_eq!(ps.cardinality(), nat(n + 1));
            assert_eq!(b.powerset_cardinality(), nat(n + 1));
            let pb = b.powerbag(1 << 20).unwrap();
            assert_eq!(pb.cardinality(), Natural::pow2(n));
            assert_eq!(b.powerbag_cardinality().unwrap(), Natural::pow2(n));
            assert_invariant(&ps);
            assert_invariant(&pb);
        }
    }

    #[test]
    fn powerset_elements_are_exactly_the_subbags() {
        let b = bag_of(&[("a", 2), ("b", 1)]);
        let ps = b.powerset(1 << 20).unwrap();
        assert_eq!(ps.cardinality(), nat(6)); // (2+1)(1+1)
        for (sub, mult) in ps.iter() {
            assert!(mult.is_one());
            assert!(sub.as_bag().unwrap().is_subbag_of(&b));
        }
        // Every subbag present.
        assert!(ps.contains(&Value::Bag(Bag::new())));
        assert!(ps.contains(&Value::Bag(b)));
        assert!(ps.contains(&Value::Bag(bag_of(&[("a", 1), ("b", 1)]))));
    }

    #[test]
    fn powerbag_matches_definition_5_1_example() {
        // P_b(⟦a,a⟧) = ⟦⟦⟧, ⟦a⟧, ⟦a⟧, ⟦a,a⟧⟧ vs P(⟦a,a⟧) = ⟦⟦⟧, ⟦a⟧, ⟦a,a⟧⟧.
        let b = Bag::repeated(sym("a"), 2u64);
        let pb = b.powerbag(100).unwrap();
        assert_eq!(pb.multiplicity(&Value::Bag(Bag::new())), nat(1));
        assert_eq!(
            pb.multiplicity(&Value::Bag(Bag::repeated(sym("a"), 1u64))),
            nat(2)
        );
        assert_eq!(pb.multiplicity(&Value::Bag(b.clone())), nat(1));
        let ps = b.powerset(100).unwrap();
        assert_eq!(
            ps.multiplicity(&Value::Bag(Bag::repeated(sym("a"), 1u64))),
            nat(1)
        );
    }

    #[test]
    fn powerbag_cardinality_rejects_unrepresentable_exponent() {
        // |B| = 2^70 > u64::MAX: 2^|B| would need a ~2^64-limb vector, so
        // the prediction must refuse instead of attempting the allocation.
        let huge = Bag::repeated(sym("a"), Natural::pow2(70));
        match huge.powerbag_cardinality() {
            Err(BagError::TooLarge { predicted, .. }) => {
                assert_eq!(predicted, Natural::pow2(70));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Representable sizes still compute exactly.
        assert_eq!(
            Bag::repeated(sym("a"), 10u64)
                .powerbag_cardinality()
                .unwrap(),
            Natural::pow2(10)
        );
    }

    #[test]
    fn powerset_respects_budget() {
        let b = Bag::repeated(sym("a"), 1_000_000u64);
        let err = b.powerset(1000).unwrap_err();
        match err {
            BagError::TooLarge { predicted, limit } => {
                assert_eq!(predicted, nat(1_000_001));
                assert_eq!(limit, 1000);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn destroy_sums_inner_bags_scaled_by_outer_multiplicity() {
        // δ(⟦⟦a,a⟧, ⟦a,b⟧²⟧) = ⟦a⁴, b²⟧
        let inner1 = bag_of(&[("a", 2)]);
        let inner2 = bag_of(&[("a", 1), ("b", 1)]);
        let mut outer = Bag::new();
        outer.insert(Value::Bag(inner1));
        outer.insert_with_multiplicity(Value::Bag(inner2), nat(2));
        let flat = outer.destroy().unwrap();
        assert_eq!(flat.multiplicity(&sym("a")), nat(4));
        assert_eq!(flat.multiplicity(&sym("b")), nat(2));
        assert_invariant(&flat);
    }

    #[test]
    fn destroy_rejects_non_bags() {
        let b = Bag::singleton(sym("a"));
        assert!(matches!(b.destroy(), Err(BagError::NotABag(_))));
    }

    #[test]
    fn map_accumulates_preimage_multiplicities() {
        // MAP_{λx.β(x)}(⟦a,a,b⟧) = ⟦⟦a⟧,⟦a⟧,⟦b⟧⟧ — i.e. ⟦a⟧ has mult 2.
        let b = bag_of(&[("a", 2), ("b", 1)]);
        let mapped: Bag = b
            .map(|v| Ok::<_, std::convert::Infallible>(Value::Bag(Bag::singleton(v.clone()))))
            .unwrap();
        assert_eq!(
            mapped.multiplicity(&Value::Bag(Bag::singleton(sym("a")))),
            nat(2)
        );
        // Collapsing map: everything to one constant sums all multiplicities.
        let collapsed: Bag = b
            .map(|_| Ok::<_, std::convert::Infallible>(sym("z")))
            .unwrap();
        assert_eq!(collapsed.multiplicity(&sym("z")), nat(3));
    }

    #[test]
    fn select_preserves_multiplicities() {
        let b = bag_of(&[("a", 2), ("b", 5)]);
        let picked = b
            .select(|v| Ok::<_, std::convert::Infallible>(*v == sym("b")))
            .unwrap();
        assert_eq!(picked.multiplicity(&sym("b")), nat(5));
        assert_eq!(picked.distinct_count(), 1);
    }

    #[test]
    fn dedup_keeps_one_of_each_and_shares_when_clean() {
        let b = bag_of(&[("a", 7), ("b", 2)]);
        let d = b.dedup();
        assert_eq!(d.multiplicity(&sym("a")), nat(1));
        assert_eq!(d.multiplicity(&sym("b")), nat(1));
        assert_eq!(d.cardinality(), nat(2));
        let dd = d.dedup();
        assert_eq!(dd, d); // idempotent
        assert!(Arc::ptr_eq(&dd.elems, &d.elems)); // and shared, not copied
    }

    #[test]
    fn nest_rejects_huge_attribute_index_without_allocating() {
        // A hostile 1-based index must produce BadArity (or an empty
        // result on an empty bag), never an index-sized allocation.
        let mut b = Bag::new();
        b.insert(Value::tuple([sym("x"), sym("y")]));
        assert!(matches!(
            b.nest(&[1_000_000_000_000]),
            Err(BagError::BadArity { .. })
        ));
        assert!(Bag::new().nest(&[1_000_000_000_000]).unwrap().is_empty());
        // Group indices past the u128 mask still split correctly when the
        // rows are wide enough.
        let wide = Bag::from_values([Value::tuple((0..130).map(Value::int))]);
        let nested = wide.nest(&[130]).unwrap();
        let (row, _) = nested.iter().next().unwrap();
        let fields = row.as_tuple().unwrap();
        assert_eq!(fields[0], Value::int(129)); // key = attribute 130
        let residual = fields[1].as_bag().unwrap();
        let (res_row, _) = residual.iter().next().unwrap();
        assert_eq!(res_row.as_tuple().unwrap().len(), 129);
    }

    #[test]
    fn nest_past_the_scan_matches_a_naive_group_by() {
        // 600 rows `[k mod 7, 37k mod 50]`, every third one with a third
        // field: 50 groups on `α₂`, so most are filed by hash.
        let bag = Bag::from_counted((0..600i64).map(|k| {
            let mut fields = vec![Value::int(k % 7), Value::int(37 * k % 50)];
            if k % 3 == 0 {
                fields.push(Value::int(k));
            }
            (Value::tuple(fields), nat(1 + (k % 4) as u64))
        }));
        for group in [&[2][..], &[2, 2], &[2, 1], &[1, 2]] {
            let key_of = |row: &Value| {
                let fields = row.as_tuple().unwrap();
                Value::tuple(group.iter().map(|&i| fields[i - 1].clone()))
            };
            let residual = |row: &Value| {
                let fields = row.as_tuple().unwrap();
                Value::tuple(
                    (1..=fields.len())
                        .filter(|i| !group.contains(i))
                        .map(|i| fields[i - 1].clone()),
                )
            };
            let keys: std::collections::BTreeSet<Value> = bag.elements().map(key_of).collect();
            let naive = Bag::from_values(keys.into_iter().map(|key| {
                let members = bag.iter().filter(|(row, _)| key_of(row) == key);
                let inner = Bag::from_counted(members.map(|(row, m)| (residual(row), m.clone())));
                let mut fields = key.as_tuple().unwrap().to_vec();
                fields.push(Value::Bag(inner));
                Value::tuple(fields)
            }));
            assert_eq!(bag.nest(group).unwrap(), naive, "nest on {group:?}");
        }
    }

    #[test]
    fn project_is_map_composition() {
        let mut b = Bag::new();
        b.insert(Value::tuple([sym("x"), sym("y"), sym("z")]));
        let projected = b.project(&[3, 1]).unwrap();
        assert!(projected.contains(&Value::tuple([sym("z"), sym("x")])));
        assert!(matches!(
            b.project(&[4]),
            Err(BagError::BadArity { index: 4, arity: 3 })
        ));
        assert!(matches!(b.project(&[0]), Err(BagError::AttrIndexZero)));
    }

    #[test]
    fn subbag_partial_order() {
        let small = bag_of(&[("a", 1)]);
        let big = bag_of(&[("a", 3), ("b", 1)]);
        assert!(small.is_subbag_of(&big));
        assert!(!big.is_subbag_of(&small));
        assert!(Bag::new().is_subbag_of(&small));
        assert!(small.is_subbag_of(&small));
        // Interleaved keys exercise the merge walk.
        let sparse = bag_of(&[("b", 1), ("d", 1)]);
        let dense = bag_of(&[("a", 1), ("b", 2), ("c", 9), ("d", 1), ("e", 1)]);
        assert!(sparse.is_subbag_of(&dense));
        assert!(!dense.is_subbag_of(&sparse));
    }

    #[test]
    fn algebraic_laws_on_samples() {
        let b1 = bag_of(&[("a", 3), ("b", 1)]);
        let b2 = bag_of(&[("a", 1), ("c", 2)]);
        let b3 = bag_of(&[("b", 4)]);
        // Commutativity (∪⁺, ∪, ∩) and associativity (∪⁺, ∪, ∩).
        assert_eq!(b1.additive_union(&b2), b2.additive_union(&b1));
        assert_eq!(b1.max_union(&b2), b2.max_union(&b1));
        assert_eq!(b1.intersect(&b2), b2.intersect(&b1));
        assert_eq!(
            b1.additive_union(&b2).additive_union(&b3),
            b1.additive_union(&b2.additive_union(&b3))
        );
        assert_eq!(
            b1.max_union(&b2).max_union(&b3),
            b1.max_union(&b2.max_union(&b3))
        );
        assert_eq!(
            b1.intersect(&b2).intersect(&b3),
            b1.intersect(&b2.intersect(&b3))
        );
        // Self-application fast paths agree with the general merges.
        assert_eq!(
            b1.additive_union(&b1).multiplicity(&sym("a")),
            nat(6) // 3 + 3 via the shared-Arc doubling path
        );
        assert_eq!(b1.max_union(&b1), b1);
        assert_eq!(b1.intersect(&b1), b1);
        assert!(b1.subtract(&b1).is_empty());
    }

    #[test]
    fn asymmetric_intersect_probes_the_big_side() {
        let big = Bag::from_counted((0..4096i64).map(|i| (Value::int(i), nat(i as u64 % 3 + 1))));
        let small = Bag::from_counted([(Value::int(17), nat(9)), (Value::int(4000), nat(1))]);
        let both = big.intersect(&small);
        assert_eq!(both, small.intersect(&big));
        assert_eq!(both.multiplicity(&Value::int(17)), nat(3).min(nat(9)));
        assert_eq!(both.distinct_count(), 2);
    }

    #[test]
    fn display_uses_multiplicity_exponents() {
        let b = bag_of(&[("a", 2), ("b", 1)]);
        assert_eq!(b.to_string(), "{{a^2, b}}");
    }
}
