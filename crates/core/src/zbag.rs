//! ℤ-bags: bags with **signed** multiplicities, the delta objects of
//! incremental view maintenance.
//!
//! The paper's whole point is that bags carry multiplicities; extending
//! the multiplicity monoid ℕ to the group ℤ makes every database update a
//! first-class algebraic object — a [`ZBag`] — that flows through the BALG
//! operators. An insertion of `o` is `+1·o`, a deletion is `−1·o`, and
//! for every *linear* operator `F` the maintained identity
//! `F(B ⊕ δ) = F(B) ⊕ F(δ)` answers a standing query in time proportional
//! to the delta (this is the classic Z-set / Z-relation construction of
//! the IVM literature, grounded here in the Section 3 operator set).
//!
//! The representation mirrors [`Bag`]: one sorted pair slice with no zero
//! entries, built through the same overflow-buffer machinery as
//! [`crate::bag::BagBuilder`] and merged with the same two-pointer
//! passes. Unlike [`Bag`] there is no copy-on-write `Arc`: a delta is a
//! small value, consumed by [`ZBag::patch`] / [`ZBag::apply_to`]. The one
//! delta that outlives its commit is a [`Spare`]'s *lag*.
//!
//! `Bag ⟶ ZBag` is the evident embedding, `ZBag::diff(bag, ∅)`
//! ([`ZBag::diff`]); the reverse direction is partial: [`ZBag::split`]
//! returns a bag exactly when its negative half is empty, and
//! [`ZBag::apply_to`] reports [`ZBagError::NegativeMultiplicity`] instead
//! of silently truncating, which would confuse a bad delta with monus.
//!
//! # Patching a bag a snapshot shares
//!
//! A server publishes immutable snapshots whose bags share their slices
//! with the runtime's, so the next write finds every bag it patches
//! shared, and copy-on-write would copy the whole slice, `O(n)` refcount
//! touches for a one-row delta, only for the old copy to be freed when
//! the new snapshot replaces the old one. [`ZBag::patch`] instead keeps
//! that old version as the bag's [`Spare`] (the left-right technique,
//! one bag at a time): once no snapshot holds it, the next patch brings
//! it up to date with the delta it lags by and applies its own delta, both
//! in place. The versions alternate between two buffers, and readers
//! still only ever see immutable slices.

use std::cmp::Ordering;
use std::fmt;

use crate::bag::{merge_sorted_pairs, Bag, Multiplicity, PairBuffer, Version};
use crate::natural::Natural;
use crate::value::Value;

/// A signed arbitrary-precision integer: the multiplicity group ℤ.
///
/// Canonical form: zero is never negative, so derived equality and
/// hashing agree with numeric equality.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ZInt {
    negative: bool,
    magnitude: Natural,
}

impl ZInt {
    /// The integer zero.
    pub fn zero() -> ZInt {
        ZInt::default()
    }

    /// The integer one.
    pub fn one() -> ZInt {
        ZInt::from_natural(Natural::one())
    }

    /// The integer minus one.
    pub fn neg_one() -> ZInt {
        ZInt::one().neg()
    }

    /// Embed a natural number.
    pub fn from_natural(magnitude: Natural) -> ZInt {
        ZInt {
            negative: false,
            magnitude,
        }
    }

    /// Build from a sign and a magnitude (canonicalizing `−0` to `0`).
    pub fn from_parts(negative: bool, magnitude: Natural) -> ZInt {
        ZInt {
            negative: negative && !magnitude.is_zero(),
            magnitude,
        }
    }

    /// `true` iff this is zero.
    pub fn is_zero(&self) -> bool {
        self.magnitude.is_zero()
    }

    /// `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// The absolute value.
    pub fn magnitude(&self) -> &Natural {
        &self.magnitude
    }

    /// Negation.
    pub fn neg(&self) -> ZInt {
        ZInt::from_parts(!self.negative, self.magnitude.clone())
    }

    /// The value as a [`Natural`] if it is non-negative.
    pub fn to_natural(&self) -> Option<Natural> {
        if self.negative {
            None
        } else {
            Some(self.magnitude.clone())
        }
    }

    /// `self + other` in ℤ (signed magnitudes combine via comparison and
    /// monus — [`Natural`] has no subtraction that can go below zero).
    pub fn add(&self, other: &ZInt) -> ZInt {
        if self.negative == other.negative {
            return ZInt::from_parts(self.negative, &self.magnitude + &other.magnitude);
        }
        match self.magnitude.cmp(&other.magnitude) {
            Ordering::Equal => ZInt::zero(),
            Ordering::Greater => {
                ZInt::from_parts(self.negative, self.magnitude.monus(&other.magnitude))
            }
            Ordering::Less => {
                ZInt::from_parts(other.negative, other.magnitude.monus(&self.magnitude))
            }
        }
    }

    /// `self · other` in ℤ.
    pub fn mul(&self, other: &ZInt) -> ZInt {
        ZInt::from_parts(
            self.negative != other.negative,
            &self.magnitude * &other.magnitude,
        )
    }
}

impl Multiplicity for ZInt {
    const CAN_CANCEL: bool = true;

    fn is_zero(&self) -> bool {
        ZInt::is_zero(self)
    }

    fn accumulate(&mut self, other: &ZInt) {
        *self = self.add(other);
    }
}

impl From<Natural> for ZInt {
    fn from(magnitude: Natural) -> ZInt {
        ZInt::from_natural(magnitude)
    }
}

impl From<u64> for ZInt {
    fn from(v: u64) -> ZInt {
        ZInt::from_natural(Natural::from(v))
    }
}

impl From<i64> for ZInt {
    fn from(v: i64) -> ZInt {
        ZInt::from_parts(v < 0, Natural::from(v.unsigned_abs()))
    }
}

impl PartialOrd for ZInt {
    fn partial_cmp(&self, other: &ZInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ZInt {
    fn cmp(&self, other: &ZInt) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.magnitude.cmp(&other.magnitude),
            (true, true) => other.magnitude.cmp(&self.magnitude),
        }
    }
}

impl fmt::Display for ZInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-{}", self.magnitude)
        } else {
            write!(f, "{}", self.magnitude)
        }
    }
}

/// An error from the checked `ZBag ⟶ Bag` direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZBagError {
    /// Extraction (or delta application) would produce a negative
    /// multiplicity for the given element — the delta deletes occurrences
    /// that are not there.
    NegativeMultiplicity {
        /// The element whose resulting multiplicity went below zero.
        value: Value,
    },
}

impl fmt::Display for ZBagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZBagError::NegativeMultiplicity { value } => {
                write!(f, "negative multiplicity for {value}")
            }
        }
    }
}

impl std::error::Error for ZBagError {}

/// A bag with signed multiplicities: the free ℤ-module over [`Value`]s.
///
/// Invariant (same as [`Bag`]): strictly ascending keys, no zero entries.
/// The additive structure is a *group* — [`ZBag::add`] cancels, and the
/// inverse of `p ⊖ n` is `n ⊖ p` — which is what makes deletion symmetric
/// with insertion.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ZBag {
    pairs: Vec<(Value, ZInt)>,
}

impl ZBag {
    /// The zero delta.
    pub fn new() -> ZBag {
        ZBag::default()
    }

    /// Wrap a pair vector already in canonical form.
    fn from_sorted_vec(pairs: Vec<(Value, ZInt)>) -> ZBag {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(pairs.iter().all(|(_, m)| !m.is_zero()));
        ZBag { pairs }
    }

    /// A single-element delta: `mult` (possibly negative) copies of
    /// `value`.
    pub fn singleton(value: Value, mult: ZInt) -> ZBag {
        if mult.is_zero() {
            return ZBag::new();
        }
        ZBag::from_sorted_vec(vec![(value, mult)])
    }

    /// Accumulate from arbitrary `(value, mult)` pairs (duplicates
    /// combine, zeros vanish).
    pub fn from_counted(pairs: impl IntoIterator<Item = (Value, ZInt)>) -> ZBag {
        let mut builder = ZBagBuilder::new();
        for (value, mult) in pairs {
            builder.push(value, mult);
        }
        builder.build()
    }

    /// `true` iff this is the zero delta.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Check the representation invariant: strictly ascending keys, no
    /// zero multiplicities — the ℤ counterpart of
    /// [`Bag::debug_validate`]. `O(n)`; for `debug_assert!` and tests.
    pub fn debug_validate(&self) -> bool {
        self.pairs.windows(2).all(|w| w[0].0 < w[1].0)
            && self.pairs.iter().all(|(_, mult)| !mult.is_zero())
    }

    /// Number of distinct elements carried.
    pub fn distinct_count(&self) -> usize {
        self.pairs.len()
    }

    /// Read-only view of the sorted `(element, signed multiplicity)` pair
    /// slice. Construction stays private, so exposing the slice cannot
    /// break the representation invariant; the [`crate::join`] loops walk
    /// delta rows through it.
    pub fn pairs(&self) -> &[(Value, ZInt)] {
        &self.pairs
    }

    /// Iterate over `(element, signed multiplicity)` in element order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &ZInt)> {
        self.pairs.iter().map(|(v, m)| (v, m))
    }

    /// The signed multiplicity of `value` (zero when absent).
    pub fn multiplicity(&self, value: &Value) -> ZInt {
        match self.pairs.binary_search_by(|probe| probe.0.cmp(value)) {
            Ok(ix) => self.pairs[ix].1.clone(),
            Err(_) => ZInt::zero(),
        }
    }

    /// Add `mult` copies of `value` in place (binary search; intended for
    /// small deltas — bulk construction goes through [`ZBagBuilder`]).
    pub fn insert(&mut self, value: Value, mult: ZInt) {
        if mult.is_zero() {
            return;
        }
        match self.pairs.binary_search_by(|probe| probe.0.cmp(&value)) {
            Ok(ix) => {
                self.pairs[ix].1.accumulate(&mult);
                if self.pairs[ix].1.is_zero() {
                    self.pairs.remove(ix);
                }
            }
            Err(ix) => self.pairs.insert(ix, (value, mult)),
        }
    }

    /// Group addition (the two-pointer merge; cancellations vanish).
    pub fn add(&self, other: &ZBag) -> ZBag {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        ZBag::from_sorted_vec(merge_sorted_pairs(
            self.pairs.iter().cloned(),
            other.pairs.iter().cloned(),
            |a, b| a.add(&b),
        ))
    }

    /// The pointwise difference `new − old` of two bags — the delta that
    /// [`ZBag::apply_to`] turns `old` back into `new`. This is how the
    /// non-linear fallback of the incremental engine re-expresses a
    /// re-derived node as a delta for its parents.
    pub fn diff(new: &Bag, old: &Bag) -> ZBag {
        ZBag::from_sorted_vec(merge_sorted_pairs(
            new.iter()
                .map(|(v, m)| (v.clone(), ZInt::from_natural(m.clone()))),
            old.iter()
                .map(|(v, m)| (v.clone(), ZInt::from_parts(true, m.clone()))),
            |a, b| a.add(&b),
        ))
    }

    /// Apply the delta to a base bag: `base ⊕ self`, checked to stay in ℕ
    /// everywhere.
    pub fn apply_to(&self, base: &Bag) -> Result<Bag, ZBagError> {
        self.apply_into(base.clone())
    }

    /// Whether [`ZBag::apply_into`] patches `base` in place: the delta has
    /// at most one pair per eight of `base`'s.
    fn patches_in_place(&self, base: &Bag) -> bool {
        self.pairs.len() * 8 <= base.distinct_count()
    }

    /// `base ⊕ self`, consuming the base, with `spare` the bag's [`Spare`]
    /// (the module doc's *Patching a bag a snapshot shares*). The rule:
    ///
    /// 1. `base` is not shared: patch it in place. A spare that tracks
    ///    `base` adds the delta to its lag, and is dropped once the lag
    ///    would no longer patch its buffer in place.
    /// 2. `base` is shared, and the spare is usable: it tracks `base`, no
    ///    clone holds its buffer any more, and its lag and this delta both
    ///    patch in place. Then the lag brings the buffer up to `base`'s
    ///    version, the delta is applied on top, and `base` becomes the new
    ///    spare with this delta as its lag.
    /// 3. Otherwise copy `base` as [`ZBag::apply_to`] does, and keep
    ///    `base` as the spare when this delta patches in place.
    ///
    /// A spare only ever catches up to the version it last returned
    /// (named by a `Weak`), so a bag replaced any other way is never
    /// caught up from it. Nothing shares a bag that nobody clones, so such
    /// a bag never gets a spare. On error the base may be partially patched
    /// and is dropped, and so is the spare; callers that need atomicity
    /// validate first (see `ViewRuntime::apply`).
    pub fn patch(&self, base: Bag, spare: &mut Spare) -> Result<Bag, ZBagError> {
        if self.is_empty() {
            return Ok(base);
        }
        // Taken out first: while the handle is held, an in-place patch of
        // `base` would move its slice to a new allocation.
        let tracked = std::mem::take(&mut spare.issued).is(&base);
        let buffer = spare.buffer.take().filter(|_| tracked);
        let lag = std::mem::take(&mut spare.lag);
        if !base.is_shared() {
            let new = self.apply_into(base)?;
            if let Some(buffer) = buffer {
                let lag = lag.add(self);
                if lag.patches_in_place(&buffer) {
                    *spare = Spare::issue(buffer, lag, &new);
                }
            }
            return Ok(new);
        }
        if let Some(buffer) = buffer.filter(|buffer| {
            !buffer.is_shared() && lag.patches_in_place(buffer) && self.patches_in_place(&base)
        }) {
            let caught_up = lag
                .apply_into(buffer)
                .expect("the lag leads the spare to the version it issued");
            debug_assert!(caught_up == base, "a caught-up spare must equal its bag");
            let new = self.apply_into(caught_up)?;
            *spare = Spare::issue(base, self.clone(), &new);
            return Ok(new);
        }
        let new = self.apply_into(base.clone())?;
        if self.patches_in_place(&base) {
            *spare = Spare::issue(base, self.clone(), &new);
        }
        Ok(new)
    }

    /// As [`ZBag::apply_to`], consuming the base. A small delta against a
    /// uniquely-owned base patches the pair slice **in place** (binary
    /// search plus a memmove per new key). Outside this module every
    /// patch goes through [`ZBag::patch`], which calls this. On error the
    /// base may be partially patched and is dropped.
    pub(crate) fn apply_into(&self, mut base: Bag) -> Result<Bag, ZBagError> {
        if self.is_empty() {
            return Ok(base);
        }
        if self.patches_in_place(&base) {
            let elems = base.elems_mut();
            for (value, mult) in &self.pairs {
                match elems.binary_search_by(|probe| probe.0.cmp(value)) {
                    Ok(ix) => {
                        if mult.is_negative() {
                            let magnitude = mult.magnitude();
                            match elems[ix].1.cmp(magnitude) {
                                Ordering::Less => {
                                    return Err(ZBagError::NegativeMultiplicity {
                                        value: value.clone(),
                                    })
                                }
                                Ordering::Equal => {
                                    elems.remove(ix);
                                }
                                Ordering::Greater => {
                                    let rest = elems[ix].1.monus(magnitude);
                                    elems[ix].1 = rest;
                                }
                            }
                        } else {
                            elems[ix].1 += mult.magnitude();
                        }
                    }
                    Err(ix) => match mult.to_natural() {
                        Some(m) => elems.insert(ix, (value.clone(), m)),
                        None => {
                            return Err(ZBagError::NegativeMultiplicity {
                                value: value.clone(),
                            })
                        }
                    },
                }
            }
            return Ok(base);
        }
        let merged = merge_sorted_pairs(
            base.iter()
                .map(|(v, m)| (v.clone(), ZInt::from_natural(m.clone()))),
            self.pairs.iter().cloned(),
            |a, b| a.add(&b),
        );
        let mut out = Vec::with_capacity(merged.len());
        for (value, mult) in merged {
            match mult.to_natural() {
                Some(m) => out.push((value, m)),
                None => return Err(ZBagError::NegativeMultiplicity { value }),
            }
        }
        Ok(Bag::from_sorted_vec(out))
    }

    /// The positive and negative parts: the bags `(p, n)` with
    /// `self = p ⊖ n`, so `ZBag::diff(&p, &n) == self`. A linear operator
    /// `F` maps the delta as `F(p) ⊖ F(n)` with ℕ-bag kernels only — how
    /// the incremental engine runs `MAP`, `σ` and `δ` on a delta.
    pub fn split(&self) -> (Bag, Bag) {
        let (mut positive, mut negative) = (Vec::new(), Vec::new());
        for (value, mult) in &self.pairs {
            let part = if mult.is_negative() {
                &mut negative
            } else {
                &mut positive
            };
            part.push((value.clone(), mult.magnitude().clone()));
        }
        (
            Bag::from_sorted_vec(positive),
            Bag::from_sorted_vec(negative),
        )
    }
}

impl fmt::Display for ZBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{{")?;
        for (i, (value, mult)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{value}^{mult}")?;
        }
        f.write_str("}}")
    }
}

/// What [`ZBag::patch`] keeps of a bag's previous version so that the next
/// patch of the bag, while a snapshot shares it, can reuse that version's
/// buffer instead of copying. Empty (the default) until a patch finds its
/// bag shared. One per patched bag: the incremental runtime keeps one per
/// base and one per materialized view node.
#[derive(Clone, Debug, Default)]
pub struct Spare {
    /// The previous version; `None` when there is no spare.
    buffer: Option<Bag>,
    /// The delta from `buffer`'s version to `issued`'s.
    lag: ZBag,
    /// The version the last patch returned.
    issued: Version,
}

impl Spare {
    /// The spare `buffer`, lagging `new` (the version just returned) by
    /// `lag`.
    fn issue(buffer: Bag, lag: ZBag, new: &Bag) -> Spare {
        Spare {
            buffer: Some(buffer),
            lag,
            issued: Version::of(new),
        }
    }
}

/// An accumulator for building a [`ZBag`] by repeated signed insertion —
/// the ℤ instantiation of the [`BagBuilder`](crate::bag::BagBuilder)
/// overflow-buffer machinery.
#[derive(Default)]
pub struct ZBagBuilder {
    buffer: PairBuffer<ZInt>,
}

impl ZBagBuilder {
    /// An empty builder.
    pub fn new() -> ZBagBuilder {
        ZBagBuilder::default()
    }

    /// `true` iff nothing (or only cancelling pairs) has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Add `mult` signed copies of `value`.
    pub fn push(&mut self, value: Value, mult: ZInt) {
        self.buffer.push(value, mult);
    }

    /// Finish into a [`ZBag`].
    pub fn build(self) -> ZBag {
        let zbag = ZBag::from_sorted_vec(self.buffer.into_sorted());
        debug_assert!(zbag.debug_validate(), "builder broke the ℤ-bag invariant");
        zbag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Published snapshots and their deltas cross session threads.
    #[test]
    fn core_values_cross_threads() {
        assert_send_sync::<Value>();
        assert_send_sync::<Bag>();
        assert_send_sync::<Natural>();
        assert_send_sync::<ZBag>();
    }

    fn sym(s: &str) -> Value {
        Value::sym(s)
    }

    fn z(v: i64) -> ZInt {
        ZInt::from(v)
    }

    #[test]
    fn zint_arithmetic() {
        assert_eq!(z(3).add(&z(-5)), z(-2));
        assert_eq!(z(-3).add(&z(5)), z(2));
        assert_eq!(z(3).add(&z(-3)), ZInt::zero());
        assert!(!z(3).add(&z(-3)).is_negative()); // canonical zero
        assert_eq!(z(-3).mul(&z(-4)), z(12));
        assert_eq!(z(-3).mul(&z(4)), z(-12));
        assert_eq!(z(7).neg(), z(-7));
        assert!(z(-1) < ZInt::zero());
        assert!(z(-5) < z(-2));
        assert!(z(2) < z(5));
        assert_eq!(z(-2).to_string(), "-2");
        assert_eq!(z(-4).to_natural(), None);
        assert_eq!(z(4).to_natural(), Some(Natural::from(4u64)));
    }

    #[test]
    fn embedding_roundtrip() {
        let bag = Bag::from_counted([
            (sym("a"), Natural::from(2u64)),
            (sym("b"), Natural::from(1u64)),
        ]);
        let zbag = ZBag::diff(&bag, &Bag::new());
        assert_eq!(zbag.split(), (bag, Bag::new()));
    }

    #[test]
    fn group_laws_and_cancellation() {
        let delta = ZBag::from_counted([(sym("a"), z(2)), (sym("b"), z(-1))]);
        let (positive, negative) = delta.split();
        assert!(delta.add(&ZBag::diff(&negative, &positive)).is_empty());
        let twice = delta.add(&delta);
        assert_eq!(twice.multiplicity(&sym("a")), z(4));
        assert_eq!(twice.multiplicity(&sym("b")), z(-2));
        let three = Natural::from(3u64);
        let times_minus_three = ZBag::diff(&negative.scale(&three), &positive.scale(&three));
        assert_eq!(times_minus_three.multiplicity(&sym("a")), z(-6));
    }

    #[test]
    fn diff_then_apply_roundtrips() {
        let old = Bag::from_counted([
            (sym("a"), Natural::from(3u64)),
            (sym("b"), Natural::from(1u64)),
        ]);
        let new = Bag::from_counted([
            (sym("a"), Natural::from(1u64)),
            (sym("c"), Natural::from(2u64)),
        ]);
        let delta = ZBag::diff(&new, &old);
        assert_eq!(delta.multiplicity(&sym("a")), z(-2));
        assert_eq!(delta.multiplicity(&sym("b")), z(-1));
        assert_eq!(delta.multiplicity(&sym("c")), z(2));
        assert_eq!(delta.apply_to(&old).unwrap(), new);
        assert_eq!(ZBag::diff(&old, &new).apply_to(&new).unwrap(), old);
    }

    #[test]
    fn checked_extraction_rejects_negative() {
        let delta = ZBag::singleton(sym("a"), z(-1));
        assert_eq!(delta.split(), (Bag::new(), Bag::singleton(sym("a"))));
        // Deleting from an element that isn't there is an error, not monus.
        let base = Bag::singleton(sym("b"));
        assert!(matches!(
            delta.apply_to(&base),
            Err(ZBagError::NegativeMultiplicity { .. })
        ));
        // Deleting exactly what is there is fine.
        let base = Bag::singleton(sym("a"));
        assert!(delta.apply_to(&base).unwrap().is_empty());
    }

    #[test]
    fn patch_and_merge_application_paths_agree() {
        let base =
            Bag::from_counted((0..64i64).map(|i| (Value::int(i), Natural::from(i as u64 % 3 + 1))));
        // Small vs base → in-place patch path; the group-theoretic spec
        // (embed, add, extract with an empty negative half) is the oracle
        // for both.
        let small = ZBag::from_counted([
            (Value::int(3), z(-1)),
            (Value::int(5), z(-3)), // multiplicity of 5 is exactly 3: entry vanishes
            (Value::int(100), z(2)),
        ]);
        // Large vs base → the merge path.
        let large = ZBag::from_counted((0..64i64).map(|i| (Value::int(i), z(1))));
        for delta in [&small, &large] {
            let (expected, negative) = ZBag::diff(&base, &Bag::new()).add(delta).split();
            assert!(negative.is_empty());
            assert_eq!(delta.apply_to(&base).unwrap(), expected);
            assert_eq!(delta.apply_into(base.clone()).unwrap(), expected);
        }
        assert!(!small.apply_to(&base).unwrap().contains(&Value::int(5)));
        // Over-deletion errs on both paths.
        let over_small = ZBag::singleton(Value::int(2), z(-100));
        let over_large = ZBag::from_counted((0..64i64).map(|i| (Value::int(i), z(-100)))); // merge path
        assert!(over_small.apply_to(&base).is_err());
        assert!(over_large.apply_to(&base).is_err());
        // A negative delta on an absent key errs on the patch path too.
        assert!(ZBag::singleton(Value::int(999), z(-1))
            .apply_to(&base)
            .is_err());
    }

    #[test]
    fn builder_is_empty_sees_in_place_cancellation() {
        let mut builder = ZBagBuilder::new();
        assert!(builder.is_empty());
        builder.push(sym("a"), ZInt::one());
        assert!(!builder.is_empty());
        builder.push(sym("a"), ZInt::neg_one());
        assert!(builder.is_empty(), "cancelled pair must read as empty");
        assert!(builder.build().is_empty());
    }

    #[test]
    fn builder_cancels_across_overflow() {
        // Signed pushes that cancel inside the pending buffer and across
        // the sorted prefix must vanish from the built delta.
        let mut builder = ZBagBuilder::new();
        for i in (0..100i64).rev() {
            builder.push(Value::int(i), z(1));
        }
        for i in 0..100i64 {
            if i % 2 == 0 {
                builder.push(Value::int(i), z(-1));
            }
        }
        let built = builder.build();
        assert_eq!(built.distinct_count(), 50);
        assert!(built.iter().all(|(v, m)| {
            let Value::Atom(crate::value::Atom::Int(i)) = v else {
                return false;
            };
            i % 2 == 1 && *m == ZInt::one()
        }));
    }
}
