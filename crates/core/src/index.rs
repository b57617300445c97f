//! Secondary indexes over bags: per-key join indexes.
//!
//! The sorted-slice [`Bag`] answers *ordered* probes in `O(log n)`, but
//! the equi-join `σ_{αᵢ=αⱼ}(B × B′)` is keyed by an **attribute of the
//! element**, not by the element itself: it wants all rows of one operand
//! whose `i`-th field equals a probe key. [`BagIndex`] groups a bag's rows
//! by one attribute so a join (and, in `balg-incremental`, a join *delta*)
//! touches only the rows keyed by the values it carries, `O(matches)`
//! instead of `O(|other side|)`. A subbag test `s ⊑ C` needs no index: the
//! evaluator hoists `C` out of the loop, and [`Bag::is_subbag_of`] walks
//! `s` with a binary search once `C` is 16× bigger.
//!
//! [`IndexCache`] makes the join index reusable across evaluations: a
//! least-recently-used list of at most [`IndexCache::DEFAULT_CAPACITY`]
//! entries, keyed by the **representation pointer** of the bag's
//! copy-on-write slice, each holding a clone of the indexed bag.
//! That clone is what makes pointer keying sound: while an entry lives,
//! the slice allocation cannot be freed (no pointer reuse), and any
//! mutation of the bag goes through `Arc::make_mut`, which must copy the
//! now-shared slice — so a cached pointer can never silently refer to
//! changed data.
//!
//! An evaluator owns a fresh cache unless one is lent to it
//! ([`crate::eval::Evaluator::set_index_cache`]). The incremental view
//! runtime keeps **one** persistent cache and lends it to every evaluator
//! it builds — registration, maintenance and re-derivation alike — so a
//! join delta probes the same base index every commit. What the
//! evaluator caches is decided on a double miss: an operand that
//! *outlives the evaluation* (it reads no λ-bound variable, or the
//! evaluator's database holds its bag) is indexed and cached; when
//! neither operand does, the index is built for the one join and
//! dropped, so a probe over a delta never leaves a dead entry pinning
//! its bag. The one caller that *wants* in-place mutation (that
//! runtime's base-patch commit) is the only exception to pointer
//! keying's no-mutation rule: it first [`IndexCache::take_for_patch`]es
//! the entries out — restoring unique ownership — applies the same delta
//! to base and index, and restores the patched index under the new
//! representation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::bag::Bag;
use crate::natural::Natural;
use crate::value::Value;
use crate::zbag::ZInt;

/// A word-at-a-time multiply-xor hasher for [`Value`] keys, used by the
/// join indexes and by `bag::KeyGroups`. The default SipHash
/// costs more than the probes it guards on the small tuple keys these
/// maps carry. Integer writes mix one word each instead of looping over
/// bytes — `Value`'s derived `Hash` is almost entirely discriminants and
/// `i64`s.
///
/// The trade: the hash is unkeyed, and its keys are not trusted. Index
/// keys and grouping keys are fields of rows that clients `INSERT`, so a
/// client that knows this function can craft a key set whose hashes
/// collide and push an index build or a grouping to quadratic time. That
/// is the whole exposure: equal hashes only cost comparisons, so a crafted
/// key set cannot change a result, and cannot abort the process. A keyed
/// hash, or a cap on probe lengths, would close it; neither is done yet.
pub struct ValueHasher(u64);

impl ValueHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Default for ValueHasher {
    fn default() -> Self {
        ValueHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for ValueHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_ne_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// A hash map keyed by [`Value`]s through [`ValueHasher`].
pub type ValueMap<V> = HashMap<Value, V, BuildHasherDefault<ValueHasher>>;

/// The delta handed to [`BagIndex::patch`] did not match the indexed rows
/// (a deletion of a row the index never saw, or a row of the wrong
/// shape). The caller drops the index and rebuilds lazily.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMismatch;

impl std::fmt::Display for IndexMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("delta does not match the indexed rows")
    }
}

impl std::error::Error for IndexMismatch {}

/// A per-attribute secondary index over a bag of uniform-arity tuples:
/// for one 1-based attribute, every distinct key value maps to the rows
/// (with multiplicities) carrying it, each group in ascending row order.
///
/// Built in one pass over the sorted slice (groups inherit the bag's
/// element order, so no per-group sort). [`BagIndex::patch`] keeps an
/// index consistent under a `Bag<ZInt>` delta in `O(|δ| log(group))`, which
/// is how the incremental runtime's cached base indexes survive update
/// batches without a rebuild.
#[derive(Clone, Debug)]
pub struct BagIndex {
    attr: usize,
    arity: usize,
    groups: ValueMap<Vec<(Value, Natural)>>,
    rows: usize,
}

impl BagIndex {
    /// Index `bag` by its 1-based attribute `attr`. Returns `None` when
    /// the bag is not indexable this way: empty (no arity witness — the
    /// join paths need one), a non-tuple element, mixed arities, or
    /// `attr` out of range. Row clones are `Arc` bumps.
    pub fn build(bag: &Bag, attr: usize) -> Option<BagIndex> {
        if attr == 0 || bag.is_empty() {
            return None;
        }
        let mut arity = None;
        let mut groups: ValueMap<Vec<(Value, Natural)>> = ValueMap::default();
        for (value, mult) in bag.iter() {
            let fields = value.as_tuple()?;
            match arity {
                None => {
                    if fields.len() < attr {
                        return None;
                    }
                    arity = Some(fields.len());
                }
                Some(a) if a == fields.len() => {}
                Some(_) => return None,
            }
            groups
                .entry(fields[attr - 1].clone())
                .or_default()
                .push((value.clone(), mult.clone()));
        }
        Some(BagIndex {
            attr,
            arity: arity.expect("non-empty bag has an arity witness"),
            groups,
            rows: bag.distinct_count(),
        })
    }

    /// The indexed 1-based attribute.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// The uniform arity of the indexed rows.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct rows indexed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// All rows whose indexed attribute equals `key`, in ascending row
    /// order (empty for an absent key).
    pub fn group(&self, key: &Value) -> &[(Value, Natural)] {
        self.groups.get(key).map_or(&[], Vec::as_slice)
    }

    /// Apply a signed delta to the index, keeping it consistent with
    /// `delta.apply_to(indexed bag)`. On [`IndexMismatch`] the index may
    /// be partially patched and must be discarded.
    pub fn patch(&mut self, delta: &Bag<ZInt>) -> Result<(), IndexMismatch> {
        for (row, change) in delta.iter() {
            let fields = row.as_tuple().ok_or(IndexMismatch)?;
            if fields.len() != self.arity {
                return Err(IndexMismatch);
            }
            let key = &fields[self.attr - 1];
            if change.is_negative() {
                let magnitude = change.magnitude();
                let group = self.groups.get_mut(key).ok_or(IndexMismatch)?;
                let ix = group
                    .binary_search_by(|probe| probe.0.cmp(row))
                    .map_err(|_| IndexMismatch)?;
                match group[ix].1.cmp(magnitude) {
                    std::cmp::Ordering::Less => return Err(IndexMismatch),
                    std::cmp::Ordering::Equal => {
                        group.remove(ix);
                        self.rows -= 1;
                        if group.is_empty() {
                            self.groups.remove(key);
                        }
                    }
                    std::cmp::Ordering::Greater => {
                        group[ix].1 = group[ix].1.monus(magnitude);
                    }
                }
            } else {
                let group = self.groups.entry(key.clone()).or_default();
                match group.binary_search_by(|probe| probe.0.cmp(row)) {
                    Ok(ix) => group[ix].1 += change.magnitude(),
                    Err(ix) => {
                        group.insert(ix, (row.clone(), change.magnitude().clone()));
                        self.rows += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One cache slot: the index (or the memoized fact that the bag is not
/// indexable on this attribute) plus a clone of the indexed bag, which
/// pins the representation pointer the entry is keyed by.
#[derive(Clone, Debug)]
struct CacheEntry {
    owner: Bag,
    attr: usize,
    index: Option<Arc<BagIndex>>,
}

/// A small cache of [`BagIndex`]es keyed by `(representation, attribute)`.
///
/// Lookup is a linear scan over at most [`IndexCache::DEFAULT_CAPACITY`]
/// pointer comparisons — cheaper than hashing for the handful of bases a
/// query or runtime touches. Every cache has that one capacity. Negative
/// results (bag not indexable) are cached too, so a mixed-arity operand
/// is not re-scanned on every probe.
///
/// Eviction is **least-recently-used**: entries live in recency order
/// (most recent at the back), every hit refreshes its entry, and an
/// insert past capacity evicts the front. A fixed-position FIFO here
/// would evict the hottest join index as soon as a workload touches
/// `DEFAULT_CAPACITY + 1` distinct representations — exactly what a large
/// concurrent session mix does — so recency, not insertion order, is
/// what the bound must act on.
#[derive(Clone, Debug, Default)]
pub struct IndexCache {
    entries: Vec<CacheEntry>,
    hits: u64,
    builds: u64,
    misses: u64,
    evictions: u64,
}

/// Process-global cache counters, resolved lazily from the installed
/// [`balg_obs`] registry. Plain `u64` bumps stay the source of truth for
/// `:stats` (deterministic, per-cache); these aggregate across every
/// cache in the process for `:metrics`.
struct CacheObs {
    hits: balg_obs::Counter,
    misses: balg_obs::Counter,
    builds: balg_obs::Counter,
    evictions: balg_obs::Counter,
}

static CACHE_OBS: std::sync::OnceLock<CacheObs> = std::sync::OnceLock::new();

/// The cached global handles, or `None` while no registry is installed.
/// Deliberately not memoizing the negative answer: a process that
/// installs the registry mid-life (the bench overhead pair does) starts
/// recording from that point on.
fn cache_obs() -> Option<&'static CacheObs> {
    if let Some(obs) = CACHE_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = CACHE_OBS.set(CacheObs {
        hits: registry.counter(
            "balg_index_cache_hits_total",
            "Join-index cache hits across all caches",
        ),
        misses: registry.counter(
            "balg_index_cache_misses_total",
            "Join-index cache lookups that found no entry",
        ),
        builds: registry.counter(
            "balg_index_cache_builds_total",
            "Join-index builds (including negative results)",
        ),
        evictions: registry.counter(
            "balg_index_cache_evictions_total",
            "Join-index cache entries evicted by the LRU bound",
        ),
    });
    CACHE_OBS.get()
}

impl IndexCache {
    /// The most entries a cache holds.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// An empty cache.
    pub fn new() -> IndexCache {
        IndexCache::default()
    }

    fn find(&self, bag: &Bag, attr: usize) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.attr == attr && e.owner.shares_representation(bag))
    }

    /// Move the hit entry to the most-recently-used position and return
    /// its new position.
    fn touch(&mut self, found: usize) -> usize {
        let entry = self.entries.remove(found);
        self.entries.push(entry);
        self.entries.len() - 1
    }

    fn push_evicting(&mut self, entry: CacheEntry) {
        if self.entries.len() >= Self::DEFAULT_CAPACITY {
            self.entries.remove(0);
            self.evictions += 1;
            if let Some(obs) = cache_obs() {
                obs.evictions.inc();
            }
        }
        self.entries.push(entry);
    }

    /// The uniform arity of `bag`'s rows, read off any index cached over
    /// its representation (whatever its attribute), so a join can skip
    /// scanning an operand it will probe. No counter moves and no
    /// entry's recency changes.
    pub fn arity(&self, bag: &Bag) -> Option<usize> {
        self.entries
            .iter()
            .filter(|e| e.owner.shares_representation(bag))
            .find_map(|e| e.index.as_ref().map(|index| index.arity()))
    }

    /// A cached index for `(bag, attr)` if one exists — no build. A hit
    /// refreshes the entry's recency.
    pub fn peek(&mut self, bag: &Bag, attr: usize) -> Option<Arc<BagIndex>> {
        let Some(found) = self.find(bag, attr) else {
            self.misses += 1;
            if let Some(obs) = cache_obs() {
                obs.misses.inc();
            }
            return None;
        };
        let found = self.touch(found);
        let index = self.entries[found].index.clone()?;
        self.hits += 1;
        if let Some(obs) = cache_obs() {
            obs.hits.inc();
        }
        Some(index)
    }

    /// The index for `(bag, attr)`, building and caching it (or the
    /// negative answer) on a miss. A hit refreshes the entry's recency.
    pub fn get_or_build(&mut self, bag: &Bag, attr: usize) -> Option<Arc<BagIndex>> {
        if let Some(found) = self.find(bag, attr) {
            let found = self.touch(found);
            self.hits += 1;
            if let Some(obs) = cache_obs() {
                obs.hits.inc();
            }
            return self.entries[found].index.clone();
        }
        self.misses += 1;
        self.builds += 1;
        if let Some(obs) = cache_obs() {
            obs.misses.inc();
            obs.builds.inc();
        }
        let index = BagIndex::build(bag, attr).map(Arc::new);
        self.push_evicting(CacheEntry {
            owner: bag.clone(),
            attr,
            index: index.clone(),
        });
        index
    }

    /// Drop every entry for `bag`'s representation (wholesale base
    /// replacement).
    pub fn invalidate(&mut self, bag: &Bag) {
        self.entries.retain(|e| !e.owner.shares_representation(bag));
    }

    /// Remove and return every index built over `bag`'s representation
    /// (negative entries are dropped). Afterwards the cache holds no
    /// clone of the bag, so a uniquely-owned `bag` can be patched in
    /// place; pass the same delta to each returned index's
    /// [`BagIndex::patch`] and re-[`IndexCache::restore`] it.
    pub fn take_for_patch(&mut self, bag: &Bag) -> Vec<BagIndex> {
        let mut taken = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].owner.shares_representation(bag) {
                let entry = self.entries.remove(i);
                if let Some(index) = entry.index {
                    taken.push(Arc::try_unwrap(index).unwrap_or_else(|shared| (*shared).clone()));
                }
            } else {
                i += 1;
            }
        }
        taken
    }

    /// Re-associate a patched index with (the possibly new representation
    /// of) `bag`. The restored entry is most-recently-used.
    pub fn restore(&mut self, bag: &Bag, index: BagIndex) {
        self.push_evicting(CacheEntry {
            owner: bag.clone(),
            attr: index.attr(),
            index: Some(Arc::new(index)),
        });
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Index builds (including negative results) so far.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Lookups (peek or get-or-build) that found no cached entry. A
    /// `get_or_build` miss is one miss plus one build; a negative entry
    /// found in place counts as neither.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by the LRU bound (inserts past capacity; explicit
    /// invalidation does not count).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, b: i64) -> Value {
        Value::tuple([Value::int(a), Value::int(b)])
    }

    fn bag(rows: &[(i64, i64, u64)]) -> Bag {
        Bag::from_counted(rows.iter().map(|&(a, b, m)| (row(a, b), Natural::from(m))))
    }

    #[test]
    fn build_groups_by_attribute() {
        let b = bag(&[(1, 10, 2), (2, 10, 1), (3, 20, 5)]);
        let by_second = BagIndex::build(&b, 2).unwrap();
        assert_eq!(by_second.arity(), 2);
        assert_eq!(by_second.rows(), 3);
        let tens = by_second.group(&Value::int(10));
        assert_eq!(tens.len(), 2);
        assert_eq!(tens[0], (row(1, 10), Natural::from(2u64)));
        assert_eq!(tens[1], (row(2, 10), Natural::from(1u64)));
        assert!(by_second.group(&Value::int(99)).is_empty());
        // Groups inherit ascending row order from the sorted slice.
        assert!(tens.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn build_rejects_unindexable_bags() {
        assert!(BagIndex::build(&Bag::new(), 1).is_none());
        assert!(BagIndex::build(&bag(&[(1, 2, 1)]), 0).is_none());
        assert!(BagIndex::build(&bag(&[(1, 2, 1)]), 3).is_none());
        let atoms = Bag::from_values([Value::sym("a")]);
        assert!(BagIndex::build(&atoms, 1).is_none());
        let mut mixed = bag(&[(1, 2, 1)]);
        mixed.insert(Value::tuple([Value::int(9)]));
        assert!(BagIndex::build(&mixed, 1).is_none());
    }

    #[test]
    fn patch_tracks_apply_to() {
        let base = bag(&[(1, 10, 2), (2, 20, 1)]);
        let mut index = BagIndex::build(&base, 2).unwrap();
        let delta = Bag::from_counted([
            (row(1, 10), ZInt::from(-1i64)), // 2 → 1
            (row(2, 20), ZInt::from(-1i64)), // vanishes
            (row(3, 10), ZInt::from(4i64)),  // new row in the 10-group
        ]);
        index.patch(&delta).unwrap();
        let patched = delta.apply_to(&base).unwrap();
        let rebuilt = BagIndex::build(&patched, 2).unwrap();
        assert_eq!(index.rows(), rebuilt.rows());
        for key in [Value::int(10), Value::int(20)] {
            assert_eq!(index.group(&key), rebuilt.group(&key), "key {key}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Patching an index with a delta is equivalent to rebuilding it
        /// over the patched bag; a delta the bag itself rejects
        /// (over-deletion) is rejected by the patch too.
        #[test]
        fn index_patch_matches_rebuild(
            rows in proptest::collection::vec((0i64..5, 0i64..5, 1u64..3), 1..16),
            changes in proptest::collection::vec((0i64..5, 0i64..5, -2i64..3), 0..8),
            attr in 1usize..3,
        ) {
            let base = bag(&rows);
            let Some(mut index) = BagIndex::build(&base, attr) else {
                panic!("binary bags are indexable on attribute {attr}");
            };
            let delta = Bag::from_counted(
                changes
                    .iter()
                    .map(|&(a, b, m)| (row(a, b), ZInt::from(m))),
            );
            match delta.apply_to(&base) {
                Ok(patched) => {
                    index.patch(&delta).expect("legal delta must patch");
                    match BagIndex::build(&patched, attr) {
                        Some(rebuilt) => {
                            proptest::prop_assert_eq!(index.rows(), rebuilt.rows());
                            for key in 0i64..5 {
                                proptest::prop_assert_eq!(
                                    index.group(&Value::int(key)),
                                    rebuilt.group(&Value::int(key))
                                );
                            }
                        }
                        None => proptest::prop_assert_eq!(index.rows(), 0, "only emptiness de-indexes"),
                    }
                }
                Err(_) => proptest::prop_assert!(index.patch(&delta).is_err()),
            }
        }
    }

    #[test]
    fn patch_rejects_divergent_deltas() {
        let base = bag(&[(1, 10, 2)]);
        // Deleting a row the index never saw.
        let mut index = BagIndex::build(&base, 2).unwrap();
        assert!(index
            .patch(&Bag::from_counted([(row(9, 9), ZInt::from(-1i64))]))
            .is_err());
        // Over-deleting a present row.
        let mut index = BagIndex::build(&base, 2).unwrap();
        assert!(index
            .patch(&Bag::from_counted([(row(1, 10), ZInt::from(-3i64))]))
            .is_err());
        // A row of the wrong arity.
        let mut index = BagIndex::build(&base, 2).unwrap();
        assert!(index
            .patch(&Bag::from_counted([(
                Value::tuple([Value::int(1)]),
                ZInt::one()
            )]))
            .is_err());
    }

    #[test]
    fn cache_hits_by_representation_and_survives_cow() {
        let b = bag(&[(1, 10, 1), (2, 20, 1)]);
        let mut cache = IndexCache::new();
        let first = cache.get_or_build(&b, 1).unwrap();
        let again = cache.get_or_build(&b.clone(), 1).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "clone shares representation");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.builds(), 1);

        // Mutating a clone forces a copy (the cache owns a reference), so
        // the changed bag misses and rebuilds — the cached index never
        // serves stale rows.
        let mut changed = b.clone();
        changed.insert(row(3, 30));
        assert!(!changed.shares_representation(&b));
        let rebuilt = cache.get_or_build(&changed, 1).unwrap();
        assert_eq!(rebuilt.rows(), 3);
        assert_eq!(first.rows(), 2);
    }

    #[test]
    fn cache_remembers_negative_results() {
        let atoms = Bag::from_values([Value::sym("a")]);
        let mut cache = IndexCache::new();
        assert!(cache.get_or_build(&atoms, 1).is_none());
        assert!(cache.get_or_build(&atoms, 1).is_none());
        assert_eq!(
            cache.builds(),
            1,
            "second probe must hit the negative entry"
        );
        assert!(cache.peek(&atoms, 1).is_none());
    }

    #[test]
    fn take_patch_restore_roundtrip() {
        let base = bag(&[(1, 10, 1), (2, 20, 3)]);
        let mut cache = IndexCache::new();
        cache.get_or_build(&base, 2).unwrap();
        let delta = Bag::from_counted([(row(2, 20), ZInt::from(-3i64)), (row(4, 10), ZInt::one())]);
        let mut taken = cache.take_for_patch(&base);
        assert_eq!(taken.len(), 1);
        assert!(
            cache.is_empty(),
            "owner clones must be dropped for the patch"
        );
        let new = delta.apply_to(&base).unwrap();
        let mut index = taken.pop().unwrap();
        index.patch(&delta).unwrap();
        cache.restore(&new, index);
        let served = cache.peek(&new, 2).unwrap();
        let rebuilt = BagIndex::build(&new, 2).unwrap();
        assert_eq!(
            served.group(&Value::int(10)),
            rebuilt.group(&Value::int(10))
        );
        assert!(served.group(&Value::int(20)).is_empty());
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let mut cache = IndexCache::new();
        for i in 0..(IndexCache::DEFAULT_CAPACITY + 8) {
            let b = bag(&[(i as i64, 0, 1)]);
            cache.get_or_build(&b, 1);
        }
        assert_eq!(cache.len(), IndexCache::DEFAULT_CAPACITY);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Fill every slot, touch the oldest, then overflow: the eviction
        // victim must be the least-recently-*used* entry (b), not the
        // oldest-inserted (a). Under the former FIFO policy a hot entry
        // died as soon as capacity+1 representations were touched.
        let mut cache = IndexCache::new();
        let bags: Vec<Bag> = (0..=IndexCache::DEFAULT_CAPACITY as i64)
            .map(|i| bag(&[(i, 0, 1)]))
            .collect();
        let (fill, overflow) = bags.split_at(IndexCache::DEFAULT_CAPACITY);
        for b in fill {
            cache.get_or_build(b, 1).unwrap();
        }
        // Touch a (the oldest) — now b is least recently used.
        assert!(cache.peek(&bags[0], 1).is_some());
        cache.get_or_build(&overflow[0], 1).unwrap(); // evicts...
        assert_eq!(cache.len(), IndexCache::DEFAULT_CAPACITY);
        assert_eq!(cache.evictions(), 1);
        let builds = cache.builds();
        assert!(cache.peek(&bags[0], 1).is_some(), "hot entry must survive");
        assert!(cache.peek(&bags[1], 1).is_none(), "LRU entry must be gone");
        assert_eq!(cache.builds(), builds, "peek never builds");

        // get_or_build hits refresh recency exactly like peek hits.
        let mut cache = IndexCache::new();
        for b in fill {
            cache.get_or_build(b, 1).unwrap();
        }
        cache.get_or_build(&bags[0], 1).unwrap(); // refresh a
        cache.get_or_build(&overflow[0], 1).unwrap(); // evicts b
        assert!(cache.peek(&bags[0], 1).is_some());
        assert!(cache.peek(&bags[1], 1).is_none());
    }
}
