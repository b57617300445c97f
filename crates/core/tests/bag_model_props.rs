//! Differential property tests pinning the sorted-slice `Bag`
//! representation against a retained `BTreeMap<Value, Natural>` reference
//! model — the representation the bag used before PR 3. Every operation
//! is computed twice, once by `Bag` and once by naive map arithmetic, and
//! the results must agree; each produced bag is also checked against the
//! representation invariant (strictly ascending keys, no zeros).
//!
//! The key-run kernels, `Bag::nest` and `Bag::project`, which read groups
//! off the sorted slice (or a stable sort of it), are held to a naive
//! group-by over the occurrences of an [`ExpandedBag`] instead: every
//! distinct key is collected by a selection over all occurrences, and the
//! first error is the first bad row in slice order, with the variant and
//! fields the row-by-row operators raised.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use balg_core::bag::{Bag, BagBuilder, BagError, MergeOp};
use balg_core::natural::Natural;
use balg_core::value::Value;
use balg_core::zbag::{Spare, ZBag};
use proptest::collection::vec;
use proptest::prelude::*;

// Only the occurrences are read here; `differential.rs` runs the operators.
#[allow(dead_code)]
mod standard;
use standard::ExpandedBag;

type Model = BTreeMap<Value, Natural>;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

/// `(key, multiplicity)` insertions into a bag of integers.
type Script = Vec<(i64, u64)>;

/// A raw insertion script: keys from a tiny domain (forcing collisions)
/// with multiplicities including zero (which must be dropped).
fn script() -> impl Strategy<Value = Script> {
    proptest::collection::vec((0i64..10, 0u64..6), 0..24)
}

/// Two merge operands and whether the second is the first's own
/// representation. Both from the tiny domain (the two-pointer walk), or
/// one with at most 3 keys against one with more than 48 on a wide
/// domain, in either order (the kernel's binary search once one side
/// holds more than 16× the other's keys, with keys below, between and
/// above the bigger side's), or one bag merged with a clone of itself
/// (the shared-representation short cut). The small side is also drawn
/// from the big side's own entries, so the skewed subbag walk finds every
/// key and answers `true` as well as `false`.
fn merge_operands() -> impl Strategy<Value = (Script, Script, bool)> {
    let small = || proptest::collection::vec((-5i64..205, 1u64..6), 0..4);
    let big = || proptest::collection::vec((0i64..200, 1u64..6), 100..200);
    let drawn = big()
        .prop_flat_map(|big| {
            let picks = proptest::collection::vec((0..big.len(), 0u64..3), 1..4);
            (Just(big), picks)
        })
        .prop_map(|(big, picks)| {
            // Each pick at most its entry's multiplicity: a subbag of
            // `big` unless two picks share a key.
            let small = picks
                .iter()
                .map(|&(ix, cut)| (big[ix].0, big[ix].1.saturating_sub(cut).max(1)))
                .collect();
            (big, small, false)
        });
    prop_oneof![
        (script(), script(), Just(false)),
        (small(), big(), Just(false)),
        (big(), small(), Just(false)),
        drawn,
        (script(), Just(Vec::new()), Just(true)),
        (big(), Just(Vec::new()), Just(true)),
    ]
}

fn tuple_script() -> impl Strategy<Value = Vec<((i64, i64), u64)>> {
    proptest::collection::vec(((0i64..4, 0i64..4), 1u64..5), 0..8)
}

fn model_from(script: &[(Value, Natural)]) -> Model {
    let mut model = Model::new();
    for (value, mult) in script {
        if !mult.is_zero() {
            *model.entry(value.clone()).or_default() += mult;
        }
    }
    model
}

fn bag_matches_model(bag: &Bag, model: &Model) -> bool {
    bag.distinct_count() == model.len()
        && bag
            .iter()
            .zip(model.iter())
            .all(|((bv, bm), (mv, mm))| bv == mv && bm == mm)
}

const MERGE_OPS: [MergeOp; 4] = [MergeOp::Add, MergeOp::Monus, MergeOp::Max, MergeOp::Min];

/// `x op y` on the map model: `f(p, q)` at every key either side holds,
/// zeros dropped.
fn merge_model(x: &Model, y: &Model, op: MergeOp) -> Model {
    let get = |m: &Model, k: &Value| m.get(k).cloned().unwrap_or_default();
    let mut out = Model::new();
    for key in x.keys().chain(y.keys()) {
        let (p, q) = (get(x, key), get(y, key));
        let value = match op {
            MergeOp::Add => &p + &q,
            MergeOp::Monus => p.monus(&q),
            MergeOp::Max => p.max(q),
            MergeOp::Min => p.min(q),
        };
        if !value.is_zero() {
            out.insert(key.clone(), value);
        }
    }
    out
}

/// The representation invariant the sorted slice must uphold — the same
/// check [`Bag::debug_validate`] runs at every builder exit.
fn assert_invariant(bag: &Bag) {
    assert!(
        bag.debug_validate(),
        "bag invariant violated (unsorted keys or stored zero): {bag}"
    );
}

fn atoms_script_to_values(script: Script) -> Vec<(Value, Natural)> {
    script
        .into_iter()
        .map(|(k, m)| (Value::int(k), nat(m)))
        .collect()
}

proptest! {
    #[test]
    fn construction_agrees_with_map_model(raw in script()) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);

        // Three construction paths must coincide: COW inserts, the
        // builder, and the bulk constructor.
        let mut inserted = Bag::new();
        for (value, mult) in &script {
            inserted.insert_with_multiplicity(value.clone(), mult.clone());
        }
        let mut builder = BagBuilder::new();
        for (value, mult) in &script {
            builder.push(value.clone(), mult.clone());
        }
        let built = builder.build();
        let bulk = Bag::from_counted(script.iter().cloned());

        for bag in [&inserted, &built, &bulk] {
            assert_invariant(bag);
            prop_assert!(bag_matches_model(bag, &model));
        }
        prop_assert_eq!(&inserted, &built);
        prop_assert_eq!(&inserted, &bulk);
        prop_assert_eq!(
            inserted.cardinality(),
            model.values().fold(Natural::zero(), |mut acc, m| { acc += m; acc })
        );
    }

    #[test]
    fn merge_operations_agree_with_map_model(operands in merge_operands()) {
        let (ra, rb, shared) = operands;
        let sa = atoms_script_to_values(ra);
        let ma = model_from(&sa);
        let a = Bag::from_counted(sa);
        let (b, mb) = if shared {
            (a.clone(), ma.clone())
        } else {
            let sb = atoms_script_to_values(rb);
            (Bag::from_counted(sb.clone()), model_from(&sb))
        };

        for op in MERGE_OPS {
            let bag = a.merge(&b, op);
            assert_invariant(&bag);
            prop_assert!(bag_matches_model(&bag, &merge_model(&ma, &mb, op)), "{:?}", op);
        }

        // Point lookups agree with the model everywhere on the domain.
        let get = |m: &Model, k: &Value| m.get(k).cloned().unwrap_or_default();
        for k in -5i64..205 {
            let key = Value::int(k);
            prop_assert_eq!(a.multiplicity(&key), get(&ma, &key));
            prop_assert_eq!(a.contains(&key), ma.contains_key(&key));
        }

        // Subbag tests, both ways, vs the model inequality.
        let model_subbag = |x: &Model, y: &Model| x.iter().all(|(k, m)| &get(y, k) >= m);
        prop_assert_eq!(a.is_subbag_of(&b), model_subbag(&ma, &mb));
        prop_assert_eq!(b.is_subbag_of(&a), model_subbag(&mb, &ma));
    }

    #[test]
    fn dedup_and_scale_agree_with_map_model(raw in script(), factor in 0u64..5) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);
        let bag = Bag::from_counted(script);

        let deduped = bag.dedup();
        assert_invariant(&deduped);
        prop_assert_eq!(deduped.distinct_count(), model.len());
        prop_assert!(deduped.iter().all(|(_, m)| m.is_one()));

        let scaled = bag.scale(&nat(factor));
        assert_invariant(&scaled);
        let scaled_model: Model = if factor == 0 {
            Model::new()
        } else {
            model.iter().map(|(k, m)| (k.clone(), m * &nat(factor))).collect()
        };
        prop_assert!(bag_matches_model(&scaled, &scaled_model));
    }

    #[test]
    fn product_agrees_with_map_model(ra in tuple_script(), rb in tuple_script()) {
        let to_pairs = |raw: Vec<((i64, i64), u64)>| -> Vec<(Value, Natural)> {
            raw.into_iter()
                .map(|((x, y), m)| (Value::tuple([Value::int(x), Value::int(y)]), nat(m)))
                .collect()
        };
        let (sa, sb) = (to_pairs(ra), to_pairs(rb));
        let (ma, mb) = (model_from(&sa), model_from(&sb));
        let (a, b) = (Bag::from_counted(sa), Bag::from_counted(sb));

        let mut model = Model::new();
        for (lv, lm) in &ma {
            for (rv, rm) in &mb {
                let concat = Value::concat_tuples(
                    lv.as_tuple().unwrap(),
                    rv.as_tuple().unwrap(),
                );
                *model.entry(concat).or_default() += &(lm * rm);
            }
        }
        let prod = a.product(&b, u64::MAX).unwrap();
        assert_invariant(&prod);
        prop_assert!(bag_matches_model(&prod, &model));
    }

    #[test]
    fn powerset_agrees_with_map_model(raw in proptest::collection::vec((0i64..4, 1u64..4), 0..4)) {
        let script = atoms_script_to_values(raw);
        let model = model_from(&script);
        let bag = Bag::from_counted(script);

        let predicted: u64 = model
            .values()
            .map(|m| m.to_u64().unwrap() + 1)
            .product();
        let ps = bag.powerset(1 << 16).unwrap();
        assert_invariant(&ps);
        prop_assert_eq!(ps.cardinality(), nat(predicted));
        for (sub, mult) in ps.iter() {
            prop_assert!(mult.is_one());
            let sub = sub.as_bag().unwrap();
            assert_invariant(sub);
            prop_assert!(sub.is_subbag_of(&bag));
        }

        // Powerbag: same distinct elements, total cardinality 2^|B|.
        let pb = bag.powerbag(1 << 16).unwrap();
        assert_invariant(&pb);
        prop_assert_eq!(pb.distinct_count(), ps.distinct_count());
        prop_assert_eq!(
            pb.cardinality(),
            Natural::pow2(bag.cardinality().to_u64().unwrap())
        );
    }

    #[test]
    fn destroy_agrees_with_map_model(
        raw in proptest::collection::vec((proptest::collection::vec((0i64..6, 1u64..4), 0..5), 1u64..3), 0..5)
    ) {
        let mut outer = Bag::new();
        let mut model = Model::new();
        for (inner_raw, outer_mult) in raw {
            let inner = Bag::from_counted(atoms_script_to_values(inner_raw));
            outer.insert_with_multiplicity(Value::Bag(inner), nat(outer_mult));
        }
        // Model δ over the final outer bag (equal inner bags have already
        // collapsed, accumulating their outer multiplicities).
        for (value, outer_mult) in outer.iter() {
            let inner = value.as_bag().unwrap();
            for (elem, m) in inner.iter() {
                *model.entry(elem.clone()).or_default() += &(m * outer_mult);
            }
        }
        let flat = outer.destroy().unwrap();
        assert_invariant(&flat);
        prop_assert!(bag_matches_model(&flat, &model));
    }
}

/// The `αᵢ` checks of the row-by-row operators, written out: index zero,
/// then a positive index past the row's arity.
fn check_row(row: &Value, indices: &[usize]) -> Result<(), BagError> {
    let fields = row
        .as_tuple()
        .ok_or_else(|| BagError::NotATuple(row.clone()))?;
    for &ix in indices {
        if ix == 0 {
            return Err(BagError::AttrIndexZero);
        }
        if ix > fields.len() {
            return Err(BagError::BadArity {
                index: ix,
                arity: fields.len(),
            });
        }
    }
    Ok(())
}

fn check_rows(bag: &Bag, indices: &[usize]) -> Result<ExpandedBag, BagError> {
    for (row, _) in bag.iter() {
        check_row(row, indices)?;
    }
    Ok(ExpandedBag::from_bag(bag).expect("small multiplicities"))
}

fn pick(row: &Value, indices: &[usize]) -> Vec<Value> {
    let fields = row.as_tuple().expect("checked");
    indices.iter().map(|&ix| fields[ix - 1].clone()).collect()
}

fn naive_project(bag: &Bag, indices: &[usize]) -> Result<Bag, BagError> {
    Ok(check_rows(bag, indices)?
        .map(|row| Value::tuple(pick(row, indices)))
        .to_bag())
}

fn naive_nest(bag: &Bag, group: &[usize]) -> Result<Bag, BagError> {
    let occurrences = check_rows(bag, group)?;
    let residual = |row: &Value| {
        let fields = row.as_tuple().expect("checked");
        Value::tuple(
            (1..=fields.len())
                .filter(|ix| !group.contains(ix))
                .map(|ix| fields[ix - 1].clone()),
        )
    };
    let keys = occurrences
        .map(|row| Value::tuple(pick(row, group)))
        .dedup()
        .to_bag();
    Ok(Bag::from_values(keys.elements().map(|key| {
        let members = occurrences.select(|row| Value::tuple(pick(row, group)) == *key);
        let mut fields = key.as_tuple().expect("a key tuple").to_vec();
        fields.push(Value::Bag(members.map(residual).to_bag()));
        Value::tuple(fields)
    })))
}

/// Up to nine rows of arity 1 to 4 over a three-value domain, so keys
/// repeat, arities interleave inside a run, and short rows occur; now and
/// then an atom or a bag element as well.
fn key_run_rows() -> BoxedStrategy<Bag> {
    (vec((vec(0i64..3, 1..5), 1u64..4), 0..10), 0u8..6)
        .prop_map(|(rows, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(fields, m)| {
                (
                    Value::tuple(fields.into_iter().map(Value::int)),
                    Natural::from(m),
                )
            }));
            match stray {
                0 => bag.insert(Value::int(7)),
                1 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

/// Prefixes `1..=k`, permuted and duplicated keys, and arbitrary index
/// lists (zero and past-every-arity included).
fn key_indices() -> BoxedStrategy<Vec<usize>> {
    prop_oneof![
        (0usize..4).prop_map(|k| (1..=k).collect::<Vec<_>>()),
        Just(vec![2, 1]),
        Just(vec![1, 1]),
        Just(vec![3, 1]),
        vec(0usize..6, 0..4),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nest_matches_a_naive_group_by(bag in key_run_rows(), group in key_indices()) {
        let got = bag.nest(&group);
        if let Ok(out) = &got {
            assert!(out.debug_validate(), "nest{group:?}({bag}) broke the invariant");
        }
        assert_eq!(got, naive_nest(&bag, &group), "nest{group:?}({bag})");
    }

    #[test]
    fn project_matches_a_naive_map(bag in key_run_rows(), indices in key_indices()) {
        assert_eq!(
            bag.project(&indices),
            naive_project(&bag, &indices),
            "π{indices:?}({bag})"
        );
    }
}

/// The key-run cases the random inputs must also reach, fixed.
#[test]
fn key_run_named_shapes() {
    let t = |fields: &[i64]| Value::tuple(fields.iter().copied().map(Value::int));
    let g = Bag::from_counted([
        (t(&[0, 2]), nat(2)),
        (t(&[0, 2, 1]), nat(1)),
        (t(&[1, 0]), nat(3)),
        (t(&[1, 0, 0]), nat(1)),
        (t(&[1, 1, 2, 2]), nat(1)),
    ]);
    for group in [vec![], vec![1], vec![1, 2], vec![2], vec![2, 1], vec![1, 1]] {
        let out = g.nest(&group).unwrap();
        assert_eq!(Ok(out), naive_nest(&g, &group), "nest{group:?}");
    }
    // `nest(G, 1)`: two groups, each holding its residuals, short first.
    let nested = g.nest(&[1]).unwrap();
    let inner = |key: i64| {
        nested
            .elements()
            .find(|row| row.as_tuple().unwrap()[0] == Value::int(key))
            .and_then(|row| row.as_tuple().unwrap()[1].as_bag().cloned())
            .unwrap()
    };
    assert_eq!(
        inner(0),
        Bag::from_counted([(t(&[2]), nat(2)), (t(&[2, 1]), Natural::one())])
    );
    assert_eq!(inner(1).distinct_count(), 3);

    // The first bad row in slice order raises, with the parent's fields:
    // `[0, 2]` is the first row too short for `α₃`.
    assert_eq!(g.nest(&[3]), Err(BagError::BadArity { index: 3, arity: 2 }));
    assert_eq!(g.nest(&[1, 0]), Err(BagError::AttrIndexZero));
    assert_eq!(
        g.project(&[1, 2, 3]),
        Err(BagError::BadArity { index: 3, arity: 2 })
    );
    // Atoms sort before tuples: the stray is the first row of all.
    let mut polluted = g;
    polluted.insert(Value::int(7));
    assert_eq!(polluted.nest(&[1]), Err(BagError::NotATuple(Value::int(7))));
    assert_eq!(
        polluted.project(&[1]),
        Err(BagError::NotATuple(Value::int(7)))
    );
    // No rows, no row to fail: a bad index on the empty bag stays `Ok`.
    for group in [vec![0], vec![9], vec![2, 1]] {
        assert_eq!(Bag::new().nest(&group), Ok(Bag::new()));
        assert_eq!(Bag::new().project(&group), Ok(Bag::new()));
    }
}

// ----- owned merges and born-sorted subbags -----

/// Counts the allocations made on the calling thread, so a merge can be
/// held to the buffers it needs: one for its pairs and one for the bag
/// around them.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f()` and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A nested element for key `k`: `[k, ⟦[k mod 3]^(1 + k mod 2)⟧]`, so
/// equal keys give equal values and every clone shares a tuple and a bag.
fn nested(k: i64) -> Value {
    let inner = Bag::repeated(Value::tuple([Value::int(k % 3)]), 1 + (k % 2) as u64);
    Value::tuple([Value::int(k), Value::Bag(inner)])
}

/// A fresh bag of nested elements: its own allocation, held by nobody.
fn nested_bag(script: &Script) -> Bag {
    Bag::from_counted(script.iter().map(|&(k, m)| (nested(k), nat(m))))
}

fn model_of(bag: &Bag) -> Model {
    bag.iter().map(|(v, m)| (v.clone(), m.clone())).collect()
}

/// Who else holds each operand of an owned merge.
#[derive(Clone, Copy, Debug)]
enum Holders {
    /// A clone of each side: the merge must read both borrowed.
    Neither,
    /// A clone of the right side only.
    LeftUnshared,
    /// A clone of the left side only.
    RightUnshared,
    /// Nobody.
    Both,
    /// The left side is a patch result its `Spare` names by a weak
    /// `Version`, and a clone pins the bag it was patched from; the right
    /// side is unshared.
    VersionHeld,
}

/// `bag` with one more occurrence of its first key, patched while the
/// caller pins `bag`: the patch copies it, keeps `bag` as the spare's
/// buffer and names the copy in `spare` by a weak `Version`. So no other
/// bag holds the copy, and it is still not unshared.
fn version_held(bag: Bag, spare: &mut Spare) -> Bag {
    let (key, _) = bag.iter().next().expect("a delta patches in place");
    ZBag::singleton(key.clone())
        .patch(bag, spare)
        .expect("an insertion applies")
}

/// The enumeration `P` and `P_b` ran before subbags came out in bag
/// order: an odometer over the counts `0..=mᵢ` with the first entry
/// turning fastest, each subbag weighed `Π C(mᵢ, cᵢ)` for `P_b`, then one
/// sort of everything it produced.
fn odometer_subbags(bag: &Bag, weighed: bool) -> Bag {
    let entries: Vec<(&Value, &Natural)> = bag.iter().collect();
    let mut counts = vec![0u64; entries.len()];
    let mut pairs = Vec::new();
    loop {
        let mut weight = Natural::one();
        let mut sub = Vec::new();
        for ((value, mult), &count) in entries.iter().zip(&counts) {
            if weighed {
                weight *= &Natural::binomial(mult, count);
            }
            if count > 0 {
                sub.push(((*value).clone(), nat(count)));
            }
        }
        pairs.push((Value::Bag(Bag::from_counted(sub)), weight));
        let mut pos = 0;
        loop {
            if pos == counts.len() {
                pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                return Bag::from_counted(pairs);
            }
            if nat(counts[pos]) < *entries[pos].1 {
                counts[pos] += 1;
                break;
            }
            counts[pos] = 0;
            pos += 1;
        }
    }
}

proptest! {
    /// `merge_owned` under every holder pattern equals `Bag::merge` and
    /// the map model, for all four ops, on balanced operands and on
    /// operands skewed past 16× in either order; every clone a holder
    /// kept still has its content; and neither merge makes more than two
    /// allocations — a pair buffer and its bag — so a shared operand is
    /// read in place rather than copied first.
    #[test]
    fn owned_merges_agree_with_map_model(operands in merge_operands()) {
        let (ra, rb, _) = operands;
        let _: Bag = Bag::new(); // the shared empty bag, allocated once up front
        for op in MERGE_OPS {
            for holders in [
                Holders::Neither,
                Holders::LeftUnshared,
                Holders::RightUnshared,
                Holders::Both,
                Holders::VersionHeld,
            ] {
                let (mut a, b) = (nested_bag(&ra), nested_bag(&rb));
                let mut spare = Spare::default();
                let mut held = Vec::new();
                match holders {
                    Holders::Neither => held.extend([a.clone(), b.clone()]),
                    Holders::LeftUnshared => held.push(b.clone()),
                    Holders::RightUnshared => held.push(a.clone()),
                    Holders::Both => {}
                    // A delta patches in place against eight keys per pair.
                    Holders::VersionHeld if a.distinct_count() < 8 => continue,
                    Holders::VersionHeld => {
                        held.push(a.clone());
                        a = version_held(a, &mut spare);
                    }
                }
                let contents: Vec<Model> = held.iter().map(model_of).collect();
                let model = merge_model(&model_of(&a), &model_of(&b), op);
                let (borrowed, copies) = allocations(|| a.merge(&b, op));
                prop_assert!(copies <= 2, "{:?} borrowed: {} allocations", op, copies);
                let (owned, moves) = allocations(|| a.merge_owned(&b, op));
                prop_assert!(moves <= 2, "{:?} {:?}: {} allocations", op, holders, moves);
                for bag in [&borrowed, &owned] {
                    assert_invariant(bag);
                    prop_assert!(bag_matches_model(bag, &model), "{:?} {:?}", op, holders);
                }
                for (bag, content) in held.iter().zip(&contents) {
                    prop_assert!(bag_matches_model(bag, content), "{:?} {:?}: a holder's clone changed", op, holders);
                }
            }
        }
    }

    /// `P` and `P_b` equal the odometer-and-sort construction on nested
    /// elements with multiplicities up to 3, and fail with `TooLarge` at
    /// exactly the predicted count.
    #[test]
    fn subbags_match_the_odometer_and_sort(raw in vec((0i64..8, 1u64..4), 0..6)) {
        // One multiplicity per key, so each stays at most 3.
        let raw: Script = raw.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect();
        let bag = nested_bag(&raw);
        let predicted = bag.powerset_cardinality();
        let limit = predicted.to_u64().unwrap();
        let powerset = bag.powerset(limit).unwrap();
        let powerbag = bag.powerbag(limit).unwrap();
        assert_invariant(&powerset);
        assert_invariant(&powerbag);
        prop_assert_eq!(&powerset, &odometer_subbags(&bag, false));
        prop_assert_eq!(&powerbag, &odometer_subbags(&bag, true));
        let too_large = BagError::TooLarge { predicted, limit: limit - 1 };
        prop_assert_eq!(bag.powerset(limit - 1), Err(too_large.clone()));
        prop_assert_eq!(bag.powerbag(limit - 1), Err(too_large));
    }
}
