//! Differential properties for the key-run kernels: `Bag::nest`,
//! `Bag::project` and the evaluator's one-stage prefix `π` chain read the
//! groups off the sorted slice (or a stable sort of it) instead of a map.
//!
//! Two references, neither of which walks key runs:
//!
//! * the bag operators against a naive group-by over the occurrences of an
//!   [`ExpandedBag`]: every distinct key is collected by a selection over
//!   all occurrences, and the first error is the first bad row in slice
//!   order, with the variant and fields the row-by-row operators raised;
//! * the evaluator's `π_{1..k}` chain, alone and under `ε`, against a model
//!   of the per-row loop ([`PerRow`]): one step per node and per row,
//!   charged before the row is looked at, the element budget checked after
//!   every push, and the produced bag observed once at the end. Outcome,
//!   steps and the observed maxima must agree at every step budget (so at
//!   `n − 1`, `n` and `n + 1` around the bulk charge) and at
//!   `max_bag_elements` equal to the output's distinct count and one less.
//!
//! The vendored `proptest` does not shrink: a failing case prints the seed
//! that replays it (`PROPTEST_SEED`), and every assertion names its input.

use balg_core::bag::{Bag, BagBuilder, BagError};
use balg_core::eval::{EvalError, Evaluator, Limits, Metrics};
use balg_core::expanded::ExpandedBag;
use balg_core::expr::Expr;
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

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
fn rows() -> BoxedStrategy<Bag> {
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
fn indices() -> BoxedStrategy<Vec<usize>> {
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
    fn nest_matches_a_naive_group_by(bag in rows(), group in indices()) {
        let got = bag.nest(&group);
        if let Ok(out) = &got {
            assert!(out.debug_validate(), "nest{group:?}({bag}) broke the invariant");
        }
        assert_eq!(got, naive_nest(&bag, &group), "nest{group:?}({bag})");
    }

    #[test]
    fn project_matches_a_naive_map(bag in rows(), indices in indices()) {
        assert_eq!(
            bag.project(&indices),
            naive_project(&bag, &indices),
            "π{indices:?}({bag})"
        );
    }

    #[test]
    fn prefix_chain_matches_the_per_row_loop(
        bag in rows(),
        k in 1usize..4,
        dedup in any::<bool>(),
    ) {
        let indices: Vec<usize> = (1..=k).collect();
        assert_matches_per_row(&bag, &indices, dedup);
    }
}

/// The cases the random inputs must also reach, fixed.
#[test]
fn named_shapes() {
    let t = |fields: &[i64]| Value::tuple(fields.iter().copied().map(Value::int));
    let g = Bag::from_counted([
        (t(&[0, 2]), Natural::from(2u64)),
        (t(&[0, 2, 1]), Natural::from(1u64)),
        (t(&[1, 0]), Natural::from(3u64)),
        (t(&[1, 0, 0]), Natural::from(1u64)),
        (t(&[1, 1, 2, 2]), Natural::from(1u64)),
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
        Bag::from_counted([(t(&[2]), Natural::from(2u64)), (t(&[2, 1]), Natural::one())])
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
    let mut polluted = g.clone();
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
    // The evaluator's chain, around both of its fallbacks.
    for k in 1..=4 {
        let indices: Vec<usize> = (1..=k).collect();
        for dedup in [false, true] {
            assert_matches_per_row(&g, &indices, dedup);
            assert_matches_per_row(&polluted, &indices, dedup);
            assert_matches_per_row(&Bag::new(), &indices, dedup);
        }
    }
}

/// What an evaluation left behind: the outcome, the steps charged and the
/// maxima `observe` recorded.
type Trace = (Result<Bag, EvalError>, u64, u64, Natural, Natural);

fn traced(metrics: &Metrics, result: Result<Bag, EvalError>) -> Trace {
    (
        result,
        metrics.steps,
        metrics.max_distinct_elements,
        metrics.max_multiplicity.clone(),
        metrics.max_cardinality.clone(),
    )
}

fn query(indices: &[usize], dedup: bool) -> Expr {
    let q = Expr::var("G").project(indices);
    if dedup {
        q.dedup()
    } else {
        q
    }
}

fn evaluated(bag: &Bag, indices: &[usize], dedup: bool, limits: &Limits) -> Trace {
    let db = Database::new().with("G", bag.clone());
    let mut ev = Evaluator::new(&db, limits.clone());
    let result = ev.eval_bag(&query(indices, dedup));
    traced(ev.metrics(), result)
}

/// The per-row loop of a stage chain, re-derived outside the evaluator.
struct PerRow<'a> {
    limits: &'a Limits,
    metrics: Metrics,
}

impl PerRow<'_> {
    fn tick(&mut self) -> Result<(), EvalError> {
        self.metrics.steps += 1;
        if self.metrics.steps > self.limits.max_steps {
            return Err(EvalError::StepLimit(self.limits.max_steps));
        }
        Ok(())
    }

    fn observe(&mut self, bag: Bag) -> Result<Bag, EvalError> {
        let distinct = bag.distinct_count() as u64;
        if distinct > self.limits.max_bag_elements {
            return Err(EvalError::ElementLimit {
                observed: distinct,
                limit: self.limits.max_bag_elements,
            });
        }
        let m = &mut self.metrics;
        m.max_distinct_elements = m.max_distinct_elements.max(distinct);
        m.max_multiplicity = m.max_multiplicity.clone().max(bag.max_multiplicity());
        m.max_cardinality = m.max_cardinality.clone().max(bag.cardinality());
        Ok(bag)
    }

    /// `π_I(G)`: the `MAP` node, the base `G`, then one step per row.
    fn project(&mut self, bag: &Bag, indices: &[usize]) -> Result<Bag, EvalError> {
        self.tick()?;
        self.tick()?;
        let mut out = BagBuilder::new();
        for (row, mult) in bag.iter() {
            self.tick()?;
            if row.as_tuple().is_none() {
                return Err(EvalError::Shape {
                    expected: "a tuple",
                    found: row.to_string(),
                });
            }
            check_row(row, indices).map_err(EvalError::Bag)?;
            out.push(Value::tuple(pick(row, indices)), mult.clone());
            out.ensure_distinct_within(self.limits.max_bag_elements)
                .map_err(|observed| EvalError::ElementLimit {
                    observed,
                    limit: self.limits.max_bag_elements,
                })?;
        }
        self.observe(out.build())
    }

    fn run(&mut self, bag: &Bag, indices: &[usize], dedup: bool) -> Result<Bag, EvalError> {
        if dedup {
            self.tick()?;
            let projected = self.project(bag, indices)?;
            return self.observe(projected.dedup());
        }
        self.project(bag, indices)
    }
}

fn per_row(bag: &Bag, indices: &[usize], dedup: bool, limits: &Limits) -> Trace {
    let mut model = PerRow {
        limits,
        metrics: Metrics::default(),
    };
    let result = model.run(bag, indices, dedup);
    traced(&model.metrics, result)
}

fn assert_matches_per_row(bag: &Bag, indices: &[usize], dedup: bool) {
    let q = query(indices, dedup);
    let unlimited = Limits::default();
    let want = per_row(bag, indices, dedup, &unlimited);
    assert_eq!(
        evaluated(bag, indices, dedup, &unlimited),
        want,
        "{q} over {bag}"
    );
    let total = want.1;
    for max_steps in 1..=total + 1 {
        let limits = Limits {
            max_steps,
            ..Limits::default()
        };
        assert_eq!(
            evaluated(bag, indices, dedup, &limits),
            per_row(bag, indices, dedup, &limits),
            "{q} over {bag} at max_steps = {max_steps} of {total}"
        );
    }
    // The projection's own output, not the base, meets the budget.
    let distinct = match &want.0 {
        Ok(_) => naive_project(bag, indices).map_or(0, |p| p.distinct_count() as u64),
        Err(_) => return,
    };
    for max_bag_elements in [distinct, distinct.saturating_sub(1)] {
        let limits = Limits {
            max_bag_elements,
            ..Limits::default()
        };
        assert_eq!(
            evaluated(bag, indices, dedup, &limits),
            per_row(bag, indices, dedup, &limits),
            "{q} over {bag} at max_bag_elements = {max_bag_elements}"
        );
    }
}
