//! The incremental engine's differential suite: for random
//! (query, update-stream) pairs spanning **every** BALG operator, the
//! maintained view must equal a full re-evaluation — strict value
//! equality — after every batch.
//!
//! Queries are generated by a seeded recursive generator over the schema
//! `{R: ⟦[U]⟧, S: ⟦[U]⟧, G: ⟦[U,U]⟧}` with tiny atom domains (so
//! collisions, cancellations, and duplicate multiplicities all actually
//! happen). Update streams mix inserts of random tuples with deletions
//! of currently-present occurrences, applied in batches of 1–3.
//!
//! A third property draws views from `ε`, `∸`, `∪` and `∩` nested over
//! `σ`, `π` and a fused join, with streams that create keys and empty
//! them, and holds the pointwise rule to a fresh evaluation under both
//! reference settings.
//!
//! Non-linear fallbacks are exercised and asserted through the engine's
//! instrumentation counter in the deterministic tests at the bottom.

use std::collections::BTreeSet;

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::value::Value;
use balg_core::zbag::ZInt;
use balg_incremental::{UpdateBatch, UpdateError, ViewRuntime};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Evaluation budgets for the whole suite — small enough that explosive
/// random queries (nested powersets under unions) are rejected instead of
/// stalling the test.
fn limits() -> Limits {
    Limits {
        max_bag_elements: 1 << 12,
        max_multiplicity_bits: 1 << 10,
        max_steps: 2_000_000,
        max_ifp_iterations: 64,
    }
}

fn unary(v: i64) -> Value {
    Value::tuple([Value::int(v)])
}

fn pair(a: i64, b: i64) -> Value {
    Value::tuple([Value::int(a), Value::int(b)])
}

/// A seeded query generator. `expr(depth, arity)` returns a bag of
/// `arity`-tuples over the R/S/G schema.
struct QueryGen {
    rng: StdRng,
}

impl QueryGen {
    fn new(seed: u64) -> QueryGen {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn small_unary_bag(&mut self) -> Value {
        let n = self.rng.gen_range(0..4);
        Value::Bag(Bag::from_values((0..n).map(|_| {
            let v = self.rng.gen_range(0..4);
            unary(v)
        })))
    }

    fn small_atom_bag(&mut self) -> Value {
        let n = self.rng.gen_range(1..4);
        Value::Bag(Bag::from_values(
            (0..n).map(|_| Value::int(self.rng.gen_range(0..4))),
        ))
    }

    fn pred(&mut self, arity: usize) -> Pred {
        let x = || Expr::var("x");
        match self.rng.gen_range(0..7u8) {
            0 if arity >= 2 => Pred::eq(x().attr(1), x().attr(2)),
            1 => Pred::eq(x().attr(1), Expr::lit(Value::int(self.rng.gen_range(0..4)))),
            // Order extension.
            2 => Pred::lt(x().attr(1), Expr::lit(Value::int(self.rng.gen_range(0..4)))),
            // Membership sugar over a literal bag of atoms.
            3 => Pred::Member(x().attr(1), Expr::lit(self.small_atom_bag())),
            // Subbag containment against a *database* bag: this makes the
            // λ body read R, so updates to R force the non-linear
            // fallback (the linear rule would be unsound).
            4 if arity == 1 => Pred::SubBag(x().singleton(), Expr::var("R")),
            5 => Pred::eq(x().attr(1), Expr::lit(Value::int(self.rng.gen_range(0..4))))
                .not()
                .or(Pred::lt(
                    Expr::lit(Value::int(self.rng.gen_range(0..4))),
                    x().attr(1),
                )),
            _ => Pred::True.and(Pred::le(
                x().attr(1),
                Expr::lit(Value::int(self.rng.gen_range(0..4))),
            )),
        }
    }

    fn leaf(&mut self, arity: usize) -> Expr {
        match arity {
            1 => {
                if self.rng.gen_bool(0.5) {
                    Expr::var("R")
                } else {
                    Expr::var("S")
                }
            }
            _ => Expr::var("G"),
        }
    }

    fn expr(&mut self, depth: usize, arity: usize) -> Expr {
        if depth == 0 {
            return self.leaf(arity);
        }
        match self.rng.gen_range(0..14u8) {
            0 => self
                .expr(depth - 1, arity)
                .additive_union(self.expr(depth - 1, arity)),
            1 => self
                .expr(depth - 1, arity)
                .subtract(self.expr(depth - 1, arity)),
            2 => self
                .expr(depth - 1, arity)
                .max_union(self.expr(depth - 1, arity)),
            3 => self
                .expr(depth - 1, arity)
                .intersect(self.expr(depth - 1, arity)),
            4 => self.expr(depth - 1, arity).dedup(),
            5 => {
                let pred = self.pred(arity);
                self.expr(depth - 1, arity).select("x", pred)
            }
            6 => {
                // A restructuring MAP: reorder/duplicate attributes.
                let body = if arity == 1 {
                    Expr::tuple([Expr::var("x").attr(1)])
                } else {
                    Expr::tuple([Expr::var("x").attr(2), Expr::var("x").attr(1)])
                };
                self.expr(depth - 1, arity).map("x", body)
            }
            7 => {
                if arity == 2 {
                    self.expr(depth - 1, 1).product(self.expr(depth - 1, 1))
                } else {
                    let ix = self.rng.gen_range(1..=2);
                    self.expr(depth - 1, 2).project(&[ix])
                }
            }
            8 if arity == 1 => {
                // P over a deduped subtree (bounded), σ by a SubBag test
                // against a literal, δ back to a flat bag.
                let probe = self.small_unary_bag();
                self.expr(depth - 1, 1)
                    .dedup()
                    .powerset()
                    .select("s", Pred::SubBag(Expr::var("s"), Expr::lit(probe)))
                    .destroy()
            }
            9 if arity == 1 => {
                // P_b kept tiny by ∩ with a literal before dedup.
                let cap = self.small_unary_bag();
                self.expr(depth - 1, 1)
                    .intersect(Expr::lit(cap))
                    .dedup()
                    .powerbag()
                    .destroy()
            }
            10 if arity == 1 => {
                // nest: group G by its first attribute, keep the keys.
                self.expr(depth - 1, 2)
                    .nest(&[1])
                    .map("g", Expr::tuple([Expr::var("g").attr(1)]))
            }
            11 if arity == 2 => {
                // Transitive closure over G by inflationary fixpoint.
                let step = Expr::var("T")
                    .product(Expr::var("G"))
                    .select(
                        "x",
                        Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                    )
                    .project(&[1, 4])
                    .dedup();
                Expr::var("G").ifp("T", step)
            }
            12 => {
                // Scalar constructs as nodes: β(τ(lit)) unioned in.
                let constant = Expr::Singleton(Box::new(Expr::Tuple(
                    (0..arity)
                        .map(|i| {
                            Expr::Attr(
                                Box::new(Expr::lit(Value::tuple([
                                    Value::int(i as i64),
                                    Value::int(self.rng.gen_range(0..4)),
                                ]))),
                                2,
                            )
                        })
                        .collect(),
                )));
                self.expr(depth - 1, arity).additive_union(constant)
            }
            _ => self.expr(depth - 1, arity),
        }
    }
}

fn base_db() -> Vec<(&'static str, Bag)> {
    vec![
        (
            "R",
            Bag::from_counted([(unary(0), 2u64.into()), (unary(1), 1u64.into())]),
        ),
        ("S", Bag::from_values([unary(1), unary(2), unary(2)])),
        (
            "G",
            Bag::from_values([pair(0, 1), pair(1, 2), pair(0, 1), pair(2, 0)]),
        ),
    ]
}

/// One legal random update against the runtime's current state.
fn random_update(rng: &mut StdRng, runtime: &ViewRuntime, batch: &mut UpdateBatch) {
    let (name, arity) = match rng.gen_range(0..3u8) {
        0 => ("R", 1),
        1 => ("S", 1),
        _ => ("G", 2),
    };
    let current = runtime.database().get(name).expect("loaded base");
    // Prefer deletes of present elements half the time; account for
    // deletions already pending in this batch so the batch stays legal.
    let deletable: Vec<Value> = current
        .iter()
        .filter(|(value, mult)| {
            let pending = batch
                .delta(name)
                .map_or_else(ZInt::zero, |d| d.multiplicity(value));
            let headroom = ZInt::from_natural((*mult).clone()).add(&pending);
            !headroom.is_negative() && !headroom.is_zero()
        })
        .map(|(value, _)| value.clone())
        .collect();
    if rng.gen_bool(0.5) && !deletable.is_empty() {
        let victim = deletable[rng.gen_range(0..deletable.len())].clone();
        batch.delete(name, victim);
    } else {
        let value = if arity == 1 {
            unary(rng.gen_range(0..4))
        } else {
            pair(rng.gen_range(0..4), rng.gen_range(0..4))
        };
        batch.insert(name, value);
    }
}

/// Run one (query, update-stream) case: register the view, stream the
/// batches, compare against full re-evaluation after every batch.
/// Queries the budget rejects (at registration or mid-stream) skip out —
/// the point of the suite is agreement, not totality.
fn run_case(seed: u64, depth: usize, arity: usize, batches: usize) {
    let mut generator = QueryGen::new(seed);
    let expr = generator.expr(depth, arity);
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    if runtime.create_view("v", expr.clone()).is_err() {
        return; // over budget — not this suite's concern
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=3) {
            random_update(&mut rng, &runtime, &mut batch);
        }
        match runtime.apply(&batch) {
            Ok(()) => {}
            Err(_) => return, // budget blow-up mid-stream; view was dropped
        }
        // Strict value equality against a from-scratch evaluation.
        let mut evaluator = Evaluator::new(runtime.database(), limits());
        let fresh = evaluator
            .eval_bag(&expr)
            .expect("maintained fine but fresh eval failed");
        let maintained = runtime.view("v").expect("view survived");
        assert_eq!(
            &fresh, maintained,
            "maintained view diverged for seed {seed}: {expr}"
        );
        assert!(runtime.verify("v").unwrap());
    }
}

/// Two runtimes over the same (query, update-stream) pair — one with the
/// fast paths, one set to their references — must agree on every view
/// snapshot after every batch, and the reference runtime must never
/// report an index probe.
fn run_dual_case(seed: u64, depth: usize, arity: usize, batches: usize) {
    let mut generator = QueryGen::new(seed);
    let expr = generator.expr(depth, arity);
    let mut indexed = ViewRuntime::with_limits(limits());
    let mut scanned = ViewRuntime::with_limits(limits());
    scanned.set_reference(true);
    for (name, bag) in base_db() {
        indexed.load_base(name, bag.clone()).unwrap();
        scanned.load_base(name, bag).unwrap();
    }
    let registered = indexed.create_view("v", expr.clone()).is_ok();
    assert_eq!(
        registered,
        scanned.create_view("v", expr.clone()).is_ok(),
        "registration must not depend on the reference switch: {expr}"
    );
    if !registered {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
    for _ in 0..batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=3) {
            random_update(&mut rng, &indexed, &mut batch);
        }
        let a = indexed.apply(&batch);
        let b = scanned.apply(&batch);
        assert_eq!(
            a.is_ok(),
            b.is_ok(),
            "budget/maintenance outcome must not depend on the reference switch for seed {seed}: {expr}"
        );
        if a.is_err() {
            return; // both dropped the view identically
        }
        assert_eq!(
            indexed.view("v").expect("view survived"),
            scanned.view("v").expect("view survived"),
            "indexed and scan propagation diverged for seed {seed}: {expr}"
        );
        assert_eq!(indexed.database(), scanned.database());
    }
    assert_eq!(
        scanned.stats().views.indexed_join_ops,
        0,
        "a runtime on the reference must never probe an index"
    );
    assert!(indexed.verify_all().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 random (query, update-stream) pairs across both arities and
    /// all generator arms.
    #[test]
    fn maintained_views_match_full_reevaluation(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
        arity in 1usize..3,
        batches in 2usize..6,
    ) {
        run_case(seed, depth, arity, batches);
    }

    /// ≥256 random pairs replayed through a default runtime and one set
    /// to the reference, in lockstep: strictly equal bases and snapshots
    /// after every batch.
    #[test]
    fn indexed_and_unindexed_runtimes_agree(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
        arity in 1usize..3,
        batches in 2usize..6,
    ) {
        run_dual_case(seed, depth, arity, batches);
    }
}

/// A unary view built from `ε`, `∸`, `∪` and `∩` (and `∪⁺`, which lifts
/// multiplicities past one) nested in each other, over `R`, `S`, a `σ`
/// of `R`, a `π` of `G` and a `π` of the fused join `σ[α2=α3](G × G)`.
fn pointwise_expr(rng: &mut StdRng, depth: usize) -> Expr {
    let x = || Expr::var("x");
    if depth == 0 {
        return match rng.gen_range(0..5u8) {
            0 => Expr::var("R"),
            1 => Expr::var("S"),
            2 => Expr::var("R").select(
                "x",
                Pred::lt(x().attr(1), Expr::lit(Value::int(rng.gen_range(1..4)))),
            ),
            3 => Expr::var("G").project(&[2]),
            _ => Expr::var("G")
                .product(Expr::var("G"))
                .select("x", Pred::eq(x().attr(2), x().attr(3)))
                .project(&[1]),
        };
    }
    let left = pointwise_expr(rng, depth - 1);
    if rng.gen_range(0..5u8) == 0 {
        return left.dedup();
    }
    let right = pointwise_expr(rng, depth - 1);
    match rng.gen_range(0..4u8) {
        0 => left.subtract(right),
        1 => left.max_union(right),
        2 => left.intersect(right),
        _ => left.additive_union(right),
    }
}

/// One change to a random base, legal against what it holds with the
/// batch's earlier changes: insert one or two copies of a row (a key may
/// appear), delete one occurrence, or delete every occurrence of a row
/// (its key empties).
fn crossing_update(rng: &mut StdRng, runtime: &ViewRuntime, batch: &mut UpdateBatch) {
    let (name, arity) = [("R", 1), ("S", 1), ("G", 2)][rng.gen_range(0..3usize)];
    let current = runtime.database().get(name).expect("loaded base");
    let held: Vec<(Value, ZInt)> = current
        .iter()
        .map(|(value, mult)| {
            let pending = batch
                .delta(name)
                .map_or_else(ZInt::zero, |d| d.multiplicity(value));
            (
                value.clone(),
                ZInt::from_natural(mult.clone()).add(&pending),
            )
        })
        .filter(|(_, held)| !held.is_negative() && !held.is_zero())
        .collect();
    match rng.gen_range(0..3u8) {
        0 if !held.is_empty() => {
            let (victim, _) = &held[rng.gen_range(0..held.len())];
            batch.delete(name, victim.clone());
        }
        1 if !held.is_empty() => {
            let (victim, all) = &held[rng.gen_range(0..held.len())];
            batch.change(name, victim.clone(), all.neg());
        }
        _ => {
            let row = if arity == 1 {
                unary(rng.gen_range(0..4))
            } else {
                pair(rng.gen_range(0..4), rng.gen_range(0..4))
            };
            batch.change(name, row, ZInt::from(rng.gen_range(1..=2i64)));
        }
    }
}

/// One pointwise view maintained by a default runtime and by one set to
/// the reference, through batches whose multiplicities cross zero both
/// ways: after every batch each must `verify` against a fresh
/// evaluation, and the two must agree. Neither may re-derive a node.
fn run_pointwise_case(seed: u64, depth: usize, batches: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let expr = pointwise_expr(&mut rng, depth);
    let mut runtimes = [false, true].map(|reference| {
        let mut runtime = ViewRuntime::with_limits(limits());
        runtime.set_reference(reference);
        for (name, bag) in base_db() {
            runtime.load_base(name, bag).unwrap();
        }
        runtime.create_view("v", expr.clone()).unwrap();
        runtime
    });
    for _ in 0..batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=3) {
            crossing_update(&mut rng, &runtimes[0], &mut batch);
        }
        for runtime in &mut runtimes {
            runtime.apply(&batch).unwrap();
            assert!(runtime.verify("v").unwrap(), "seed {seed}: {expr}");
        }
        assert_eq!(
            runtimes[0].view("v").unwrap(),
            runtimes[1].view("v").unwrap(),
            "seed {seed}: {expr}"
        );
    }
    for runtime in &runtimes {
        let stats = runtime.stats().views;
        assert_eq!(
            stats.fallback_recomputes, 0,
            "seed {seed}: {expr}: {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 pointwise views over insert+delete streams, on both settings
    /// of the reference switch.
    #[test]
    fn pointwise_views_match_full_reevaluation(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
        batches in 2usize..8,
    ) {
        run_pointwise_case(seed, depth, batches);
    }
}

/// The pointwise generator reaches each of `ε`, `∸`, `∪`, `∩` over each
/// of its leaf shapes, and its streams both create keys and empty them.
#[test]
fn pointwise_generator_reaches_what_it_claims() {
    let mut reached = BTreeSet::new();
    let (mut appeared, mut emptied) = (0, 0);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        pointwise_expr(&mut rng, 3).visit(&mut |e| {
            reached.insert(match e {
                Expr::Dedup(_) => "ε",
                Expr::Subtract(..) => "∸",
                Expr::MaxUnion(..) => "∪",
                Expr::Intersect(..) => "∩",
                Expr::Select { input, .. } if matches!(**input, Expr::Product(..)) => "join",
                Expr::Select { .. } => "σ",
                Expr::Map { .. } => "π",
                _ => return,
            });
        });
        let mut runtime = ViewRuntime::with_limits(limits());
        for (name, bag) in base_db() {
            runtime.load_base(name, bag).unwrap();
        }
        for _ in 0..8 {
            let mut batch = UpdateBatch::new();
            crossing_update(&mut rng, &runtime, &mut batch);
            let before = runtime.database().clone();
            runtime.apply(&batch).unwrap();
            for (name, delta) in batch.iter() {
                for (value, _) in delta.iter() {
                    let was = before.get(name).unwrap().contains(value);
                    let is = runtime.database().get(name).unwrap().contains(value);
                    appeared += usize::from(!was && is);
                    emptied += usize::from(was && !is);
                }
            }
        }
    }
    let all: BTreeSet<&str> = ["ε", "∸", "∪", "∩", "join", "σ", "π"].into();
    assert_eq!(reached, all);
    assert!(
        appeared > 0 && emptied > 0,
        "{appeared} keys appeared, {emptied} emptied"
    );
}

/// The generator really spans every BALG operator (and the membership /
/// containment / order predicate forms), so the differential property
/// above quantifies over all of them.
#[test]
fn generator_spans_every_operator() {
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut seen_preds: BTreeSet<&'static str> = BTreeSet::new();
    for seed in 0..400u64 {
        let mut generator = QueryGen::new(seed);
        let expr = generator.expr(3, 1 + (seed % 2) as usize);
        expr.visit(&mut |e| {
            seen.insert(match e {
                Expr::Var(_) => "var",
                Expr::Lit(_) => "lit",
                Expr::AdditiveUnion(..) => "additive_union",
                Expr::Subtract(..) => "subtract",
                Expr::MaxUnion(..) => "max_union",
                Expr::Intersect(..) => "intersect",
                Expr::Tuple(_) => "tuple",
                Expr::Singleton(_) => "singleton",
                Expr::Product(..) => "product",
                Expr::Powerset(_) => "powerset",
                Expr::Powerbag(_) => "powerbag",
                Expr::Attr(..) => "attr",
                Expr::Destroy(_) => "destroy",
                Expr::Map { .. } => "map",
                Expr::Select { .. } => "select",
                Expr::Dedup(_) => "dedup",
                Expr::Ifp { .. } => "ifp",
                Expr::Nest { .. } => "nest",
            });
            if let Expr::Select { pred, .. } = e {
                fn walk(p: &Pred, out: &mut BTreeSet<&'static str>) {
                    match p {
                        Pred::True => {
                            out.insert("true");
                        }
                        Pred::Eq(..) => {
                            out.insert("eq");
                        }
                        Pred::Lt(..) => {
                            out.insert("lt");
                        }
                        Pred::Le(..) => {
                            out.insert("le");
                        }
                        Pred::Member(..) => {
                            out.insert("member");
                        }
                        Pred::SubBag(..) => {
                            out.insert("subbag");
                        }
                        Pred::Not(p) => walk(p, out),
                        Pred::And(a, b) | Pred::Or(a, b) => {
                            walk(a, out);
                            walk(b, out);
                        }
                    }
                }
                walk(pred, &mut seen_preds);
            }
        });
    }
    for op in [
        "var",
        "lit",
        "additive_union",
        "subtract",
        "max_union",
        "intersect",
        "tuple",
        "singleton",
        "product",
        "powerset",
        "powerbag",
        "attr",
        "destroy",
        "map",
        "select",
        "dedup",
        "ifp",
        "nest",
    ] {
        assert!(seen.contains(op), "generator never produced {op}");
    }
    for pred in ["eq", "lt", "le", "member", "subbag", "true"] {
        assert!(seen_preds.contains(pred), "generator never produced {pred}");
    }
}

/// Regression (found by the proptest above, seed 64820): a literal bag
/// as a direct operand of a re-derived operator must contribute its
/// value, not an empty placeholder — literals never materialize
/// snapshots, so re-derivation has to read the value out of the node
/// kind.
#[test]
fn literal_operand_of_rederived_operator() {
    let cap = Value::Bag(Bag::from_values([unary(1), unary(2), unary(3)]));
    let left = Expr::var("R")
        .intersect(Expr::lit(cap))
        .dedup()
        .powerbag()
        .destroy();
    let right =
        Expr::var("R").additive_union(Expr::Singleton(Box::new(Expr::Tuple(vec![Expr::Attr(
            Box::new(Expr::lit(Value::tuple([Value::int(0), Value::int(0)]))),
            2,
        )]))));
    let expr = left.product(right);
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    runtime.create_view("v", expr).unwrap();
    for step in 0..6i64 {
        let mut batch = UpdateBatch::new();
        if step % 2 == 0 {
            batch.insert("R", unary(step % 4));
        } else {
            batch.delete("R", unary(0));
        }
        runtime.apply(&batch).unwrap();
        assert!(runtime.verify("v").unwrap(), "diverged at step {step}");
    }
}

/// The fused `σ_{αᵢ=αⱼ}(×)` join: a single-tuple update must propagate
/// through an index probe — visible as `indexed_join_ops` with zero
/// fallbacks — touch only the matching rows, and stay exact; the same
/// stream through a runtime set to the reference reports `scanned_join_ops`
/// instead and computes the same view.
#[test]
fn fused_join_propagates_through_the_index() {
    let join = Expr::var("G")
        .product(Expr::var("G"))
        .select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
        )
        .project(&[1, 4]);
    let mut indexed = ViewRuntime::with_limits(limits());
    let mut scanned = ViewRuntime::with_limits(limits());
    scanned.set_reference(true);
    for (name, bag) in base_db() {
        indexed.load_base(name, bag.clone()).unwrap();
        scanned.load_base(name, bag).unwrap();
    }
    indexed.create_view("tc", join.clone()).unwrap();
    scanned.create_view("tc", join).unwrap();
    for step in 0..4i64 {
        let mut batch = UpdateBatch::new();
        if step % 2 == 0 {
            batch.insert("G", pair(step % 4, (step + 1) % 4));
        } else {
            batch.delete("G", pair(0, 1));
        }
        indexed.apply(&batch).unwrap();
        scanned.apply(&batch).unwrap();
        assert_eq!(indexed.view("tc").unwrap(), scanned.view("tc").unwrap());
        assert!(indexed.verify("tc").unwrap());
    }
    let on = indexed.stats().views;
    assert!(on.indexed_join_ops > 0, "index probes must run: {on:?}");
    assert_eq!(
        on.fallback_recomputes, 0,
        "the join delta is linear: {on:?}"
    );
    assert_eq!(on.scanned_join_ops, 0, "{on:?}");
    let off = scanned.stats().views;
    assert!(
        off.scanned_join_ops > 0,
        "scan mode must be counted: {off:?}"
    );
    assert_eq!(off.indexed_join_ops, 0, "{off:?}");
    // The base index was patched across the batches, not rebuilt: at
    // most one build per (base, attribute) pair ever happens.
    let (hits, _, builds, _) = indexed.index_cache_stats();
    assert!(
        hits > builds,
        "cached indexes must be reused across batches: {hits} hits, {builds} builds"
    );
}

/// A fused join over a *derived* operand (a child node's snapshot, not a
/// base bag) must stay exact without churning the persistent index
/// cache: derived snapshots get transient indexes, so the cache holds
/// only base entries (builds bounded, not per-batch) and never pins a
/// snapshot's representation (which would force a copy on its next
/// in-place patch).
#[test]
fn derived_operand_joins_stay_exact_without_cache_churn() {
    let filtered = Expr::var("G").select(
        "x",
        Pred::lt(Expr::var("x").attr(1), Expr::lit(Value::int(3))),
    );
    let q = filtered.product(Expr::var("G")).select(
        "y",
        Pred::eq(Expr::var("y").attr(2), Expr::var("y").attr(3)),
    );
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    runtime.create_view("dj", q).unwrap();
    for step in 0..6i64 {
        let mut batch = UpdateBatch::new();
        batch.insert("G", pair(step % 4, (step + 1) % 4));
        runtime.apply(&batch).unwrap();
        assert!(runtime.verify("dj").unwrap(), "step {step}");
    }
    let (_, _, builds, _) = runtime.index_cache_stats();
    assert!(
        builds <= 2,
        "persistent-cache builds must not scale with batches: {builds}"
    );
    assert!(runtime.stats().views.indexed_join_ops > 0);
}

/// One legal update of the irregular-join stream: a pair or a triple
/// into `G`, a pair into `H`, or a present row out of either.
fn irregular_update(rng: &mut StdRng, runtime: &ViewRuntime, batch: &mut UpdateBatch) {
    fn field(rng: &mut StdRng) -> Value {
        Value::int(rng.gen_range(0..3))
    }
    let name = match rng.gen_range(0..5u8) {
        0 => return batch.insert("G", Value::tuple([field(rng), field(rng)])),
        1 => return batch.insert("G", Value::tuple([field(rng), field(rng), field(rng)])),
        2 => return batch.insert("H", Value::tuple([field(rng), field(rng)])),
        3 => "G",
        _ => "H",
    };
    let present: Vec<Value> = runtime
        .database()
        .get(name)
        .expect("loaded base")
        .iter()
        .filter(|(value, mult)| {
            let pending = batch
                .delta(name)
                .map_or_else(ZInt::zero, |d| d.multiplicity(value));
            ZInt::from_natural((*mult).clone()).add(&pending) > ZInt::zero()
        })
        .map(|(value, _)| value.clone())
        .collect();
    if !present.is_empty() {
        batch.delete(name, present[rng.gen_range(0..present.len())].clone());
    }
}

/// Fused joins over irregular data. `mixed` joins a `G` of pairs and
/// triples — no one arity — against pairs, so every pair is in range but
/// the equality falls on either side of the product boundary; `past`
/// reads `α₅`, which lies past both operands once a pair joins `G`'s
/// triples. Insert and delete batches drive both. After each batch the
/// view equals a one-shot re-evaluation, or the runtime dropped it with
/// the error that re-evaluation raises. Mixed arities never re-derive
/// the join: the evaluator's product takes them.
#[test]
fn irregular_join_shapes_match_one_shot_evaluation() {
    let triple = |a, b, c| Value::tuple([Value::int(a), Value::int(b), Value::int(c)]);
    let join = |j| {
        Expr::var("G").product(Expr::var("H")).select(
            "x",
            Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(j)),
        )
    };
    let cases = [
        (
            "mixed",
            join(3),
            vec![pair(0, 1), pair(1, 2), triple(0, 1, 2), triple(2, 0, 1)],
        ),
        ("past", join(5), vec![triple(0, 1, 2), triple(1, 2, 0)]),
    ];
    let mut dropped = 0;
    for (name, expr, g) in cases {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut runtime = ViewRuntime::with_limits(limits());
            runtime.load_base("G", Bag::from_values(g.clone())).unwrap();
            let h = [pair(1, 5), pair(2, 6), pair(0, 7)];
            runtime.load_base("H", Bag::from_values(h)).unwrap();
            runtime.create_view(name, expr.clone()).unwrap();
            for step in 0..12 {
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..=2) {
                    irregular_update(&mut rng, &runtime, &mut batch);
                }
                let applied = runtime.apply(&batch);
                let one_shot = Evaluator::new(runtime.database(), limits()).eval_bag(&expr);
                let Some(view) = runtime.view(name) else {
                    let error = one_shot.expect_err("dropped where one-shot evaluation succeeds");
                    assert!(
                        matches!(&applied, Err(UpdateError::View { error: e, .. }) if *e == error),
                        "{name}, seed {seed}, step {step}: {applied:?} vs {error:?}"
                    );
                    dropped += 1;
                    break;
                };
                assert!(applied.is_ok(), "{name}, seed {seed}, step {step}");
                assert_eq!(
                    one_shot.as_ref(),
                    Ok(view),
                    "{name}, seed {seed}, step {step}"
                );
            }
            if name == "mixed" {
                let stats = runtime.stats().views;
                assert_eq!(stats.fallback_recomputes, 0, "seed {seed}: {stats:?}");
            }
        }
    }
    assert!(dropped > 0, "no stream reached the out-of-range equality");
}

/// Regression: `α₀` in an equality over a product must never reach the
/// fused join rule (1-based indexing — position 0 would underflow).
/// With the left operand initially empty, registration succeeds (the σ
/// never evaluates); the first update must surface the `AttrIndexZero`
/// evaluation error through the degraded path — dropping the view, not
/// panicking mid-maintenance.
#[test]
fn attr_zero_join_predicate_degrades_instead_of_panicking() {
    let mut runtime = ViewRuntime::with_limits(limits());
    runtime.load_base("A", Bag::new()).unwrap();
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    let q = Expr::var("A").product(Expr::var("S")).select(
        "x",
        Pred::eq(Expr::var("x").attr(0), Expr::var("x").attr(3)),
    );
    runtime.create_view("zero", q).unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert("A", pair(1, 2));
    let err = runtime.apply(&batch).unwrap_err();
    assert!(err.to_string().contains("zero"), "{err}");
    assert!(
        runtime.view("zero").is_none(),
        "the erroring view is dropped"
    );
    // The base itself committed fine.
    assert!(runtime.database().get("A").unwrap().contains(&pair(1, 2)));
}

/// A fused join whose equality does *not* span the product boundary
/// (both attributes land on the left operand) still maintains linearly —
/// through the scan terms — and exactly.
#[test]
fn non_spanning_equi_join_stays_linear_and_exact() {
    let q = Expr::var("G").product(Expr::var("R")).select(
        "x",
        Pred::eq(Expr::var("x").attr(1), Expr::var("x").attr(2)),
    );
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    runtime.create_view("diag", q).unwrap();
    for step in 0..4i64 {
        let mut batch = UpdateBatch::new();
        batch.insert("G", pair(step % 3, step % 3));
        batch.insert("R", unary(step % 4));
        runtime.apply(&batch).unwrap();
        assert!(runtime.verify("diag").unwrap(), "step {step}");
    }
    let stats = runtime.stats().views;
    assert!(stats.scanned_join_ops > 0, "{stats:?}");
    assert_eq!(stats.fallback_recomputes, 0, "{stats:?}");
}

/// A view node runs its operator on the evaluator, so registration and
/// maintenance fail exactly where a one-shot evaluation of the view fails,
/// with the same error: the element budget of a `×` (an `ElementLimit`
/// with the predicted size) and the multiplicity-width budget of a merge
/// both hold inside the node tree.
#[test]
fn nodes_fail_where_one_shot_evaluation_fails() {
    let tight = Limits {
        max_bag_elements: 8,
        max_multiplicity_bits: 4,
        ..limits()
    };
    let counted = |n: u64| Bag::from_counted([(unary(0), n.into()), (unary(1), 1u64.into())]);
    let three = Bag::from_values([unary(0), unary(1), unary(2)]);
    let one_shot =
        |rt: &ViewRuntime, expr: &Expr| Evaluator::new(rt.database(), tight.clone()).eval_bag(expr);

    // Registration: a 9-row product against an 8-row budget, and a
    // multiplicity of 18 (5 bits) against a 4-bit budget.
    let cases = [
        (Expr::var("R").product(Expr::var("S")), three.clone()),
        (Expr::var("R").additive_union(Expr::var("R")), counted(9)),
        (
            Expr::var("R")
                .max_union(Expr::var("S"))
                .additive_union(Expr::var("R")),
            counted(9),
        ),
    ];
    for (expr, r) in cases {
        let mut rt = ViewRuntime::with_limits(tight.clone());
        rt.load_base("R", r).unwrap();
        rt.load_base("S", three.clone()).unwrap();
        let expected = one_shot(&rt, &expr).unwrap_err();
        match rt.create_view("v", expr.clone()) {
            Err(UpdateError::View { error, .. }) => assert_eq!(error, expected, "{expr}"),
            other => panic!("{expr} registered: {other:?}"),
        }
    }

    // Maintenance: each view registers within the budgets and is dropped,
    // with the one-shot error as its cause, by the batch that takes its
    // maintained value past one, whichever rule computed the delta —
    // `R ∪ S` (pointwise) as `R`'s multiplicity reaches 16, `R ∪⁺ R`
    // (sum) as it reaches 16 twice over, `R ∪⁺ S` (sum) at 13 rows and
    // `π₁(R)` (linear) at 9, and `R × S` (product) and `σ[α1=α3](R × S)`
    // (fused join) at 12, from a one-row insert whose delta is 4 rows.
    let four = |from: i64| Bag::from_values((from..from + 4).map(|i| pair(i, i)));
    let keyed = |n: i64| Bag::from_values((0..n).map(|i| pair(0, i)));
    let five_more = || {
        let mut batch = UpdateBatch::new();
        for i in 8..13 {
            batch.insert("R", pair(i, i));
        }
        batch
    };
    let mut one_more = UpdateBatch::new();
    one_more.insert("R", unary(0));
    let mut third = UpdateBatch::new();
    third.insert("R", pair(0, 2));
    let cases = [
        (
            Expr::var("R").max_union(Expr::var("S")),
            counted(15),
            three.clone(),
            one_more.clone(),
        ),
        (
            Expr::var("R").additive_union(Expr::var("R")),
            counted(7),
            three,
            one_more,
        ),
        (
            Expr::var("R").additive_union(Expr::var("S")),
            four(0),
            four(4),
            five_more(),
        ),
        (Expr::var("R").project(&[1]), four(0), four(4), five_more()),
        (
            Expr::var("R").product(Expr::var("S")),
            keyed(2),
            keyed(4),
            third.clone(),
        ),
        (
            Expr::var("R").product(Expr::var("S")).select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::var("x").attr(3)),
            ),
            keyed(2),
            keyed(4),
            third,
        ),
    ];
    for (expr, r, s, batch) in cases {
        let mut rt = ViewRuntime::with_limits(tight.clone());
        rt.load_base("R", r).unwrap();
        rt.load_base("S", s).unwrap();
        rt.create_view("v", expr.clone()).unwrap();
        assert!(rt.apply(&batch).is_err(), "{expr} was maintained");
        let expected = one_shot(&rt, &expr).unwrap_err();
        let (_, dropped) = rt.dropped().next().expect("the view is dropped");
        assert_eq!(dropped.cause, expected.to_string(), "{expr}");
    }
}

/// A pointwise node runs no probe, so it charges no steps, but it keeps
/// the element budget a re-derivation enforced: an `∪` view whose
/// maintained result grows past `max_bag_elements` fails with
/// `ElementLimit` and is dropped, with the one-shot error as its cause.
#[test]
fn a_pointwise_view_past_the_element_budget_is_dropped() {
    let tight = Limits {
        max_bag_elements: 8,
        ..limits()
    };
    let mut rt = ViewRuntime::with_limits(tight.clone());
    rt.load_base("R", Bag::from_values((0..4).map(unary)))
        .unwrap();
    rt.load_base("S", Bag::from_values((4..8).map(unary)))
        .unwrap();
    let expr = Expr::var("R").max_union(Expr::var("S"));
    rt.create_view("v", expr.clone()).unwrap();
    // A row `S` holds leaves the view at its 8 rows.
    let mut batch = UpdateBatch::new();
    batch.insert("R", unary(4));
    rt.apply(&batch).unwrap();
    assert!(rt.verify("v").unwrap());
    assert_eq!(rt.stats().views.pointwise_delta_ops, 1);
    // A ninth row.
    let mut batch = UpdateBatch::new();
    batch.insert("R", unary(8));
    let err = rt.apply(&batch).unwrap_err();
    let expected = Evaluator::new(rt.database(), tight)
        .eval_bag(&expr)
        .unwrap_err();
    assert_eq!(
        expected,
        EvalError::ElementLimit {
            observed: 9,
            limit: 8
        }
    );
    assert_eq!(err.to_string(), format!("view v: {expected}"));
    let (name, dropped) = rt.dropped().next().expect("the view is dropped");
    assert_eq!((name, dropped.cause.clone()), ("v", expected.to_string()));
}

/// Non-linear fallbacks are *exercised* and visible through the
/// instrumentation counter; linear chains stay fallback-free, and monus
/// takes the pointwise rule.
#[test]
fn fallback_counter_separates_linear_from_nonlinear() {
    // Linear chain: σ/π over R — zero fallbacks.
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    runtime
        .create_view(
            "linear",
            Expr::var("R")
                .select(
                    "x",
                    Pred::lt(Expr::var("x").attr(1), Expr::lit(Value::int(3))),
                )
                .project(&[1]),
        )
        .unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert("R", unary(2));
    batch.delete("R", unary(0));
    runtime.apply(&batch).unwrap();
    let stats = runtime.stats();
    assert!(stats.views.linear_delta_ops > 0);
    assert_eq!(stats.views.fallback_recomputes, 0);

    // Non-linear: monus and a SubBag predicate against a changing base.
    let mut runtime = ViewRuntime::with_limits(limits());
    for (name, bag) in base_db() {
        runtime.load_base(name, bag).unwrap();
    }
    runtime
        .create_view("monus", Expr::var("R").subtract(Expr::var("S")))
        .unwrap();
    runtime
        .create_view(
            "subbag",
            Expr::var("S").select(
                "x",
                Pred::SubBag(Expr::var("x").singleton(), Expr::var("R")),
            ),
        )
        .unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert("R", unary(2));
    runtime.apply(&batch).unwrap();
    let stats = runtime.stats().views;
    assert_eq!(
        (stats.pointwise_delta_ops, stats.fallback_recomputes),
        (1, 1),
        "monus must take the pointwise rule and the affected SubBag body \
         re-derive: {stats:?}"
    );
    assert!(runtime.verify_all().unwrap());
}

/// Powerset / powerbag / nest / IFP views survive updates through the
/// fallback path with exact results.
#[test]
fn nonlinear_operator_views_stay_exact() {
    let cases = [
        Expr::var("R").dedup().powerset().destroy(),
        Expr::var("R")
            .intersect(Expr::lit(Value::Bag(Bag::from_values([
                unary(0),
                unary(1),
            ]))))
            .dedup()
            .powerbag()
            .destroy(),
        Expr::var("G")
            .nest(&[1])
            .map("g", Expr::tuple([Expr::var("g").attr(1)])),
        Expr::var("G").ifp(
            "T",
            Expr::var("T")
                .product(Expr::var("G"))
                .select(
                    "x",
                    Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                )
                .project(&[1, 4])
                .dedup(),
        ),
    ];
    for (i, expr) in cases.into_iter().enumerate() {
        let mut runtime = ViewRuntime::with_limits(limits());
        for (name, bag) in base_db() {
            runtime.load_base(name, bag).unwrap();
        }
        runtime.create_view("v", expr).unwrap();
        let mut rng = StdRng::seed_from_u64(i as u64);
        for _ in 0..6 {
            let mut batch = UpdateBatch::new();
            random_update(&mut rng, &runtime, &mut batch);
            runtime.apply(&batch).unwrap();
            assert!(runtime.verify("v").unwrap(), "case {i} drifted");
        }
        assert!(runtime.stats().views.fallback_recomputes > 0);
    }
}
