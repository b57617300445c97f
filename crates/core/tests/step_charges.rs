//! Exact work counters of the fused equi-join, pinned.
//!
//! The differential suites (`fast_path_differential`,
//! `parallel_differential`) compare the evaluator's paths with each other;
//! two paths drifting *together* — what an extraction of their shared loop
//! can cause — passes every one of them. Only absolute numbers catch that,
//! so this file pins `Metrics.{steps, max_distinct_elements}` for fixed
//! inputs.
//!
//! The constants were taken at commit `8899e58` (the parent of the
//! `balg_core::join` extraction), before any edit, and every case is
//! checked on all three `Evaluator` settings — the default,
//! `set_reference(true)` and 4 chunks (`set_parallel_threads(4)`,
//! threshold 1), where a join never partitions, so that row pins that a
//! partition count cannot change a join's bag, error or charge. A changed
//! number is a bug in the change, not a re-baseline — with one exception:
//! `ifp_closure_over_a_join_body` was re-recorded when the fixpoint became
//! semi-naive, which by contract charges less (reason at the constant);
//! the reference still charges the number taken at `8899e58`.

use balg_core::bag::{Bag, BagError};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_sql::prelude::{compile_query, database_from_rows, parse, Catalog, SqlValue};

/// `rows` binary tuples `[k mod keys, k]` with multiplicity `1 + k mod 3`:
/// every join key groups `rows / keys` rows.
fn keyed(rows: i64, keys: i64) -> Bag {
    Bag::from_counted((0..rows).map(|k| {
        (
            Value::tuple([Value::int(k % keys), Value::int(k)]),
            Natural::from(1 + (k % 3) as u64),
        )
    }))
}

fn join(left: &str, right: &str, i: usize, j: usize) -> Expr {
    Expr::var(left).product(Expr::var(right)).select(
        "x",
        Pred::eq(Expr::var("x").attr(i), Expr::var("x").attr(j)),
    )
}

/// Evaluate on the three paths; each must report exactly
/// `(steps, max_distinct_elements)` and all must agree on the outcome.
fn pinned(
    q: &Expr,
    db: &Database,
    limits: &Limits,
    steps: u64,
    max_distinct: u64,
) -> Result<Bag, EvalError> {
    pinned_apart(q, db, limits, (steps, max_distinct), (steps, max_distinct))
}

/// [`pinned`], with the reference's own `(steps, max_distinct_elements)`
/// where a *fewer* fast path charges less than it.
fn pinned_apart(
    q: &Expr,
    db: &Database,
    limits: &Limits,
    default: (u64, u64),
    reference: (u64, u64),
) -> Result<Bag, EvalError> {
    let mut outcomes = Vec::new();
    for path in ["default", "reference", "partitioned"] {
        let mut ev = Evaluator::new(db, limits.clone());
        match path {
            "reference" => ev.set_reference(true),
            "partitioned" => {
                ev.set_parallel_threads(4);
                ev.set_parallel_threshold(1);
            }
            _ => {}
        }
        let outcome = ev.eval_bag(q);
        assert_eq!(
            (ev.metrics().steps, ev.metrics().max_distinct_elements),
            if path == "reference" {
                reference
            } else {
                default
            },
            "{path} path: (steps, max_distinct_elements) moved for {q}"
        );
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0], outcomes[1], "default vs reference for {q}");
    assert_eq!(outcomes[0], outcomes[2], "default vs partitioned for {q}");
    outcomes.swap_remove(0)
}

#[test]
fn fused_join_charges_one_step_per_surviving_pair() {
    let db = Database::new()
        .with("R", keyed(48, 6))
        .with("S", keyed(30, 5));
    // σ_{α₁=α₃}(R × S): keys 0..4 match, 8 rows × 6 rows each.
    let out = pinned(&join("R", "S", 1, 3), &db, &Limits::default(), 244, 240).unwrap();
    assert_eq!(out.distinct_count(), 240);
}

#[test]
fn ifp_closure_over_a_join_body() {
    let g = Bag::from_values(
        (0..12i64).map(|i| Value::tuple([Value::int(i), Value::int((i + 1) % 12)])),
    );
    let db = Database::new().with("G", g);
    let body = join("T", "G", 2, 3).project(&[1, 4]).dedup();
    let q = Expr::var("G").ifp("T", body);
    // Re-recorded with the semi-naive fixpoint (was 1 946 at `8899e58`):
    // the body is `ε` of an expression linear in `T`, so each of the 12
    // rounds joins only the 12 paths the round before added — 30 steps
    // (ε, π, σ, ×, T, G, 12 pairs, 12 projections) instead of 30, 54, …,
    // 294 over the growing accumulator — plus the IFP node and its seed.
    // The accumulator itself, and so `max_distinct_elements`, is unchanged.
    // The reference runs the full-accumulator loop: the 1 946 of `8899e58`.
    let out = pinned_apart(&q, &db, &Limits::default(), (362, 144), (1_946, 144)).unwrap();
    assert_eq!(out.distinct_count(), 144);
}

#[test]
fn non_spanning_equality_materializes_then_filters() {
    let db = Database::new()
        .with("A", keyed(12, 4))
        .with("B", keyed(5, 5));
    // σ_{α₁=α₂}(A × B) reads the left operand twice: no probe join.
    let out = pinned(&join("A", "B", 1, 2), &db, &Limits::default(), 304, 60).unwrap();
    assert_eq!(out.distinct_count(), 20); // rows 0..3 have k mod 4 = k
}

#[test]
fn step_limit_mid_probe_leaves_the_partial_charge() {
    let db = Database::new()
        .with("R", keyed(48, 6))
        .with("S", keyed(30, 5));
    let limits = Limits {
        max_steps: 100,
        ..Limits::default()
    };
    let err = pinned(&join("R", "S", 1, 3), &db, &limits, 101, 0).unwrap_err();
    assert_eq!(err, EvalError::StepLimit(100));
}

#[test]
fn element_limit_mid_probe_leaves_the_partial_charge() {
    let db = Database::new()
        .with("R", keyed(48, 6))
        .with("S", keyed(30, 5));
    let limits = Limits {
        max_bag_elements: 50,
        ..Limits::default()
    };
    let err = pinned(&join("R", "S", 1, 3), &db, &limits, 55, 0).unwrap_err();
    assert_eq!(
        err,
        EvalError::ElementLimit {
            observed: 51,
            limit: 50
        }
    );
}

// ---- σ over a row's own attributes and constants ----
//
// The constants below were taken at commit `7277d89` (the parent of the
// in-place σ stage), before any edit, when every one of these predicates
// ran through the λ-binding tree walk. The in-place walker reports what
// that walk charges; it and its reference drifting together is what these
// absolute numbers are for.

/// `query_small`'s table at a fixed content: 256 `orders` rows
/// `(k, c{7k mod 32}, 1 + 5k mod 8)`.
fn orders() -> (Catalog, Database) {
    orders_of(256)
}

/// [`orders`] with `n` rows.
fn orders_of(n: i64) -> (Catalog, Database) {
    let catalog = Catalog::new().with_table(
        "orders",
        &[("id", false), ("customer", false), ("qty", true)],
    );
    let rows = (0..n)
        .map(|k| {
            vec![
                SqlValue::Int(k),
                SqlValue::Str(format!("c{:03}", (7 * k) % 32)),
                SqlValue::Int(1 + (5 * k) % 8),
            ]
        })
        .collect();
    let db = database_from_rows(&catalog, &[("orders", rows)]).unwrap();
    (catalog, db)
}

/// Lower `sql` with `compile_query` and pin its evaluation.
fn sql_pinned(sql: &str, steps: u64, max_distinct: u64) -> Bag {
    let (catalog, db) = orders();
    let compiled = compile_query(&parse(sql).unwrap(), &catalog).unwrap();
    pinned(&compiled.expr, &db, &Limits::default(), steps, max_distinct).unwrap()
}

#[test]
fn point_select_scans_every_row_once() {
    let out = sql_pinned("SELECT customer, qty FROM orders WHERE id = 77", 1_028, 1);
    assert_eq!(out.distinct_count(), 1);
}

#[test]
fn range_select_short_circuits_its_conjunction() {
    let out = sql_pinned(
        "SELECT id, qty FROM orders WHERE id >= 100 AND id < 132",
        1_939,
        32,
    );
    assert_eq!(out.distinct_count(), 32);
}

#[test]
fn sum_over_a_string_equality() {
    let out = sql_pinned(
        "SELECT SUM(qty) FROM orders WHERE customer = 'c005'",
        1_046,
        1,
    );
    assert_eq!(out.distinct_count(), 1);
}

#[test]
fn distinct_over_a_numeric_comparison() {
    let out = sql_pinned(
        "SELECT DISTINCT customer FROM orders WHERE qty >= 6",
        1_124,
        12,
    );
    assert_eq!(out.distinct_count(), 12);
}

#[test]
fn attribute_to_attribute_comparison() {
    let db = Database::new().with("G", keyed(48, 6));
    let q = Expr::var("G").select(
        "x",
        Pred::lt(Expr::var("x").attr(1), Expr::var("x").attr(2)),
    );
    let out = pinned(&q, &db, &Limits::default(), 242, 42).unwrap();
    assert_eq!(out.distinct_count(), 42); // rows 0..5 have k mod 6 = k
}

// ---- nest and projection over key runs ----
//
// The constants below were taken at commit `801c316` (the parent of the
// key-run kernel), before any edit, when `nest` grouped through a map and
// every projection ran row by row.

/// `keyed(48, 6)`'s binary rows beside 20 ternary rows
/// `[k mod 4, k, k mod 3]` (multiplicity `1 + k mod 2`): arities 2 and 3
/// interleave within each leading key.
fn mixed_arity() -> Database {
    let ternary = Bag::from_counted((0..20i64).map(|k| {
        (
            Value::tuple([Value::int(k % 4), Value::int(k), Value::int(k % 3)]),
            Natural::from(1 + (k % 2) as u64),
        )
    }));
    Database::new().with("G", keyed(48, 6).additive_union(&ternary))
}

#[test]
fn nest_on_the_leading_attribute() {
    let out = pinned(
        &Expr::var("G").nest(&[1]),
        &mixed_arity(),
        &Limits::default(),
        2,
        6,
    )
    .unwrap();
    assert_eq!(out.distinct_count(), 6);
}

#[test]
fn nest_on_a_non_leading_attribute() {
    let out = pinned(
        &Expr::var("G").nest(&[2]),
        &mixed_arity(),
        &Limits::default(),
        2,
        48,
    )
    .unwrap();
    assert_eq!(out.distinct_count(), 48);
}

#[test]
fn dedup_of_a_leading_projection() {
    let q = Expr::var("G").project(&[1]).dedup();
    let out = pinned(&q, &mixed_arity(), &Limits::default(), 71, 6).unwrap();
    assert_eq!(out.distinct_count(), 6);
}

#[test]
fn projection_onto_the_two_leading_attributes() {
    let q = Expr::var("G").project(&[1, 2]);
    let out = pinned(&q, &mixed_arity(), &Limits::default(), 70, 60).unwrap();
    // 68 rows; 8 ternary rows share their leading pair with a binary row.
    assert_eq!(out.distinct_count(), 60);
}

// ---- projections and nest on a key that is not a prefix ----
//
// The constants below were taken at commit `2dd5987` (the parent of the
// grouping kernel), before any edit, when such a projection pushed one
// tuple per row into a builder and `nest` stable-sorted every row by its
// key. The grouping sink charges what that per-row loop charged.

#[test]
fn dedup_of_a_second_column_projection_behind_a_filter() {
    let q = Expr::var("G")
        .select("x", Pred::le(int(10), Expr::var("x").attr(2)))
        .project(&[2])
        .dedup();
    let out = pinned(&q, &mixed_arity(), &Limits::default(), 324, 38).unwrap();
    assert_eq!(out.distinct_count(), 38);
}

#[test]
fn projection_onto_the_second_attribute() {
    let q = Expr::var("G").project(&[2]);
    let out = pinned(&q, &mixed_arity(), &Limits::default(), 70, 48).unwrap();
    assert_eq!(out.distinct_count(), 48);
    // Over budget: the row that opens the 21st group fails, as the
    // builder's count did.
    let limits = Limits {
        max_bag_elements: 20,
        ..Limits::default()
    };
    let err = pinned(&q, &mixed_arity(), &limits, 27, 0).unwrap_err();
    assert_eq!(
        err,
        EvalError::ElementLimit {
            observed: 21,
            limit: 20
        }
    );
}

#[test]
fn swapped_projection_behind_a_seek() {
    let (_, db) = orders();
    let q = Expr::var("orders")
        .select("x", Pred::lt(id(), int(100)))
        .project(&[3, 2]);
    let out = pinned(&q, &db, &Limits::default(), 1_127, 32).unwrap();
    assert_eq!(out.distinct_count(), 32);
    let limits = Limits {
        max_steps: 600,
        ..Limits::default()
    };
    let err = pinned(&q, &db, &limits, 601, 0).unwrap_err();
    assert_eq!(err, EvalError::StepLimit(600));
}

#[test]
fn nest_on_an_attribute_short_rows_lack() {
    let err = pinned(
        &Expr::var("G").nest(&[3]),
        &mixed_arity(),
        &Limits::default(),
        2,
        0,
    )
    .unwrap_err();
    assert_eq!(
        err,
        EvalError::Bag(BagError::BadArity { index: 3, arity: 2 })
    );
}

// ---- σ on the leading attribute, decided per run of the sorted slice ----
//
// The constants below were taken at commit `457755b` (the parent of the
// seek), before any edit, when every row was decided on its own. A skipped
// row still charges what the scan charged it.

/// `σ_{λx.p}(orders)` over [`orders`], pinned.
fn balg_pinned(p: Pred, steps: u64, max_distinct: u64) -> Bag {
    let (_, db) = orders();
    let q = Expr::var("orders").select("x", p);
    pinned(&q, &db, &Limits::default(), steps, max_distinct).unwrap()
}

fn id() -> Expr {
    Expr::var("x").attr(1)
}

fn int(c: i64) -> Expr {
    Expr::lit(Value::int(c))
}

#[test]
fn point_select_hit_on_the_last_row() {
    let out = sql_pinned("SELECT customer, qty FROM orders WHERE id = 255", 1_028, 1);
    assert_eq!(out.distinct_count(), 1);
}

#[test]
fn point_select_miss_on_either_side() {
    for (sql, steps) in [
        ("SELECT customer, qty FROM orders WHERE id = 256", 1_027),
        ("SELECT customer, qty FROM orders WHERE id = -1", 1_027),
    ] {
        assert!(sql_pinned(sql, steps, 0).is_empty(), "{sql}");
    }
}

#[test]
fn range_select_closed_at_both_ends() {
    let out = sql_pinned(
        "SELECT id, qty FROM orders WHERE id > 7 AND id <= 39",
        2_307,
        32,
    );
    assert_eq!(out.distinct_count(), 32);
}

#[test]
fn negated_point_select() {
    let out = sql_pinned("SELECT id FROM orders WHERE id <> 77", 1_538, 255);
    assert_eq!(out.distinct_count(), 255);
}

#[test]
fn disjunction_of_two_ranges() {
    let p = Pred::lt(id(), int(10)).or(Pred::le(int(250), id()));
    assert_eq!(balg_pinned(p, 2_266, 16).distinct_count(), 16);
}

#[test]
fn mixed_conjunction_in_both_orders() {
    // `qty` is the bag-encoded third column: `qty >= 3` reads `α₃` beside
    // the literal `⟦[a]³⟧`. With the `α₁` conjuncts first, the runs they
    // reject are skipped; with `qty` first, every run is scanned.
    for (condition, steps, rows) in [
        ("id >= 64 AND id < 96 AND qty >= 3", 2_459, 24),
        ("qty >= 3 AND id >= 64 AND id < 96", 2_907, 24),
        ("id = 78 AND qty >= 3", 1_288, 1),
        ("qty >= 3 AND id = 78", 2_052, 1),
    ] {
        let sql = format!("SELECT id FROM orders WHERE {condition}");
        let out = sql_pinned(&sql, steps, rows);
        assert_eq!(out.distinct_count() as u64, rows, "{sql}");
    }
}

#[test]
fn point_select_over_2048_rows() {
    let (catalog, db) = orders_of(2048);
    let sql = "SELECT customer, qty FROM orders WHERE id = 1500";
    let compiled = compile_query(&parse(sql).unwrap(), &catalog).unwrap();
    let out = pinned(&compiled.expr, &db, &Limits::default(), 8_196, 1).unwrap();
    assert_eq!(out.distinct_count(), 1);
}

// ---- `⊑` filters, ordinary σ stages ----
//
// The constants below were taken at commit `b81aee3` (the parent of the
// change that made `⊑` an ordinary σ stage), before any edit, when an
// indexed evaluator sent `σ_{λs.lhs ⊑ rhs}` with a loop-invariant `rhs`
// through a special stage and charged a bare-variable sweep in bulk.
// Both paths charged these totals; the per-element walk still does.

/// `B` = the ints `0..6`, `C` = the 16 even ints `0..32`, and `M` = `B`
/// with multiplicities `1 + k mod 3`.
fn subbag_db() -> Database {
    Database::new()
        .with("B", Bag::from_values((0..6).map(Value::int)))
        .with("C", Bag::from_values((0..16).map(|k| Value::int(2 * k))))
        .with(
            "M",
            Bag::from_counted((0..6).map(|k| (Value::int(k), Natural::from(1 + (k % 3) as u64)))),
        )
}

#[test]
fn subbag_sweep_over_a_powerset() {
    // σ_{λs. s ⊑ C}(P(B)): 64 subbags at 3 steps each (the σ node, `s`,
    // `C`), one fewer for the first, plus σ, P, B and the first `C`.
    let q = Expr::var("B")
        .powerset()
        .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
    let out = pinned(&q, &subbag_db(), &Limits::default(), 195, 64).unwrap();
    assert_eq!(out.distinct_count(), 8); // the subbags of {0, 2, 4}
}

#[test]
fn singleton_subbag_of_a_computed_reference() {
    // σ_{λx. β(x) ⊑ C ∩ ε(M)}(M): the reference is derived once in full
    // and read back from the memo by every later row.
    let q = Expr::var("M").select(
        "x",
        Pred::SubBag(
            Expr::var("x").singleton(),
            Expr::var("C").intersect(Expr::var("M").dedup()),
        ),
    );
    let out = pinned(&q, &subbag_db(), &Limits::default(), 29, 6).unwrap();
    assert_eq!(out.distinct_count(), 3);
}

#[test]
fn subbag_reference_is_derived_only_when_a_row_flows() {
    let db = Database::new()
        .with("EMPTY", Bag::new())
        .with("B", Bag::from_values([Value::sym("a")]));
    let bad_rhs = Expr::var("B").destroy(); // δ over atoms
    let q = Expr::var("EMPTY").select("s", Pred::SubBag(Expr::var("s"), bad_rhs.clone()));
    assert!(pinned(&q, &db, &Limits::default(), 2, 0)
        .unwrap()
        .is_empty());
    let q = Expr::var("B").select("s", Pred::SubBag(Expr::var("s").singleton(), bad_rhs));
    let err = pinned(&q, &db, &Limits::default(), 7, 1).unwrap_err();
    assert_eq!(err, EvalError::Bag(BagError::NotABag(Value::sym("a"))));
}

// The constants below were taken at commit `5a9f782` (the parent of the
// change that let a merge take over an operand nothing else holds and
// enumerate subbags in bag order), before any edit. The merges charge no
// steps of their own: what they may not move is the charge of the
// operands they consume and of every node that reads their result.

/// `A′ = σ_{α₁<α₂}(A)` (rows 6..47) and `B′ = σ_{α₁≤α₂}(B)` (rows 0..29):
/// operands the evaluator computes, so no other handle holds them when a
/// merge consumes them.
fn computed_operands() -> (Database, Expr, Expr) {
    let db = Database::new()
        .with("A", keyed(48, 6))
        .with("B", keyed(30, 6));
    let row = || Expr::var("x");
    let a = Expr::var("A").select("x", Pred::lt(row().attr(1), row().attr(2)));
    let b = Expr::var("B").select("x", Pred::le(row().attr(1), row().attr(2)));
    (db, a, b)
}

#[test]
fn merges_over_computed_operands() {
    let (db, a, b) = computed_operands();
    // (A′ ∪⁺ B′) ∸ (A′ ∩ B′), the shape of `query_large`'s merge class.
    let q = a
        .clone()
        .additive_union(b.clone())
        .subtract(a.clone().intersect(b.clone()));
    let out = pinned(&q, &db, &Limits::default(), 791, 48).unwrap();
    // 42 + 30 rows, 24 in both.
    assert_eq!(out.distinct_count(), 48);
    // ∸ with a right side under 1/16 of the left that takes a row out,
    // and ∪ over the result, which puts it back.
    let one_row = Expr::var("B").select("x", Pred::eq(Expr::var("x").attr(2), int(7)));
    let q = a
        .additive_union(b.clone())
        .subtract(one_row.clone().additive_union(one_row))
        .max_union(b);
    let out = pinned(&q, &db, &Limits::default(), 794, 48).unwrap();
    assert_eq!(out.distinct_count(), 48);
    let row_7 = Value::tuple([Value::int(1), Value::int(7)]);
    // `[1, 7]` goes with ∸ (4 ∸ 4) and comes back from `B′` by ∪.
    assert_eq!(out.multiplicity(&row_7), Natural::from(2u64));
}

#[test]
fn powerset_and_powerbag_of_a_computed_bag() {
    let db = subbag_db();
    // M′ = σ_{λx. x < 5}(M): 5 distinct elements, 2·3·4·2·3 = 144 subbags.
    let m = Expr::var("M").select("x", Pred::lt(Expr::var("x"), Expr::lit(Value::int(5))));
    // σ_{λs. s ⊑ C}(P(M′)) reads every subbag in bag order.
    let q = m
        .clone()
        .powerset()
        .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")));
    let out = pinned(&q, &db, &Limits::default(), 454, 144).unwrap();
    assert_eq!(out.distinct_count(), 8); // the subbags of {0, 2, 4}
    let out = pinned(
        &m.clone().powerbag().dedup(),
        &db,
        &Limits::default(),
        22,
        144,
    )
    .unwrap();
    assert_eq!(out.distinct_count(), 144);
    // One subbag over the element budget fails before P builds any.
    let limits = Limits {
        max_bag_elements: 143,
        ..Limits::default()
    };
    for q in [m.clone().powerset(), m.powerbag()] {
        let err = pinned(&q, &db, &limits, 21, 5).unwrap_err();
        assert_eq!(
            err,
            EvalError::Bag(BagError::TooLarge {
                predicted: Natural::from(144u64),
                limit: 143
            })
        );
    }
}
