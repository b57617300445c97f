//! One strategy per evaluator fast path for `fast_path_differential`:
//! each draws a query and its database in the shape that path needs, with
//! its near misses — [`in_place_shape`], [`seek_shape`],
//! [`key_run_shape`], [`key_hash_shape`], [`join_shape`],
//! [`project_scale_shape`], [`ifp_shape`] and [`ifp_near_miss_shape`] —
//! plus [`subbag_shape`] for the `⊑` filter, and the named shapes build
//! their fixed cases from the same query builders.

use balg_core::bag::Bag;
use balg_core::derived::int_value;
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use proptest::collection::vec;
use proptest::prelude::*;

use crate::expr_gen::{pair, unary};

/// `αᵢ(x)`.
pub fn own(i: usize) -> Expr {
    Expr::var("x").attr(i)
}

pub fn int(c: i64) -> Expr {
    Expr::lit(Value::int(c))
}

pub fn compare(op: u8, a: Expr, b: Expr) -> Pred {
    match op {
        0 => Pred::eq(a, b),
        1 => Pred::lt(a, b),
        _ => Pred::le(a, b),
    }
}

/// `leaf` under up to three levels of `¬`, `∧` and `∨`.
fn connected(leaf: BoxedStrategy<Pred>) -> BoxedStrategy<Pred> {
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
    .boxed()
}

fn comparison(a: BoxedStrategy<Expr>, b: BoxedStrategy<Expr>) -> BoxedStrategy<Pred> {
    (0u8..3, a, b)
        .prop_map(|(op, a, b)| compare(op, a, b))
        .boxed()
}

/// `αᵢ(x)` (`α₃` misses a binary row) or a literal.
fn row_operand() -> BoxedStrategy<Expr> {
    prop_oneof![(1usize..4).prop_map(own), (0i64..4).prop_map(int)].boxed()
}

/// An operand the in-place walker must not claim, or must decline per row.
fn near_miss_operand(outer: &'static str) -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(own(0)),
        Just(own(7)),
        Just(Expr::var(outer)),
        (1usize..3).prop_map(move |i| Expr::var(outer).attr(i)),
        (0i64..4).prop_map(|c| Expr::tuple([int(c)])),
    ]
    .boxed()
}

/// Conjuncts outside the in-place grammar: `∈`/`⊑` over literals, and
/// `x ∈ σ_{λx.…}(G)` whose inner `σ` rebinds the stage's own variable.
fn foreign_leaf() -> BoxedStrategy<Pred> {
    let ints = |cs: Vec<i64>| Expr::lit(Value::bag(cs.into_iter().map(Value::int)));
    prop_oneof![
        (1usize..3, vec(0i64..4, 0..3)).prop_map(move |(i, cs)| Pred::Member(own(i), ints(cs))),
        (vec(0i64..4, 0..3), vec(0i64..4, 0..3))
            .prop_map(move |(a, b)| Pred::SubBag(ints(a), ints(b))),
        (0i64..4).prop_map(|c| Pred::Member(
            Expr::var("x"),
            Expr::var("G").select("x", Pred::eq(own(1), int(c))),
        )),
    ]
    .boxed()
}

/// A predicate over the stage variable `x` from the in-place grammar
/// (`True`/`=`/`<`/`≤`/`¬`/`∧`/`∨` over `αᵢ(x)` and literals). With
/// `near_misses`, about one leaf in three steps outside it: `α₀`, an
/// attribute no row has, an operand on `outer`, a computed constant, `∈`
/// and `⊑`.
fn row_predicate(outer: &'static str, near_misses: bool) -> BoxedStrategy<Pred> {
    let eligible = comparison(row_operand(), row_operand());
    let leaf = if near_misses {
        prop_oneof![
            Just(Pred::True),
            eligible.clone(),
            eligible.clone(),
            eligible,
            comparison(near_miss_operand(outer), row_operand()),
            comparison(row_operand(), near_miss_operand(outer)),
            foreign_leaf(),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(Pred::True),
            eligible.clone(),
            eligible.clone(),
            eligible
        ]
        .boxed()
    };
    connected(leaf)
}

/// Up to seven rows `[a, b]` or `[a, b, c]` over a four-value domain (all
/// ternary when `uniform`), plus now and then a stray atom or bag.
fn short_rows() -> BoxedStrategy<Bag> {
    (
        vec((0i64..4, 0i64..4, 0i64..4, any::<bool>(), 1u64..3), 0..8),
        any::<bool>(),
        0u8..10,
    )
        .prop_map(|(rows, uniform, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(a, b, c, wide, m)| {
                let mut fields = vec![Value::int(a), Value::int(b)];
                if wide || uniform {
                    fields.push(Value::int(c));
                }
                (Value::tuple(fields), Natural::from(m))
            }));
            match stray {
                0 => bag.insert(Value::int(9)),
                1 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

/// The five places [`in_place_shape`] puts its `σ_{λx.p}`.
pub const IN_PLACE_FORMS: [&str; 5] = ["bare", "under π", "over MAP(×)", "in IFP", "in MAP body"];

/// `σ_{λx.p}(G)` in form `form` of [`IN_PLACE_FORMS`].
pub fn in_place_query(form: usize, p: Pred, indices: &[usize]) -> Expr {
    let g = || Expr::var("G");
    match form {
        0 => g().select("x", p),
        1 => g().select("x", p).project(indices),
        // The literal field keeps the MAP general (not a projection), so
        // the pairs stream through it into the σ as the second stage.
        2 => g()
            .product(Expr::var("H"))
            .map(
                "y",
                Expr::tuple([
                    Expr::var("y").attr(indices[0]),
                    Expr::var("y").attr(indices[1]),
                    int(1),
                ]),
            )
            .select("x", p),
        // ε keeps the swapped rows from piling up multiplicity, so the
        // fixpoint closes after a few passes over a growing `T`.
        3 => g().ifp("T", Expr::var("T").select("x", p).project(&[2, 1]).dedup()),
        // The input reads `y`, so the body is not loop-invariant as a
        // whole and the σ runs once per outer row, under a binding.
        _ => Expr::var("H").map(
            "y",
            g().additive_union(Expr::var("y").singleton())
                .select("x", p),
        ),
    }
}

/// The name a near-miss operand of [`in_place_query`]'s form reads
/// besides `x`.
fn outer_of(form: usize) -> &'static str {
    match form {
        3 => "T",
        4 => "y",
        _ => "H",
    }
}

/// The in-place `σ`: a predicate from its grammar or a near miss, in one
/// of [`IN_PLACE_FORMS`], over uniform, mixed and polluted rows `G` and up
/// to three pairs `H`.
pub fn in_place_shape() -> BoxedStrategy<(Expr, Database)> {
    let case = (0usize..IN_PLACE_FORMS.len(), any::<bool>())
        .prop_flat_map(|(form, near)| (Just(form), row_predicate(outer_of(form), near)));
    (
        case,
        short_rows(),
        vec((0i64..4, 0i64..4), 0..4),
        vec(1usize..4, 2..3),
    )
        .prop_map(|((form, p), g, h, indices)| {
            let h = Bag::from_values(
                h.into_iter()
                    .map(|(a, b)| Value::tuple([Value::int(a), Value::int(b)])),
            );
            let db = Database::new().with("G", g).with("H", h);
            (in_place_query(form, p, &indices), db)
        })
        .boxed()
}

/// The seek's `α₁` domain, ascending: ints, then strings, then numerics.
pub fn lead(k: usize) -> Value {
    match k {
        0 => Value::int(-1),
        1 => Value::int(0),
        2 => Value::int(2),
        3 => Value::sym("a"),
        4 => Value::sym("b"),
        5 => Value::sym("c"),
        6 => int_value(0u64),
        7 => int_value(1u64),
        _ => int_value(3u64),
    }
}

/// A seek literal: one of [`lead`]'s, or a value between or beyond them.
fn literal(k: usize) -> Expr {
    Expr::lit(match k {
        9 => Value::int(-5),
        10 => Value::int(1),
        11 => Value::sym("bb"),
        12 => int_value(2u64),
        13 => int_value(9u64),
        _ => lead(k),
    })
}

/// 16–300 rows `[α₁, α₂, α₃]` (one in eight without `α₃`) whose `α₁` runs
/// repeat, and at the slice ends now and then an atom, `[]`, a 1-tuple or
/// a bag, where the seek must decline or a predicate reading `α₂` fails.
fn sorted_rows() -> BoxedStrategy<Bag> {
    (
        vec((0usize..9, 0i64..3, 0i64..3, 0u8..8, 1u64..3), 16..301),
        0u8..10,
    )
        .prop_map(|(rows, stray)| {
            let mut bag = Bag::from_counted(rows.into_iter().map(|(k, b, c, arity, m)| {
                let mut fields = vec![lead(k), Value::int(b)];
                if arity > 0 {
                    fields.push(Value::int(c));
                }
                (Value::tuple(fields), Natural::from(m))
            }));
            match stray {
                0 => bag.insert(Value::int(7)),
                1 => bag.insert(Value::tuple([])),
                2 => bag.insert(Value::tuple([Value::int(-9)])),
                3 => bag.insert(Value::bag([Value::int(1)])),
                _ => {}
            }
            bag
        })
        .boxed()
}

/// `α₁` against a literal (either side) under `¬`, `∧` and `∨`, now and
/// then against itself or a literal against a literal; alone, or beside
/// an `α₂`/`α₃` comparison on either side of `∧` or `∨`. Mostly alone or
/// first in a conjunction, the two places where a run's verdict can be
/// decided on its `α₁`.
fn seek_predicate() -> BoxedStrategy<Pred> {
    let lead = || (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, own(1), literal(k)));
    let leaf = prop_oneof![
        lead(),
        lead(),
        (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, literal(k), own(1))),
        (0u8..3, 0usize..14).prop_map(|(op, k)| compare(op, literal(k), own(1))),
        (0u8..3).prop_map(|op| compare(op, own(1), own(1))),
        (0u8..3, 0usize..14, 0usize..14).prop_map(|(op, a, b)| compare(op, literal(a), literal(b))),
    ];
    let other = (0u8..3, 2usize..4, 0i64..3).prop_map(|(op, j, c)| compare(op, own(j), int(c)));
    (connected(leaf.boxed()), other, 0u8..8)
        .prop_map(|(p, q, mix)| match mix {
            0 | 1 => p.and(q),
            2 => q.and(p),
            3 => p.or(q),
            4 => q.or(p),
            _ => p,
        })
        .boxed()
}

/// The σ alone, then under the stages a true run's rows must still pass:
/// a projection, a general `MAP` and a second σ.
pub const SEEK_FORMS: [&str; 4] = ["bare", "under π", "under MAP", "under σ"];

/// `σ_{λx.p}(G)` in form `form` of [`SEEK_FORMS`].
pub fn seek_query(form: usize, p: Pred, indices: &[usize]) -> Expr {
    let chosen = Expr::var("G").select("x", p);
    match form {
        0 => chosen,
        1 => chosen.project(indices),
        2 => chosen.map("y", Expr::tuple([Expr::var("y").attr(1), int(7)])),
        _ => chosen.select("y", Pred::le(Expr::var("y").attr(2), int(1))),
    }
}

/// The seek: a lead predicate in one of [`SEEK_FORMS`] over a long sorted
/// slice with repeated `α₁`.
pub fn seek_shape() -> BoxedStrategy<(Expr, Database)> {
    (
        sorted_rows(),
        seek_predicate(),
        0usize..SEEK_FORMS.len(),
        prop_oneof![Just(vec![1]), Just(vec![2, 1]), Just(vec![1, 3])],
    )
        .prop_map(|(g, p, form, indices)| {
            (seek_query(form, p, &indices), Database::new().with("G", g))
        })
        .boxed()
}

/// `π_I(G)`, under `ε` when `dedup`.
pub fn key_run_query(indices: &[usize], dedup: bool) -> Expr {
    key_hash_query(&[], indices, dedup)
}

/// The key runs: a projection over the seek's sorted slices (runs of
/// `α₁`, rows of arity 2 and 3, strays at the ends), onto a prefix
/// `1..=k` or a permuted, duplicated or out-of-range index list, alone or
/// under `ε`.
pub fn key_run_shape() -> BoxedStrategy<(Expr, Database)> {
    let indices = prop_oneof![
        Just(vec![1]),
        Just(vec![1]),
        Just(vec![1, 2]),
        Just(vec![1, 2]),
        Just(vec![1, 2, 3]),
        Just(vec![2, 1]),
        Just(vec![1, 1]),
        Just(vec![0]),
    ];
    (sorted_rows(), indices, any::<bool>())
        .prop_map(|(g, indices, dedup)| {
            (key_run_query(&indices, dedup), Database::new().with("G", g))
        })
        .boxed()
}

/// `π_I` over `G` behind the in-place `σ` stages `filters` (innermost
/// first), under `ε` when `dedup`.
pub fn key_hash_query(filters: &[Pred], indices: &[usize], dedup: bool) -> Expr {
    let q = filters
        .iter()
        .fold(Expr::var("G"), |input, p| input.select("x", p.clone()))
        .project(indices);
    if dedup {
        q.dedup()
    } else {
        q
    }
}

/// The grouping sink: a projection not led by `α₁` — permuted,
/// duplicated, onto a column short rows lack, or out of range (`α₀`,
/// `α₄`) — now and then an `α₁`-led near miss, over the seek's sorted
/// slices (strays and short rows at the ends): straight on the bag, behind
/// an in-place `σ` on `α₂`/`α₃` (a scan), behind a seeking `σ` on `α₁`, or
/// behind both; alone or under `ε`.
pub fn key_hash_shape() -> BoxedStrategy<(Expr, Database)> {
    let indices = prop_oneof![
        Just(vec![2]),
        Just(vec![3]),
        Just(vec![2, 1]),
        Just(vec![3, 2]),
        Just(vec![2, 2]),
        Just(vec![3, 1, 3]),
        Just(vec![0]),
        Just(vec![4]),
        Just(vec![2, 0]),
        Just(vec![1, 3]),
    ];
    let scan = (0u8..3, 2usize..4, 0i64..3).prop_map(|(op, j, c)| compare(op, own(j), int(c)));
    (
        sorted_rows(),
        indices,
        0u8..4,
        seek_predicate(),
        scan,
        any::<bool>(),
    )
        .prop_map(|(g, indices, base, seek, scan, dedup)| {
            let filters = match base {
                0 => vec![],
                1 => vec![scan],
                2 => vec![seek],
                _ => vec![seek, scan],
            };
            let q = key_hash_query(&filters, &indices, dedup);
            (q, Database::new().with("G", g))
        })
        .boxed()
}

fn binary_bag(rows: Vec<(i64, i64, u64)>) -> Bag {
    Bag::from_counted(
        rows.into_iter()
            .map(|(a, b, m)| (pair(a, b), Natural::from(m))),
    )
}

/// `σ_{αᵢ=αⱼ}(L × R)`.
pub fn join_query(left: &str, right: &str, i: usize, j: usize) -> Expr {
    Expr::var(left)
        .product(Expr::var(right))
        .select("x", Pred::eq(own(i), own(j)))
}

/// The index probe: `σ_{αᵢ=αⱼ}(R × S)` over two binary bags, mostly
/// spanning the product, now and then with a lone 1-tuple in `R` that
/// breaks uniform arity, alone or under `π₁,₄`.
pub fn join_shape() -> BoxedStrategy<(Expr, Database)> {
    let rows = || vec((0i64..6, 0i64..6, 1u64..4), 0..24);
    (
        rows(),
        rows(),
        prop_oneof![
            (1usize..3, 3usize..5),
            (3usize..5, 1usize..3),
            (1usize..5, 1usize..5)
        ],
        0u8..4,
        any::<bool>(),
    )
        .prop_map(|(left, right, (i, j), mix, project)| {
            let mut r = binary_bag(left);
            if mix == 0 {
                r.insert(unary(99));
            }
            let db = Database::new().with("R", r).with("S", binary_bag(right));
            let q = join_query("R", "S", i, j);
            (if project { q.project(&[1, 4]) } else { q }, db)
        })
        .boxed()
}

/// The one-sided projection: `π_I(L × R)` over 5–11 binary rows `L` and
/// 5–9 unary rows `R`, mostly with `I` on one side, now and then with a
/// 1-tuple that breaks `L`'s uniform arity; alone, under `ε`, or under a
/// further `MAP`.
pub fn project_scale_shape() -> BoxedStrategy<(Expr, Database)> {
    let indices = prop_oneof![
        Just(vec![1]),
        Just(vec![2, 1]),
        Just(vec![1, 1]),
        Just(vec![3]),
        Just(vec![3, 3]),
        Just(vec![1, 3]),
    ];
    (
        vec((0i64..8, 0i64..8, 1u64..3), 5..12),
        vec((0i64..12, 1u64..3), 5..10),
        indices,
        0u8..3,
        0u8..6,
    )
        .prop_map(|(left, right, indices, form, mix)| {
            let mut l = binary_bag(left);
            if mix == 0 {
                l.insert(unary(99));
            }
            let r = Bag::from_counted(right.into_iter().map(|(a, m)| (unary(a), Natural::from(m))));
            let db = Database::new().with("L", l).with("R", r);
            let q = Expr::var("L").product(Expr::var("R")).project(&indices);
            let q = match form {
                0 => q,
                1 => q.dedup(),
                _ => q.map("y", Expr::tuple([Expr::var("y").attr(1), int(0)])),
            };
            (q, db)
        })
        .boxed()
}

/// `IFP` fixpoint variable.
pub fn t() -> Expr {
    Expr::var("T")
}

/// The edge bag an `IFP` body joins with.
pub fn e() -> Expr {
    Expr::var("E")
}

fn attr_of(var: &str, i: usize) -> Expr {
    Expr::var(var).attr(i)
}

/// `π_{i,j}(σ_{α₂=α₃}(left × right))` — one step along an edge.
pub fn hop(left: Expr, right: Expr, i: usize, j: usize) -> Expr {
    left.product(right)
        .select("x", Pred::eq(own(2), own(3)))
        .project(&[i, j])
}

/// `λy.⟦y⟧ ∪⁺ ⟦[α₂(y), α₁(y)]⟧` — a row and its mirror image, for `δ`.
pub fn with_mirror() -> Expr {
    Expr::var("y")
        .singleton()
        .additive_union(Expr::tuple([attr_of("y", 2), attr_of("y", 1)]).singleton())
}

/// A `T`-free predicate on the row `x`. `α₃` misses a binary row: an
/// error, in whichever round first sees such a row.
fn ifp_row_pred() -> BoxedStrategy<Pred> {
    prop_oneof![
        Just(Pred::True),
        Just(Pred::lt(own(1), own(2))),
        (1usize..3, 0i64..4).prop_map(|(i, c)| Pred::eq(own(i), int(c))),
        (1usize..3, 0i64..4).prop_map(|(i, c)| Pred::le(own(i), int(c)).not()),
        Just(Pred::Member(Expr::var("x"), e())),
        (0i64..4).prop_map(|c| Pred::lt(own(1), own(2)).or(Pred::eq(own(3), int(c)))),
    ]
    .boxed()
}

/// A `T`-free bag operand.
fn constant_operand() -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(e()),
        (0i64..4).prop_map(|c| e().select("x", Pred::eq(own(1), int(c)))),
        (0i64..4, 0i64..4).prop_map(|(a, b)| Expr::bag_lit([pair(a, b)])),
        // Its own λ is called `T`: bound there, so still `T`-free.
        Just(e().map("T", Expr::tuple([attr_of("T", 2), attr_of("T", 1)]))),
    ]
    .boxed()
}

/// `f` with exactly one linear read of `T`. Half the time the outermost
/// operator is a hop along `E`, so that the fixpoint takes several rounds
/// instead of closing on the seed.
fn linear_in_t() -> BoxedStrategy<Expr> {
    let f = Just(t()).boxed().prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), ifp_row_pred()).prop_map(|(f, p)| f.select("x", p)),
            // A λ that rebinds the name `T` over the row.
            inner
                .clone()
                .prop_map(|f| f.select("T", Pred::le(attr_of("T", 1), attr_of("T", 2)))),
            (inner.clone(), 1usize..4, 1usize..3).prop_map(|(f, i, j)| f.project(&[i, j])),
            (inner.clone(), 0i64..4)
                .prop_map(|(f, c)| f.map("y", Expr::tuple([attr_of("y", 2), int(c)]))),
            (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                .prop_map(|(f, k, i, j)| hop(f, k, i, j)),
            (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                .prop_map(|(f, k, i, j)| hop(k, f, i, j)),
            (inner.clone(), constant_operand(), 1usize..5, 1usize..5)
                .prop_map(|(f, k, i, j)| f.product(k).project(&[i, j])),
            (inner.clone(), constant_operand()).prop_map(|(f, k)| f.additive_union(k)),
            (inner.clone(), constant_operand()).prop_map(|(f, k)| k.additive_union(f)),
            inner.prop_map(|f| f.map("y", with_mirror()).destroy()),
        ]
    });
    prop_oneof![
        f.clone(),
        f.clone().prop_map(|f| hop(f, e(), 1, 4)),
        f.prop_map(|f| hop(e(), f, 1, 4)),
    ]
    .boxed()
}

/// The `IFP` bodies the delta-form recogniser must decline, by name.
pub fn ifp_near_misses() -> Vec<(&'static str, Expr)> {
    let reach = |from: Expr| hop(from, e(), 1, 4);
    vec![
        // Multiplicity = number of derivations: every old tuple counts.
        ("no outer ε", reach(t())),
        ("no outer ε, ε inside", reach(t().dedup())),
        ("T × T", hop(t(), t(), 1, 4).dedup()),
        ("T ∪⁺ T", t().additive_union(t()).project(&[2, 1]).dedup()),
        ("T ∸ E", reach(t().subtract(e())).dedup()),
        ("E ∸ T", e().subtract(t()).project(&[2, 1]).dedup()),
        ("T ∩ E", reach(t().intersect(e())).dedup()),
        ("T ∪ E", reach(t().max_union(e())).dedup()),
        (
            "nest",
            t().nest(&[1])
                .map("y", attr_of("y", 2))
                .destroy()
                .map("y", Expr::tuple([attr_of("y", 1), attr_of("y", 1)]))
                .dedup(),
        ),
        (
            "powerset",
            t().select("x", Pred::eq(own(1), own(2)))
                .powerset()
                .destroy()
                .project(&[2, 1])
                .dedup(),
        ),
        (
            "T in a σ predicate",
            e().select("x", Pred::Member(Expr::var("x"), t()))
                .project(&[2, 1])
                .dedup(),
        ),
        (
            "T in a MAP body",
            e().map(
                "y",
                t().select("z", Pred::eq(attr_of("z", 1), attr_of("y", 2))),
            )
            .destroy()
            .dedup(),
        ),
        // The inner fixpoint rebinds `T`; its seed is the outer `T`.
        (
            "inner IFP seeded by T",
            t().ifp("T", reach(t()).dedup()).dedup(),
        ),
        (
            "inner IFP reading T",
            e().ifp("S", hop(Expr::var("S"), t(), 1, 4).dedup()).dedup(),
        ),
    ]
}

/// Binary bags `G` (the seed) and `E` (the edges).
pub fn ifp_database(g: Vec<(i64, i64, u64)>, e: Vec<(i64, i64, u64)>) -> Database {
    Database::new()
        .with("G", binary_bag(g))
        .with("E", binary_bag(e))
}

/// `IFP_T(body)` over up to four seed rows `G` and eight edges `E`.
fn fixpoint_over(body: BoxedStrategy<Expr>) -> BoxedStrategy<(Expr, Database)> {
    let rows = |max: usize| vec((0i64..4, 0i64..4, 1u64..4), 0..max);
    (body, rows(5), rows(9))
        .prop_map(|(body, g, e)| (Expr::var("G").ifp("T", body), ifp_database(g, e)))
        .boxed()
}

/// The semi-naive fixpoint: its body `ε` of an expression linear in `T`
/// (σ/π/`MAP`/`×`/`∪⁺`/`δ` with `T`-free operands).
pub fn ifp_shape() -> BoxedStrategy<(Expr, Database)> {
    fixpoint_over(linear_in_t().prop_map(Expr::dedup).boxed())
}

/// A fixpoint whose body is one of [`ifp_near_misses`].
pub fn ifp_near_miss_shape() -> BoxedStrategy<(Expr, Database)> {
    let body = (0usize..64).prop_map(|pick| {
        let shapes = ifp_near_misses();
        shapes[pick % shapes.len()].1.clone()
    });
    fixpoint_over(body.boxed())
}

/// A `⊑` filter over unary bags `B` and `C` of up to five rows:
/// `σ_{s ⊑ C}(P(B))`, or `σ_{⟦x⟧ ⊑ B}(C)` with a computed left side.
pub fn subbag_shape() -> BoxedStrategy<(Expr, Database)> {
    let rows = |mult: u64| vec((0i64..5, 1..mult), 0..6);
    (rows(3), rows(4), any::<bool>())
        .prop_map(|(b, c, powerset)| {
            let unary_bag = |rows: Vec<(i64, u64)>| {
                Bag::from_counted(rows.into_iter().map(|(a, m)| (unary(a), Natural::from(m))))
            };
            let db = Database::new()
                .with("B", unary_bag(b))
                .with("C", unary_bag(c));
            let q = if powerset {
                Expr::var("B")
                    .powerset()
                    .select("s", Pred::SubBag(Expr::var("s"), Expr::var("C")))
            } else {
                Expr::var("C").select(
                    "x",
                    Pred::SubBag(Expr::var("x").singleton(), Expr::var("B")),
                )
            };
            (q, db)
        })
        .boxed()
}
