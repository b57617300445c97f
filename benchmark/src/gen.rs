//! Seeded inputs. Row counts, key counts and selectivities are fixed by
//! construction (balanced assignments, then shuffled), so a different
//! seed changes which rows match, not how many: latencies stay comparable
//! across seeds. Everything here runs before any clock starts.

use std::collections::{HashMap, HashSet};

use balg_core::bag::Bag;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_sql::prelude::{database_from_rows, Catalog, SqlValue};

use crate::rng::Rng;

/// Quantities run `1..=QTY_MAX`, each equally often.
pub const QTY_MAX: i64 = 8;

pub fn customer_name(index: usize) -> String {
    format!("c{index:03}")
}

/// One `orders` row.
#[derive(Clone, Debug)]
pub struct Order {
    pub id: i64,
    pub customer: usize,
    pub qty: i64,
}

impl Order {
    /// The row as a `VALUES` tuple.
    pub fn literal(&self) -> String {
        format!(
            "({}, '{}', {})",
            self.id,
            customer_name(self.customer),
            self.qty
        )
    }
}

/// `orders(id, customer, qty:int)` and `cust(customer, region)`.
pub struct SqlData {
    pub orders: Vec<Order>,
    pub customers: usize,
}

impl SqlData {
    /// `orders` rows with unique ids `0..orders`, every customer holding
    /// `orders / customers` of them and every quantity `orders / QTY_MAX`.
    pub fn new(rng: &mut Rng, orders: usize, customers: usize) -> SqlData {
        let mut owner: Vec<usize> = (0..orders).map(|i| i % customers).collect();
        let mut qty: Vec<i64> = (0..orders).map(|i| 1 + (i as i64) % QTY_MAX).collect();
        rng.shuffle(&mut owner);
        rng.shuffle(&mut qty);
        let orders = (0..orders)
            .map(|i| Order {
                id: i as i64,
                customer: owner[i],
                qty: qty[i],
            })
            .collect();
        SqlData { orders, customers }
    }

    pub fn catalog() -> Catalog {
        Catalog::new()
            .with_table(
                "orders",
                &[("id", false), ("customer", false), ("qty", true)],
            )
            .with_table("cust", &[("customer", false), ("region", false)])
    }

    pub fn database(&self) -> Database {
        let orders = self
            .orders
            .iter()
            .map(|o| {
                vec![
                    SqlValue::Int(o.id),
                    SqlValue::Str(customer_name(o.customer)),
                    SqlValue::Int(o.qty),
                ]
            })
            .collect();
        let cust = (0..self.customers)
            .map(|c| {
                vec![
                    SqlValue::Str(customer_name(c)),
                    SqlValue::Str(format!("r{}", c % 8)),
                ]
            })
            .collect();
        database_from_rows(&SqlData::catalog(), &[("orders", orders), ("cust", cust)])
            .expect("generated rows fit the catalog")
    }
}

/// A class schedule of `len` slots holding each class in exact proportion
/// to its weight (weights sum to 100), shuffled. The workloads cycle
/// through it, so every class meets every phase of the host.
pub fn weighted_schedule<C: Copy>(rng: &mut Rng, len: usize, weights: &[(C, usize)]) -> Vec<C> {
    let mut slots = Vec::with_capacity(len);
    for &(class, weight) in weights {
        slots.extend(std::iter::repeat_n(class, len * weight / 100));
    }
    assert_eq!(slots.len(), len, "weights must divide the schedule evenly");
    rng.shuffle(&mut slots);
    slots
}

/// Binary integer tuples.
pub type Pairs = Vec<(i64, i64)>;

pub fn pairs_bag(rows: &[(i64, i64)]) -> Bag {
    Bag::from_values(
        rows.iter()
            .map(|&(a, b)| Value::tuple([Value::int(a), Value::int(b)])),
    )
}

/// The bags of `query_large`.
pub struct LargeData {
    /// 32 768 distinct pairs over 8 192 keys, four per key in each column.
    pub g: Pairs,
    /// As `g`, independently drawn.
    pub k: Pairs,
    /// 4 096 pairs, one per key `0..4096`.
    pub h: Pairs,
    /// A 48-edge chain over shuffled node labels.
    pub chain: Pairs,
    /// 12 distinct unary tuples.
    pub p: Vec<i64>,
}

pub const LARGE_KEYS: i64 = 8192;
const FANOUT: usize = 4;
pub const CHAIN_EDGES: usize = 48;
pub const POWERSET_ELEMENTS: usize = 12;

/// `{(k, (a·k + bⱼ) mod keys) : k < keys, j < FANOUT}` with `a` odd and the
/// `bⱼ` distinct: `k ↦ a·k + b` is a bijection mod a power of two, so the
/// pairs are distinct and every value occurs `FANOUT` times per column.
fn affine_pairs(rng: &mut Rng, keys: i64) -> Pairs {
    let a = 2 * rng.below(keys as u64 / 2) as i64 + 1;
    let mut offsets = HashSet::new();
    while offsets.len() < FANOUT {
        offsets.insert(rng.below(keys as u64) as i64);
    }
    let mut rows: Pairs = offsets
        .into_iter()
        .flat_map(|b| (0..keys).map(move |k| (k, (a * k + b) % keys)))
        .collect();
    rows.sort_unstable();
    rows
}

impl LargeData {
    pub fn new(rng: &mut Rng) -> LargeData {
        let g = affine_pairs(rng, LARGE_KEYS);
        let k = affine_pairs(rng, LARGE_KEYS);
        let a = 2 * rng.below(LARGE_KEYS as u64 / 2) as i64 + 1;
        let h = (0..LARGE_KEYS / 2)
            .map(|key| (key, (a * key) % LARGE_KEYS))
            .collect();
        let mut labels: Vec<i64> = (0..=CHAIN_EDGES as i64).collect();
        rng.shuffle(&mut labels);
        let chain = labels.windows(2).map(|w| (w[0], w[1])).collect();
        let mut p = HashSet::new();
        while p.len() < POWERSET_ELEMENTS {
            p.insert(rng.below(1000) as i64);
        }
        let mut p: Vec<i64> = p.into_iter().collect();
        p.sort_unstable();
        LargeData { g, k, h, chain, p }
    }

    pub fn database(&self) -> Database {
        Database::new()
            .with("G", pairs_bag(&self.g))
            .with("K", pairs_bag(&self.k))
            .with("H", pairs_bag(&self.h))
            .with("E", pairs_bag(&self.chain))
            .with(
                "P",
                Bag::from_values(self.p.iter().map(|&v| Value::tuple([Value::int(v)]))),
            )
    }
}

/// `(distinct elements, total cardinality)` of a result, computed from
/// the generator's own rows without the engine.
pub type Shape = (u64, u64);

pub fn shape_select_lt(rows: &[(i64, i64)]) -> Shape {
    let n = rows.iter().filter(|(a, b)| a < b).count() as u64;
    (n, n)
}

/// `σ_{α1=α3}(left × right)` over duplicate-free inputs.
pub fn shape_join_on_first(left: &[(i64, i64)], right: &[(i64, i64)]) -> Shape {
    let mut per_key: HashMap<i64, u64> = HashMap::new();
    for (key, _) in right {
        *per_key.entry(*key).or_default() += 1;
    }
    let n = left
        .iter()
        .map(|(key, _)| per_key.get(key).copied().unwrap_or(0))
        .sum();
    (n, n)
}

/// `(left ∪⁺ right) − (left ∩ right)`: multiplicity `max(l, r)`.
pub fn shape_merge(left: &[(i64, i64)], right: &[(i64, i64)]) -> Shape {
    let mut mult: HashMap<(i64, i64), (u64, u64)> = HashMap::new();
    for row in left {
        mult.entry(*row).or_default().0 += 1;
    }
    for row in right {
        mult.entry(*row).or_default().1 += 1;
    }
    (
        mult.len() as u64,
        mult.values().map(|&(l, r)| l.max(r)).sum(),
    )
}

/// `ε(π₁(rows))` and `nest(rows, 1)` both have one element per key.
pub fn shape_keys(rows: &[(i64, i64)]) -> Shape {
    let keys: HashSet<i64> = rows.iter().map(|(key, _)| *key).collect();
    (keys.len() as u64, keys.len() as u64)
}

/// Transitive closure by naive iteration to a fixpoint.
pub fn shape_closure(edges: &[(i64, i64)]) -> Shape {
    let mut closure: HashSet<(i64, i64)> = edges.iter().copied().collect();
    loop {
        let step: Vec<(i64, i64)> = closure
            .iter()
            .flat_map(|&(a, b)| {
                edges
                    .iter()
                    .filter(move |e| e.0 == b)
                    .map(move |e| (a, e.1))
            })
            .filter(|pair| !closure.contains(pair))
            .collect();
        if step.is_empty() {
            return (closure.len() as u64, closure.len() as u64);
        }
        closure.extend(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_data_is_balanced_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let data = SqlData::new(&mut Rng::new(seed, 1), 256, 32);
            for c in 0..32 {
                assert_eq!(data.orders.iter().filter(|o| o.customer == c).count(), 8);
            }
            for q in 1..=QTY_MAX {
                assert_eq!(data.orders.iter().filter(|o| o.qty == q).count(), 32);
            }
            let db = data.database();
            assert_eq!(db.get("orders").unwrap().distinct_count(), 256);
            assert_eq!(db.get("cust").unwrap().distinct_count(), 32);
        }
    }

    #[test]
    fn large_data_shapes_do_not_depend_on_the_seed() {
        for seed in [1, 2] {
            let data = LargeData::new(&mut Rng::new(seed, 2));
            assert_eq!(data.g.len(), 32_768);
            assert_eq!(shape_merge(&data.g, &[]).0, 32_768, "pairs are distinct");
            assert_eq!(shape_keys(&data.g), (8192, 8192));
            assert_eq!(shape_join_on_first(&data.g, &data.h), (16_384, 16_384));
            assert_eq!(shape_closure(&data.chain), (1176, 1176));
            assert_eq!(data.p.len(), POWERSET_ELEMENTS);
        }
    }

    #[test]
    fn naive_shapes_on_a_hand_example() {
        let g = [(1, 2), (2, 3), (3, 1), (1, 1)];
        let e = [(1, 2), (2, 3), (3, 4)];
        assert_eq!(shape_select_lt(&g), (2, 2));
        assert_eq!(shape_merge(&g, &e), (5, 5));
        assert_eq!(shape_merge(&[(1, 1), (1, 1)], &[(1, 1)]), (1, 2));
        assert_eq!(shape_join_on_first(&g, &e), (4, 4));
        assert_eq!(shape_closure(&e), (6, 6));
    }

    #[test]
    fn weighted_schedule_holds_exact_proportions() {
        let slots = weighted_schedule(&mut Rng::new(3, 3), 200, &[('a', 50), ('b', 15), ('c', 35)]);
        assert_eq!(slots.iter().filter(|c| **c == 'a').count(), 100);
        assert_eq!(slots.iter().filter(|c| **c == 'b').count(), 30);
        assert_eq!(slots.iter().filter(|c| **c == 'c').count(), 70);
    }
}
