//! The E1–E18 wall-clock workloads of the `balg-bench` binary.
//!
//! Each group runs the core computation of one experiment at a
//! representative size. Keeping the workloads here — in the library —
//! lets tests smoke-run every group without going through the binary.

use balg_arith::prelude::{check_on_input, even_formula, DomainKind};
use balg_core::bag::Bag;
use balg_core::derived::{
    average, card_gt, dedup_via_powerset_flat, in_degree_gt_out_degree, int_value,
    parity_even_ordered, subtract_via_powerset,
};
use balg_core::eval::{eval_bag, eval_with_metrics, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_games::prelude::{play, star_graphs, ConstraintDuplicator, RandomSpoiler};
use balg_machine::prelude::{compile, flip_machine};
use balg_sql::prelude::{database_from_rows, run as run_sql, Catalog, SqlValue};

use crate::{cycle_graph, workload_bag};

/// One named wall-clock workload: the principal computation of an E-group.
pub struct Group {
    /// Group id, e.g. `e1_occurrence_table`.
    pub name: &'static str,
    /// Runs the workload once.
    pub run: Box<dyn FnMut()>,
}

fn two_tuple_db(n: u64, m: u64) -> Database {
    let mut b = Bag::new();
    b.insert_with_multiplicity(Value::tuple([Value::sym("a"), Value::sym("b")]), n.into());
    b.insert_with_multiplicity(Value::tuple([Value::sym("b"), Value::sym("a")]), m.into());
    Database::new().with("B", b)
}

fn unary_db(n: u64) -> Database {
    Database::new().with("B", Bag::repeated(Value::tuple([Value::sym("a")]), n))
}

/// The full E1–E18 workload set, one [`Group`] per experiment.
pub fn groups() -> Vec<Group> {
    let mut out: Vec<Group> = Vec::new();
    let mut push = |name: &'static str, run: Box<dyn FnMut()>| out.push(Group { name, run });

    {
        let db = two_tuple_db(50, 70);
        let q = Expr::var("B")
            .product(Expr::var("B"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        push(
            "e1_occurrence_table",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let db = unary_db(3);
        let dp = Expr::var("B").powerset().destroy();
        let ddpp = Expr::var("B").powerset().powerset().destroy().destroy();
        push(
            "e2_duplicate_explosion",
            Box::new(move || {
                eval_bag(&dp, &db).unwrap();
                eval_bag(&ddpp, &db).unwrap();
            }),
        );
    }
    {
        let bag = Bag::repeated(Value::sym("a"), 12u64);
        push(
            "e3_powerbag_vs_powerset",
            Box::new(move || {
                bag.powerset(1 << 20).unwrap();
                bag.powerbag(1 << 20).unwrap();
            }),
        );
    }
    {
        let db = Database::new().with("B", workload_bag(8, 3));
        let q = dedup_via_powerset_flat(Expr::var("B"));
        push(
            "e4_dedup_redundancy",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let db = Database::new()
            .with("B1", workload_bag(8, 3))
            .with("B2", workload_bag(5, 5));
        let q = subtract_via_powerset(Expr::var("B1"), Expr::var("B2"));
        push(
            "e5_operator_identities",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let b = Bag::from_values((1..=8u64).map(|v| int_value(2 * v)));
        let db = Database::new().with("B", b);
        let q = average(Expr::var("B"));
        push(
            "e6_aggregates",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let db = Database::new().with("G", cycle_graph(64, 5));
        let q = in_degree_gt_out_degree(Expr::var("G"), Value::int(0));
        push(
            "e7_degree_query",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let make = |size: u64, offset: i64| {
            Bag::from_values((0..size).map(|i| Value::tuple([Value::int(i as i64 + offset)])))
        };
        let db = Database::new()
            .with("R", make(20, 0))
            .with("S", make(18, 1000));
        let q = card_gt(Expr::var("R"), Expr::var("S"));
        push(
            "e8_zero_one_law",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let r = Bag::from_values((0..32i64).map(|i| Value::tuple([Value::int(i)])));
        let db = Database::new().with("R", r);
        let q = parity_even_ordered(Expr::var("R"));
        push(
            "e9_parity",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let expr = Expr::var("G")
            .product(Expr::var("G"))
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            )
            .project(&[1, 4]);
        let db = Database::new()
            .with("G", cycle_graph(16, 2))
            .with("R", workload_bag(4, 1))
            .with("S", workload_bag(4, 1));
        push(
            "e10_translation",
            Box::new(move || {
                balg_relational::translate::check_prop_4_2(&expr, &db).unwrap();
            }),
        );
    }
    {
        let db = Database::new().with("G", cycle_graph(8, 64));
        let q = Expr::var("G").product(Expr::var("G")).project(&[1, 4]);
        push(
            "e11_logspace_counters",
            Box::new(move || {
                let (result, metrics) = eval_with_metrics(&q, &db, Limits::default());
                result.unwrap();
                metrics.max_multiplicity_bits();
            }),
        );
    }
    {
        let db = unary_db(64);
        let q = Expr::var("B").powerset().destroy();
        push(
            "e12_balg2_space",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let (g, gp) = star_graphs(8);
        push(
            "e13_pebble_game",
            Box::new(move || {
                star_graphs(12);
                let mut spoiler = RandomSpoiler::new(1, 4);
                let mut duplicator = ConstraintDuplicator::new(2);
                play(&g, &gp, 3, &mut spoiler, &mut duplicator);
            }),
        );
    }
    {
        let formula = even_formula();
        push(
            "e14_arith_encoding",
            Box::new(move || {
                check_on_input(&formula, "x", DomainKind::Linear, 8, Limits::default()).unwrap();
            }),
        );
    }
    {
        let db = unary_db(2);
        let tower = balg_machine::encoding::e_tower(Expr::var("B"), 2);
        push(
            "e15_hyperexp_tower",
            Box::new(move || {
                eval_bag(&tower, &db).unwrap();
            }),
        );
    }
    {
        let tm = flip_machine();
        let input = ['0', '1', '0'];
        push(
            "e16_tm_ifp",
            Box::new(move || {
                let compiled = compile(&tm, &input, 2);
                compiled.run(Limits::default()).unwrap();
            }),
        );
    }
    {
        let db = Database::new().with("R", workload_bag(16, 4));
        let q = Expr::var("R").product(Expr::var("R")).project(&[1]);
        push(
            "e17_bag_vs_set_cq",
            Box::new(move || {
                eval_bag(&q, &db).unwrap();
            }),
        );
    }
    {
        let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
        let rows: Vec<Vec<SqlValue>> = (0..64)
            .map(|i| vec![SqlValue::Str(format!("c{}", i % 8)), SqlValue::Int(i % 10)])
            .collect();
        let db = database_from_rows(&catalog, &[("orders", rows)]).unwrap();
        push(
            "e18_sql_frontend",
            Box::new(move || {
                run_sql("SELECT SUM(qty) FROM orders", &catalog, &db).unwrap();
            }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_group_runs_once() {
        let mut groups = groups();
        assert_eq!(groups.len(), 18);
        for group in &mut groups {
            (group.run)();
        }
    }
}
