//! The per-paper-item experiments E1–E18 (see DESIGN.md §2).
//!
//! Each function regenerates one table/figure/claim of the paper and
//! returns a [`Report`] whose `all_match` verdict records whether the
//! measured values equal the paper's predictions. `run_all` drives the
//! full suite; `EXPERIMENTS.md` is generated from its output.

use std::collections::BTreeMap;
use std::sync::Arc;

use balg_core::bag::Bag;
use balg_core::derived::{
    self, average, card_gt, count, decode_int, dedup_via_powerset_flat, dedup_via_powerset_nested,
    in_degree_gt_out_degree, int_value, parity_even_ordered, subtract_via_powerset,
};
use balg_core::eval::{eval_bag, eval_with_metrics, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{b_n, random_database, random_multigraph, random_unary_bag, zoo, ExprZoo};
use crate::polyfit::{detect_natural, Growth};
use crate::report::Report;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

fn sym_tuple(items: &[&str]) -> Value {
    Value::Tuple(items.iter().map(|s| Value::sym(s)).collect())
}

/// E1 — the Section 4 in-text occurrence table for
/// `Q(B) = π₁,₄(σ_{α₂=α₃}(B×B))` over `n×[a,b] + m×[b,a]`.
pub fn e1_occurrence_table() -> Report {
    let mut report = Report::new(
        "E1",
        "Section 4 counting table: Q(B) = π₁,₄(σ α₂=α₃ (B×B))",
        &[
            "n",
            "m",
            "aa in Q",
            "bb in Q",
            "ab in Q",
            "abab in B×B",
            "baab in σ",
            "match",
        ],
    );
    for (n, m) in [(1u64, 1u64), (2, 3), (5, 7), (10, 4)] {
        let mut b = Bag::new();
        b.insert_with_multiplicity(sym_tuple(&["a", "b"]), nat(n));
        b.insert_with_multiplicity(sym_tuple(&["b", "a"]), nat(m));
        let db = Database::new().with("B", b);
        let prod = eval_bag(&Expr::var("B").product(Expr::var("B")), &db).unwrap();
        let selected = eval_bag(
            &Expr::var("B").product(Expr::var("B")).select(
                "x",
                Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
            ),
            &db,
        )
        .unwrap();
        let q = eval_bag(
            &Expr::var("B")
                .product(Expr::var("B"))
                .select(
                    "x",
                    Pred::eq(Expr::var("x").attr(2), Expr::var("x").attr(3)),
                )
                .project(&[1, 4]),
            &db,
        )
        .unwrap();
        let aa = q.multiplicity(&sym_tuple(&["a", "a"]));
        let bb = q.multiplicity(&sym_tuple(&["b", "b"]));
        let ab = q.multiplicity(&sym_tuple(&["a", "b"]));
        let abab = prod.multiplicity(&sym_tuple(&["a", "b", "a", "b"]));
        let baab = selected.multiplicity(&sym_tuple(&["b", "a", "a", "b"]));
        let matches = aa == nat(n * m)
            && bb == nat(n * m)
            && ab.is_zero()
            && abab == nat(n * n)
            && baab == nat(m * n);
        report.push(
            vec![
                n.to_string(),
                m.to_string(),
                aa.to_string(),
                bb.to_string(),
                ab.to_string(),
                abab.to_string(),
                baab.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E2 — Proposition 3.2's claim: per-constant occurrence counts of
/// `δP(B)` and `δδPP(B)` for `B` with `k` constants × `m` occurrences.
pub fn e2_duplicate_explosion() -> Report {
    let mut report = Report::new(
        "E2",
        "Prop 3.2: δP(B) = m(m+1)^k/2 and δδPP(B) = 2^((m+1)^k−2)·(m+1)^k·m per constant",
        &[
            "k",
            "m",
            "δP measured",
            "δP formula",
            "δδPP measured",
            "δδPP formula",
            "match",
        ],
    );
    for (k, m) in [(1u64, 2u64), (1, 3), (2, 2), (2, 3), (1, 5)] {
        let mut b = Bag::new();
        for i in 0..k {
            b.insert_with_multiplicity(Value::sym(&format!("c{i}")), nat(m));
        }
        let db = Database::new().with("B", b);
        let probe = Value::sym("c0");
        let dp = eval_bag(&Expr::var("B").powerset().destroy(), &db).unwrap();
        let dp_measured = dp.multiplicity(&probe);
        let dp_formula = nat(m) * nat(m + 1).pow(k) // m(m+1)^k ...
            ;
        let dp_formula = dp_formula.div_exact_u64(2);
        let ddpp = eval_bag(
            &Expr::var("B").powerset().powerset().destroy().destroy(),
            &db,
        )
        .unwrap();
        let ddpp_measured = ddpp.multiplicity(&probe);
        let exponent = nat(m + 1).pow(k).to_u64().unwrap() - 2;
        let ddpp_formula = Natural::pow2(exponent) * nat(m + 1).pow(k) * nat(m);
        let matches = dp_measured == dp_formula && ddpp_measured == ddpp_formula;
        report.push(
            vec![
                k.to_string(),
                m.to_string(),
                dp_measured.to_string(),
                dp_formula.to_string(),
                ddpp_measured.to_string(),
                ddpp_formula.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E3 — Introduction / Definition 5.1: `|P_b(Bₙ)| = 2ⁿ` vs `|P(Bₙ)| = n+1`
/// on a bag of `n` copies of one constant.
pub fn e3_powerbag_vs_powerset() -> Report {
    let mut report = Report::new(
        "E3",
        "powerbag vs powerset cardinality on n duplicates of one constant",
        &["n", "|P(B)|", "n+1", "|P_b(B)|", "2^n", "match"],
    );
    for n in 0u64..=12 {
        let b = Bag::repeated(Value::sym("a"), n);
        let ps = b.powerset(1 << 20).unwrap().cardinality();
        let pb = b.powerbag(1 << 20).unwrap().cardinality();
        let matches = ps == nat(n + 1) && pb == Natural::pow2(n);
        report.push(
            vec![
                n.to_string(),
                ps.to_string(),
                (n + 1).to_string(),
                pb.to_string(),
                Natural::pow2(n).to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E4 — Proposition 3.1: ε is redundant in full BALG (flat and nested
/// powerset constructions), checked over random bags.
pub fn e4_dedup_redundancy() -> Report {
    let mut report = Report::new(
        "E4",
        "Prop 3.1: ε(B) = δ(P(B) ∩ MAP_β(B)) and ε(B) = P(δ(B)) ∩ B",
        &["seed", "flat identity", "nested identity", "match"],
    );
    for seed in 0..8u64 {
        let flat = random_unary_bag(seed, 4, 3);
        let db = Database::new().with("B", flat.clone());
        let via = eval_bag(&dedup_via_powerset_flat(Expr::var("B")), &db).unwrap();
        let flat_ok = via == flat.dedup();

        // Nested bag: a few inner bags with duplicates.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nested = Bag::new();
        for _ in 0..3 {
            let inner = random_unary_bag(rng.gen(), 3, 2);
            nested.insert_with_multiplicity(Value::Bag(inner), nat(rng.gen_range(1..=3)));
        }
        let dbn = Database::new().with("B", nested.clone());
        let vian = eval_bag(&dedup_via_powerset_nested(Expr::var("B")), &dbn).unwrap();
        let nested_ok = vian == nested.dedup();

        report.push(
            vec![
                seed.to_string(),
                flat_ok.to_string(),
                nested_ok.to_string(),
                (flat_ok && nested_ok).to_string(),
            ],
            flat_ok && nested_ok,
        );
    }
    report
}

/// E5 — Section 3 operator dependencies: `−` from `P` (\[Alb91\] needs the
/// nesting increase), `∪⁺` from `∪` by tagging, `∩` and `∪` from
/// `∪⁺`/`−`.
pub fn e5_operator_identities() -> Report {
    let mut report = Report::new(
        "E5",
        "operator interdefinability: −/∪⁺/∩/∪ identities",
        &[
            "seed",
            "− via P",
            "∪⁺ via tags",
            "∩ via −",
            "∪ via −",
            "match",
        ],
    );
    for seed in 0..8u64 {
        let b1 = random_unary_bag(seed, 5, 4);
        let b2 = random_unary_bag(seed + 100, 5, 4);
        let db = Database::new()
            .with("B1", b1.clone())
            .with("B2", b2.clone());

        let sub_via_p = eval_bag(
            &subtract_via_powerset(Expr::var("B1"), Expr::var("B2")),
            &db,
        )
        .unwrap()
            == b1.subtract(&b2);
        let au_via_tags = eval_bag(
            &derived::additive_union_via_max(Expr::var("B1"), Expr::var("B2"), 1),
            &db,
        )
        .unwrap()
            == b1.additive_union(&b2);
        // \[Alb91\]: B1 ∩ B2 = B1 − (B1 − B2); B1 ∪ B2 = (B1 − B2) ∪⁺ B2.
        let int_via_sub = b1.subtract(&b1.subtract(&b2)) == b1.intersect(&b2);
        let max_via_sub = b1.subtract(&b2).additive_union(&b2) == b1.max_union(&b2);
        let matches = sub_via_p && au_via_tags && int_via_sub && max_via_sub;
        report.push(
            vec![
                seed.to_string(),
                sub_via_p.to_string(),
                au_via_tags.to_string(),
                int_via_sub.to_string(),
                max_via_sub.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E6 — Section 3 aggregates: `count`, `sum`, `average` computed *inside
/// the algebra* vs direct arithmetic.
pub fn e6_aggregates() -> Report {
    let mut report = Report::new(
        "E6",
        "Section 3 aggregates on the integer-bag encoding",
        &["input multiset", "count", "sum", "avg", "match"],
    );
    for values in [
        vec![2u64, 4, 6],
        vec![5],
        vec![1, 1, 1, 1],
        vec![3, 7, 11, 99],
    ] {
        let b = Bag::from_values(values.iter().map(|&v| int_value(v)));
        let db = Database::new().with("B", b);
        let count_out =
            decode_int(&Value::Bag(eval_bag(&count(Expr::var("B")), &db).unwrap())).unwrap();
        let sum_out = decode_int(&Value::Bag(
            eval_bag(&derived::sum(Expr::var("B")), &db).unwrap(),
        ))
        .unwrap();
        let avg_out = decode_int(&Value::Bag(
            eval_bag(&average(Expr::var("B")), &db).unwrap(),
        ))
        .unwrap();
        // The bag collapses duplicate integers into multiplicities; the
        // distinct-value count is what `count` sees... no: count sums
        // multiplicities, so duplicates DO count. Direct expectations:
        let expected_count = values.len() as u64;
        let expected_sum: u64 = values.iter().sum();
        let expected_avg = expected_sum / expected_count;
        let exact_avg = expected_sum.is_multiple_of(expected_count);
        let matches = count_out == nat(expected_count)
            && sum_out == nat(expected_sum)
            && (!exact_avg || avg_out == nat(expected_avg));
        report.push(
            vec![
                format!("{values:?}"),
                count_out.to_string(),
                sum_out.to_string(),
                avg_out.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E7 — Example 4.1 / Proposition 4.3: the degree query on multigraphs —
/// BALG¹ computes it with duplicate edges counted; set semantics (RALG)
/// sees a different answer; the Prop 4.2 translation rightly refuses the
/// subtraction.
pub fn e7_degree_query() -> Report {
    let mut report = Report::new(
        "E7",
        "Example 4.1: in-degree(v) > out-degree(v) with duplicate edges",
        &[
            "seed",
            "node",
            "bag answer",
            "direct",
            "set answer",
            "bag=direct",
            "bag≠set seen",
        ],
    );
    let mut disagreement_seen = false;
    for seed in 0..10u64 {
        let g = random_multigraph(seed, 4, 8, 4);
        let db = Database::new().with("G", g.clone());
        let node = Value::int(0);
        let q = in_degree_gt_out_degree(Expr::var("G"), node.clone());
        let bag_answer = !eval_bag(&q, &db).unwrap().is_empty();
        // Direct computation with multiplicities.
        let (mut indeg, mut outdeg) = (Natural::zero(), Natural::zero());
        let (mut inset, mut outset) = (0usize, 0usize);
        for (edge, mult) in g.iter() {
            let fields = edge.as_tuple().unwrap();
            if fields[1] == node {
                indeg += mult;
                inset += 1;
            }
            if fields[0] == node {
                outdeg += mult;
                outset += 1;
            }
        }
        let direct = indeg > outdeg;
        let set_answer = inset > outset;
        if bag_answer != set_answer {
            disagreement_seen = true;
        }
        report.push(
            vec![
                seed.to_string(),
                "0".into(),
                bag_answer.to_string(),
                direct.to_string(),
                set_answer.to_string(),
                (bag_answer == direct).to_string(),
                (bag_answer != set_answer).to_string(),
            ],
            bag_answer == direct,
        );
    }
    // The separation witness: some seed where duplicates flip the answer.
    report.push(
        vec![
            "summary".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            disagreement_seen.to_string(),
        ],
        disagreement_seen,
    );
    // Prop 4.2 boundary: the query uses −, so the translation refuses it.
    let q = in_degree_gt_out_degree(Expr::var("G"), Value::int(0));
    let refused = balg_relational::translate::balg1_to_ralg(&q).is_err();
    report.push(
        vec![
            "translate".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!("refused={refused}"),
        ],
        refused,
    );
    report
}

/// E8 — Example 4.2: the 0–1 law fails for BALG¹. Monte-Carlo estimate of
/// `μₙ(|R| > |S|)` converges to ½ while the RALG-definable "R is
/// nonempty" converges to 1.
pub fn e8_zero_one_law() -> Report {
    let mut report = Report::new(
        "E8",
        "Example 4.2: μₙ(|R|>|S|) → ½ (no 0–1 law); contrast μₙ(R≠∅) → 1",
        &["n", "trials", "μₙ(|R|>|S|)", "|μ−½|", "μₙ(R≠∅)", "match"],
    );
    let trials = 300u32;
    let mut previous_gap: Option<f64> = None;
    let mut gaps_shrink = true;
    for n in [4u32, 8, 16, 32, 64] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut gt = 0u32;
        let mut nonempty = 0u32;
        for trial in 0..trials {
            // Random unary *relations* (duplicate-free), each element
            // present with probability ½ — the Section 4 probability
            // space.
            let draw = |rng: &mut StdRng| -> u32 {
                let mut size = 0;
                for _ in 0..n {
                    if rng.gen_bool(0.5) {
                        size += 1;
                    }
                }
                size
            };
            let r = draw(&mut rng);
            let s = draw(&mut rng);
            if r > s {
                gt += 1;
            }
            if r > 0 {
                nonempty += 1;
            }
            // Validate the algebra agrees with the counter on a few
            // samples (cheap sizes only).
            if trial < 3 && n <= 16 {
                let make = |size: u32, offset: i64| {
                    Bag::from_values(
                        (0..size).map(|i| Value::tuple([Value::int(i as i64 + offset)])),
                    )
                };
                let db = Database::new()
                    .with("R", make(r, 0))
                    .with("S", make(s, 1000));
                let algebra = !eval_bag(&card_gt(Expr::var("R"), Expr::var("S")), &db)
                    .unwrap()
                    .is_empty();
                assert_eq!(algebra, r > s, "algebra disagrees with counter");
            }
        }
        let mu = gt as f64 / trials as f64;
        let gap = (mu - 0.5).abs();
        if let Some(prev) = previous_gap {
            // Allow sampling noise: require no large regression.
            if gap > prev + 0.08 {
                gaps_shrink = false;
            }
        }
        previous_gap = Some(gap);
        let mu_nonempty = nonempty as f64 / trials as f64;
        let ok = mu > 0.15 && mu < 0.6 && mu_nonempty > 0.9;
        report.push(
            vec![
                n.to_string(),
                trials.to_string(),
                format!("{mu:.3}"),
                format!("{gap:.3}"),
                format!("{mu_nonempty:.3}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    report.push(
        vec![
            "gaps shrink".into(),
            String::new(),
            String::new(),
            gaps_shrink.to_string(),
            String::new(),
            gaps_shrink.to_string(),
        ],
        gaps_shrink,
    );
    report
}

/// E9 — Proposition 4.5 and the order result: every sampled BALG¹
/// expression has eventually-polynomial occurrence counts on `Bₙ` (so
/// none computes `bag-even`), while with order the Section 4 parity
/// expression is exactly correct.
pub fn e9_parity() -> Report {
    let mut report = Report::new(
        "E9",
        "Prop 4.5: BALG¹ counts are polynomial in n; parity needs order",
        &["probe", "result", "match"],
    );
    // (a) The parity-with-order expression is correct for all tested n.
    let mut parity_ok = true;
    for n in 0u64..=14 {
        let r = Bag::from_values((0..n as i64).map(|i| Value::tuple([Value::int(i)])));
        let db = Database::new().with("R", r);
        let nonempty = !eval_bag(&parity_even_ordered(Expr::var("R")), &db)
            .unwrap()
            .is_empty();
        parity_ok &= nonempty == (n > 0 && n % 2 == 0);
    }
    report.push(
        vec![
            "parity-with-order correct on n=0..14".into(),
            parity_ok.to_string(),
            parity_ok.to_string(),
        ],
        parity_ok,
    );
    // (b) Occurrence counts of random BALG¹ expressions over Bₙ are
    // polynomial (finite differences stabilize).
    let mut zoo = ExprZoo::new(5);
    let probe = Value::tuple([Value::sym("a")]);
    let mut all_polynomial = true;
    let mut none_computes_bag_even = true;
    for i in 0..12 {
        let expr = zoo.unary_expr(3);
        // Sample a window that (a) starts late enough to skip the small-n
        // regime switches of min/max operators — the counts are only
        // *eventually* polynomial — and (b) is long enough to certify the
        // zoo's maximal degree (three nested products ⇒ degree 8; 18
        // samples certify up to 16).
        let counts: Vec<Natural> = (8..=25u64)
            .map(|n| {
                eval_bag(&expr, &b_n(n))
                    .map(|bag| bag.multiplicity(&probe))
                    .unwrap_or_default()
            })
            .collect();
        let growth = detect_natural(&counts);
        let polynomial = matches!(growth, Growth::Polynomial { .. });
        all_polynomial &= polynomial;
        // bag-even would be nonempty exactly at even n — check the
        // emptiness pattern is NOT alternating.
        let empt: Vec<bool> = (1..=10u64)
            .map(|n| eval_bag(&expr, &b_n(n)).map_or(true, |b| b.is_empty()))
            .collect();
        let alternating = empt.windows(2).all(|w| w[0] != w[1]);
        none_computes_bag_even &= !alternating;
        report.push(
            vec![
                format!("random expr #{i} growth"),
                format!("{growth:?}"),
                polynomial.to_string(),
            ],
            polynomial,
        );
    }
    report.push(
        vec![
            "no sampled expression computes bag-even".into(),
            none_computes_bag_even.to_string(),
            none_computes_bag_even.to_string(),
        ],
        none_computes_bag_even,
    );
    report.all_match &= all_polynomial;
    report
}

/// E10 — Proposition 4.2: the BALG¹₋₋ → RALG₋₋ translation preserves
/// membership on random databases.
pub fn e10_translation() -> Report {
    let mut report = Report::new(
        "E10",
        "Prop 4.2: a ∈ Q(DB) ⟺ a ∈ Q′(DB′) for subtraction-free BALG¹",
        &["query", "databases checked", "all equivalent"],
    );
    for (name, expr) in zoo() {
        if name.contains('−') || name.contains("uses −") {
            let refused = balg_relational::translate::balg1_to_ralg(&expr).is_err();
            report.push(
                vec![name.into(), "n/a".into(), format!("refused={refused}")],
                refused,
            );
            continue;
        }
        let mut all = true;
        let mut checked = 0;
        for seed in 0..6u64 {
            let db = random_database(seed, 5, 3);
            match balg_relational::translate::check_prop_4_2(&expr, &db) {
                Ok(equivalent) => {
                    all &= equivalent;
                    checked += 1;
                }
                Err(e) => panic!("E10 {name} failed: {e}"),
            }
        }
        report.push(vec![name.into(), checked.to_string(), all.to_string()], all);
    }
    report
}

/// E11 — Theorem 4.4: BALG¹ multiplicities stay polynomial in the input
/// size, so the work-tape counters of the LOGSPACE evaluation need
/// `O(log n)` bits.
pub fn e11_logspace_counters() -> Report {
    let mut report = Report::new(
        "E11",
        "Thm 4.4: max multiplicity of BALG¹ intermediates is polynomial in n",
        &[
            "query",
            "max-mult at n=2,4,8,16,32",
            "bits at n=32",
            "poly?",
            "match",
        ],
    );
    for (name, expr) in zoo() {
        let mut mults = Vec::new();
        let mut counts_for_fit = Vec::new();
        for n in 1..=10u64 {
            let db = Database::new()
                .with("G", uniform_graph(n))
                .with("R", Bag::repeated(Value::tuple([Value::sym("r")]), n))
                .with("S", Bag::repeated(Value::tuple([Value::sym("r")]), n));
            let (result, metrics) = eval_with_metrics(&expr, &db, Limits::default());
            result.unwrap();
            counts_for_fit.push(metrics.max_multiplicity.clone());
            if [2, 4, 8].contains(&n) {
                mults.push(metrics.max_multiplicity.to_string());
            }
        }
        let growth = detect_natural(&counts_for_fit);
        let polynomial = matches!(growth, Growth::Polynomial { .. });
        let bits = counts_for_fit.last().unwrap().bits();
        report.push(
            vec![
                name.into(),
                mults.join(","),
                bits.to_string(),
                format!("{growth:?}"),
                polynomial.to_string(),
            ],
            polynomial,
        );
    }
    report
}

fn uniform_graph(n: u64) -> Bag {
    let mut bag = Bag::new();
    // A cycle graph with every edge duplicated n times: size grows in n.
    for i in 0..4i64 {
        bag.insert_with_multiplicity(
            Value::tuple([Value::int(i), Value::int((i + 1) % 4)]),
            nat(n),
        );
    }
    bag
}

/// E12 — Theorem 5.1: in BALG², distinct-tuple counts stay polynomial and
/// multiplicities at most exponential (single powerset!), so PSPACE
/// suffices.
pub fn e12_balg2_space() -> Report {
    let mut report = Report::new(
        "E12",
        "Thm 5.1: BALG² multiplicities ≤ 2^poly(n); δP(Bₙ) = n(n+1)/2 exactly",
        &[
            "n",
            "δP(Bₙ) mult",
            "n(n+1)/2",
            "|P(Bₙ)| distinct",
            "mult bits ≤ poly",
            "match",
        ],
    );
    for n in 1u64..=24 {
        let db = b_n(n);
        let out = eval_bag(&Expr::var("B").powerset().destroy(), &db).unwrap();
        let measured = out.multiplicity(&Value::tuple([Value::sym("a")]));
        let formula = nat(n * (n + 1) / 2);
        let ps = eval_bag(&Expr::var("B").powerset(), &db).unwrap();
        let distinct = ps.distinct_count() as u64;
        // bits of multiplicity should be O(log n) here (polynomial mult).
        let bits = measured.bits();
        let matches = measured == formula
            && distinct == n + 1
            && bits <= 2 * (64 - n.leading_zeros() as u64) + 2;
        report.push(
            vec![
                n.to_string(),
                measured.to_string(),
                formula.to_string(),
                distinct.to_string(),
                bits.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E13 — Figure 1 / Lemma 5.4 / Theorem 5.2: the star graphs differ on
/// the BALG² degree query, satisfy property (1), and are
/// game-indistinguishable for `n > 2k`.
pub fn e13_pebble_game() -> Report {
    use balg_games::prelude::*;
    let mut report = Report::new(
        "E13",
        "Fig. 1 + Lemma 5.4: G vs G′ — BALG² separates, k-move games cannot",
        &["check", "value", "match"],
    );
    // Property (1) exactly, n = 4..12.
    for n in [4u32, 6, 8, 10, 12] {
        let families = half_families(n);
        let ok = families.verify_property_one() && families.all_distinct();
        report.push(
            vec![
                format!("property (1) at n={n}"),
                ok.to_string(),
                ok.to_string(),
            ],
            ok,
        );
    }
    // Φ differs: degrees of α.
    for n in [4u32, 6, 8] {
        let (g, gp) = star_graphs(n);
        let alpha = alpha_node(n);
        let (din, dout) = degrees(&g, &alpha);
        let (pin, pout) = degrees(&gp, &alpha);
        let ok = din == dout && pin > pout;
        report.push(
            vec![
                format!("Φ separates at n={n}"),
                format!("G: {din}={dout}, G′: {pin}>{pout}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    // Duplicator survives k-move games for n > 2k.
    for (n, k) in [(8u32, 3usize), (10, 4), (12, 5)] {
        let (g, gp) = star_graphs(n);
        let mut wins = 0;
        let games = 5;
        for seed in 0..games {
            let mut spoiler = RandomSpoiler::new(seed, (n / 2) as usize);
            let mut duplicator = ConstraintDuplicator::new(seed + 99);
            if play(&g, &gp, k, &mut spoiler, &mut duplicator) == Outcome::DuplicatorWins {
                wins += 1;
            }
        }
        let ok = wins == games;
        report.push(
            vec![
                format!("duplicator wins n={n}, k={k} (n>2k)"),
                format!("{wins}/{games}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    // The targeted spoiler also fails while n > 2k.
    {
        let n = 10;
        let (g, gp) = star_graphs(n);
        let mut spoiler = FlippedEdgeSpoiler::new(n);
        let mut duplicator = ConstraintDuplicator::new(7);
        let ok = play(&g, &gp, 4, &mut spoiler, &mut duplicator) == Outcome::DuplicatorWins;
        report.push(
            vec![
                "duplicator beats targeted spoiler n=10,k=4".into(),
                ok.to_string(),
                ok.to_string(),
            ],
            ok,
        );
    }
    // But with enough moves the spoiler wins (atom pinning).
    {
        let n = 4;
        let (g, gp) = star_graphs(n);
        let mut spoiler = AtomPinningSpoiler::new(n, &gp);
        let mut duplicator = ConstraintDuplicator::new(3);
        let outcome = play(&g, &gp, 8, &mut spoiler, &mut duplicator);
        let ok = matches!(outcome, Outcome::SpoilerWins { .. });
        report.push(
            vec![
                "spoiler wins with k=8 ≫ n/2 at n=4".into(),
                format!("{outcome:?}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    // Exact solver certifies the duplicator at n=4, k=1.
    {
        let (g, gp) = star_graphs(4);
        let mut solver = GameSolver::new(&g, &gp, &[2, 4], 1 << 22);
        let verdict = solver.solve(1);
        let ok = verdict == Verdict::DuplicatorWins;
        report.push(
            vec![
                "exact solver: duplicator wins n=4, k=1".into(),
                format!("{verdict:?}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    // CALC1 sentences of depth ≤ 2 agree (Theorem 5.3 consequence).
    {
        let (g, gp) = star_graphs(6);
        let mut generator = balg_calc::sentences::SentenceGenerator::new(42);
        let mut agreements = 0;
        let total = 15;
        for _ in 0..total {
            let phi = generator.sentence(2);
            if balg_calc::eval::structures_agree(&phi, &g, &gp).unwrap() {
                agreements += 1;
            }
        }
        let ok = agreements == total;
        report.push(
            vec![
                "random depth-2 CALC1 sentences agree on (G,G′), n=6".into(),
                format!("{agreements}/{total}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    report
}

/// E14 — Lemma 5.7: the arithmetic → BALG²+P_b translation is truth
/// preserving.
pub fn e14_arith_encoding() -> Report {
    use balg_arith::prelude::*;
    let mut report = Report::new(
        "E14",
        "Lemma 5.7: arithmetic formulas vs their BALG² encodings",
        &["formula", "n range", "all agree"],
    );
    let cases: Vec<(&str, Formula, u64)> = vec![
        ("even(x)", even_formula(), 8),
        ("composite(x)", composite_formula(), 12),
        ("prime(x)", prime_formula(), 11),
        ("square(x)", square_formula(), 9),
    ];
    for (name, formula, max_n) in cases {
        let mut all = true;
        for n in 0..=max_n {
            let (algebra, direct) =
                check_on_input(&formula, "x", DomainKind::Linear, n, Limits::default()).unwrap();
            all &= algebra == direct;
        }
        report.push(
            vec![name.into(), format!("0..={max_n}"), all.to_string()],
            all,
        );
    }
    // The powerbag domain reaches exponential witnesses.
    {
        let f = Formula::exists("y", Formula::eq(Term::var("y"), Term::constant(8)));
        let (lin, _) = check_on_input(&f, "x", DomainKind::Linear, 3, Limits::default()).unwrap();
        let (exp, _) = check_on_input(
            &f,
            "x",
            DomainKind::ExponentialPowerbag,
            3,
            Limits::default(),
        )
        .unwrap();
        let ok = !lin && exp;
        report.push(
            vec![
                "∃y. y=8 at n=3: linear domain misses, P_b domain finds".into(),
                format!("linear={lin}, powerbag={exp}"),
                ok.to_string(),
            ],
            ok,
        );
    }
    report
}

/// E15 — Theorems 6.1/6.2: the `N`/`E`/`D` tower grows hyper-
/// exponentially; sparse inputs gain one exponentiation (the
/// sparse-vs-dense contrast of Theorem 6.2).
pub fn e15_hyperexp_tower() -> Report {
    use balg_machine::encoding::{e_powerbag, e_tower};
    let mut report = Report::new(
        "E15",
        "Thm 6.1/6.2: E-tower growth; sparse vs dense double powerset",
        &["probe", "measured", "formula", "match"],
    );
    // E-tower: |E(Bₙ)| = 2^(n+1); |E²(B₁)| = 2^(2^2+1) = 32.
    for n in [1u64, 2, 3] {
        let db = b_n(n);
        let e1 = eval_bag(&e_tower(Expr::var("B"), 1), &db)
            .unwrap()
            .cardinality();
        let formula = Natural::pow2(n + 1);
        report.push(
            vec![
                format!("|E(B_{n})|"),
                e1.to_string(),
                formula.to_string(),
                (e1 == formula).to_string(),
            ],
            e1 == formula,
        );
    }
    {
        let db = b_n(1);
        let e2 = eval_bag(&e_tower(Expr::var("B"), 2), &db)
            .unwrap()
            .cardinality();
        let ok = e2 == nat(32);
        report.push(
            vec![
                "|E²(B₁)|".into(),
                e2.to_string(),
                "32".into(),
                ok.to_string(),
            ],
            ok,
        );
    }
    // Powerbag variant: |E_pb(Bₙ)| = 2ⁿ.
    for n in [2u64, 5, 8] {
        let db = Database::new().with("B", Bag::repeated(Value::sym("u"), n));
        let out = eval_bag(&e_powerbag(Expr::var("B")), &db)
            .unwrap()
            .cardinality();
        let formula = Natural::pow2(n);
        report.push(
            vec![
                format!("|E_pb(B_{n})|"),
                out.to_string(),
                formula.to_string(),
                (out == formula).to_string(),
            ],
            out == formula,
        );
    }
    // Sparse vs dense: P(P(·)) on n=3.
    {
        let dense = Bag::repeated(Value::tuple([Value::sym("a")]), 3u64);
        let sparse = Bag::from_values(
            ["x", "y", "z"]
                .iter()
                .map(|s| Value::tuple([Value::sym(s)])),
        );
        let pp = |bag: Bag| {
            let db = Database::new().with("B", bag);
            eval_bag(&Expr::var("B").powerset().powerset(), &db)
                .unwrap()
                .cardinality()
        };
        let dense_pp = pp(dense);
        let sparse_pp = pp(sparse);
        // dense: P has 4 elements → 2^4 = 16; sparse: P has 8 → 2^8 = 256.
        let ok = dense_pp == nat(16) && sparse_pp == nat(256);
        report.push(
            vec![
                "P(P(B₃)) dense vs sparse".into(),
                format!("{dense_pp} vs {sparse_pp}"),
                "16 vs 256".into(),
                ok.to_string(),
            ],
            ok,
        );
    }
    report
}

/// E16 — Theorem 6.6: TM → BALG+IFP compilation agrees with the direct
/// simulator, machine by machine.
pub fn e16_tm_ifp() -> Report {
    use balg_machine::prelude::*;
    let mut report = Report::new(
        "E16",
        "Thm 6.6: compiled IFP programs reproduce TM runs exactly",
        &[
            "machine",
            "input",
            "accepted (tm/algebra)",
            "trace agrees",
            "rows",
            "match",
        ],
    );
    let cases: Vec<(&'static str, Tm, Vec<Sym>, usize)> = vec![
        ("flip", flip_machine(), vec!['0', '1', '0'], 2),
        ("flip", flip_machine(), vec!['1', '1'], 2),
        ("parity(even)", parity_machine(), vec!['1', '1'], 2),
        ("parity(odd)", parity_machine(), vec!['1', '1', '1'], 2),
        ("successor", unary_successor_machine(), vec!['1', '1'], 2),
        ("zigzag", zigzag_machine(), vec![], 3),
    ];
    for (name, tm, input, padding) in cases {
        let direct = tm.run(&input, padding, 500).unwrap();
        let compiled = compile(&tm, &input, padding);
        let bag_run = compiled.run(Limits::default()).unwrap();
        let agrees = compiled.agrees_with(&direct, &bag_run);
        let rows_ok =
            bag_run.rows.cardinality() == expected_row_count(direct.steps, compiled.tape_cells);
        let matches = agrees && bag_run.accepted == direct.accepted && rows_ok;
        report.push(
            vec![
                name.into(),
                input.iter().collect::<String>(),
                format!("{}/{}", direct.accepted, bag_run.accepted),
                agrees.to_string(),
                bag_run.rows.cardinality().to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E17 — the \[CV93\] remark: conjunctive-query reasoning differs under bag
/// semantics. `π₁(R×R)` equals `R` as sets but not as bags.
pub fn e17_bag_vs_set_cq() -> Report {
    let mut report = Report::new(
        "E17",
        "[CV93] remark: π₁(R×R) ≡ R under sets, ⊋ under bags",
        &[
            "R",
            "π₁(R×R) as bag",
            "equal as sets",
            "equal as bags",
            "match",
        ],
    );
    for (desc, pairs) in [
        ("⟦x⟧", vec![("x", 1u64)]),
        ("⟦x,y⟧", vec![("x", 1), ("y", 1)]),
        ("⟦x²,y⟧", vec![("x", 2), ("y", 1)]),
    ] {
        let mut r = Bag::new();
        for (name, mult) in &pairs {
            r.insert_with_multiplicity(Value::tuple([Value::sym(name)]), nat(*mult));
        }
        let db = Database::new().with("R", r.clone());
        let q1 = eval_bag(&Expr::var("R").product(Expr::var("R")).project(&[1]), &db).unwrap();
        let equal_sets = q1.dedup() == r.dedup();
        let equal_bags = q1 == r;
        // Sets must agree; bags agree iff |R| = 1.
        let expected_bag_equal = r.cardinality() == nat(1);
        let matches = equal_sets && (equal_bags == expected_bag_equal);
        report.push(
            vec![
                desc.into(),
                q1.to_string(),
                equal_sets.to_string(),
                equal_bags.to_string(),
                matches.to_string(),
            ],
            matches,
        );
    }
    report
}

/// E18 — the SQL frontend end-to-end: bag semantics visible at the SQL
/// level, aggregates via the Section 3 constructions.
pub fn e18_sql_frontend() -> Report {
    use balg_sql::prelude::*;
    let mut report = Report::new(
        "E18",
        "SQL-on-bags: duplicates, DISTINCT=ε, aggregates via the algebra",
        &["query", "result", "expected", "match"],
    );
    let catalog = Catalog::new()
        .with_table("orders", &[("customer", false), ("qty", true)])
        .with_table("vip", &[("customer", false)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let db = database_from_rows(
        &catalog,
        &[
            (
                "orders",
                vec![
                    vec![s("ann"), SqlValue::Int(3)],
                    vec![s("ann"), SqlValue::Int(3)],
                    vec![s("bob"), SqlValue::Int(5)],
                    vec![s("cay"), SqlValue::Int(1)],
                ],
            ),
            ("vip", vec![vec![s("ann")], vec![s("bob")]]),
        ],
    )
    .unwrap();
    let checks: Vec<(&str, i64)> = vec![
        ("SELECT COUNT(*) FROM orders", 4),
        ("SELECT COUNT(DISTINCT customer) FROM orders", 3),
        ("SELECT SUM(qty) FROM orders", 12),
        ("SELECT AVG(qty) FROM orders", 3),
        (
            "SELECT COUNT(*) FROM orders o, vip v WHERE o.customer = v.customer",
            3,
        ),
    ];
    for (sql, expected) in checks {
        let result = run(sql, &catalog, &db).unwrap();
        let scalar = result.scalar();
        let ok = scalar == Some(expected);
        report.push(
            vec![
                sql.into(),
                format!("{scalar:?}"),
                expected.to_string(),
                ok.to_string(),
            ],
            ok,
        );
    }
    // Duplicate visibility.
    let dup = run("SELECT customer FROM orders", &catalog, &db).unwrap();
    let ok = dup.total_rows() == 4 && dup.rows().iter().any(|(_, m)| *m == 2);
    report.push(
        vec![
            "SELECT customer FROM orders".into(),
            format!("{} rows, max mult 2", dup.total_rows()),
            "4 rows with a duplicate".into(),
            ok.to_string(),
        ],
        ok,
    );
    let _ = BTreeMap::<Arc<str>, ()>::new();
    report
}

/// Run every experiment, in order.
pub fn run_all() -> Vec<Report> {
    vec![
        e1_occurrence_table(),
        e2_duplicate_explosion(),
        e3_powerbag_vs_powerset(),
        e4_dedup_redundancy(),
        e5_operator_identities(),
        e6_aggregates(),
        e7_degree_query(),
        e8_zero_one_law(),
        e9_parity(),
        e10_translation(),
        e11_logspace_counters(),
        e12_balg2_space(),
        e13_pebble_game(),
        e14_arith_encoding(),
        e15_hyperexp_tower(),
        e16_tm_ifp(),
        e17_bag_vs_set_cq(),
        e18_sql_frontend(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each experiment must (a) run and (b) match the paper's prediction.
    macro_rules! experiment_matches {
        ($name:ident, $f:ident) => {
            #[test]
            fn $name() {
                let report = $f();
                assert!(report.all_match, "{report}");
            }
        };
    }

    experiment_matches!(e1_matches, e1_occurrence_table);
    experiment_matches!(e2_matches, e2_duplicate_explosion);
    experiment_matches!(e3_matches, e3_powerbag_vs_powerset);
    experiment_matches!(e4_matches, e4_dedup_redundancy);
    experiment_matches!(e5_matches, e5_operator_identities);
    experiment_matches!(e6_matches, e6_aggregates);
    experiment_matches!(e7_matches, e7_degree_query);
    experiment_matches!(e8_matches, e8_zero_one_law);
    experiment_matches!(e9_matches, e9_parity);
    experiment_matches!(e10_matches, e10_translation);
    experiment_matches!(e11_matches, e11_logspace_counters);
    experiment_matches!(e12_matches, e12_balg2_space);
    experiment_matches!(e13_matches, e13_pebble_game);
    experiment_matches!(e14_matches, e14_arith_encoding);
    experiment_matches!(e15_matches, e15_hyperexp_tower);
    experiment_matches!(e16_matches, e16_tm_ifp);
    experiment_matches!(e17_matches, e17_bag_vs_set_cq);
    experiment_matches!(e18_matches, e18_sql_frontend);
}
