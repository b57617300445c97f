//! The `:profile EXPR` report — an `EXPLAIN ANALYZE` for BALG.
//!
//! One renderer shared by every surface (balg-cli, balg-server, and the
//! server's serial twin), so the report is byte-equal across them by
//! construction, exactly like `:analyze`. The operator tree comes from
//! the evaluator's span profiler ([`crate::eval::Evaluator::enable_profiling`]);
//! each line carries wall time, the step charge, the output cardinality,
//! and the fast-path tag when a fused/indexed path fired.
//!
//! Wall times are real by default and therefore differ between runs; the
//! byte-equality tests set [`balg_obs::profile::PROFILE_TICKS_ENV`],
//! which switches the profiler to a deterministic counting clock.

use crate::eval::{Evaluator, Limits};
use crate::expr::Expr;
use crate::parse::parse_expr;
use crate::schema::Database;
use crate::value::Value;

/// Parse and profile `text` against `db`. `Err` carries a parse error;
/// evaluation errors render inside the report (the partial operator tree
/// up to the failure is exactly what one wants to see).
pub fn profile_report(text: &str, db: &Database, limits: Limits) -> Result<String, String> {
    let expr = parse_expr(text).map_err(|e| e.to_string())?;
    Ok(profile_expr(&expr, db, limits))
}

/// Profile an already-parsed expression.
pub fn profile_expr(expr: &Expr, db: &Database, limits: Limits) -> String {
    let mut evaluator = Evaluator::new(db, limits);
    evaluator.enable_profiling();
    let result = evaluator.eval(expr);
    let metrics = evaluator.metrics().clone();
    let profiler = evaluator.take_profiler().expect("profiling just enabled");
    let mut out = profiler.render();
    out.push_str(&format!(
        "total: {} \u{2014} {} steps, max {} distinct, max multiplicity {} ({} bits)\n",
        balg_obs::fmt_ns(profiler.total_ns()),
        metrics.steps,
        metrics.max_distinct_elements,
        metrics.max_multiplicity,
        metrics.max_multiplicity_bits(),
    ));
    match result {
        Ok(Value::Bag(bag)) => out.push_str(&format!(
            "result: {} distinct elements, cardinality {}",
            bag.distinct_count(),
            bag.cardinality()
        )),
        Ok(other) => {
            let mut rendered = other.to_string();
            if rendered.len() > 80 {
                rendered.truncate(77);
                rendered.push_str("...");
            }
            out.push_str(&format!("result: {rendered}"));
        }
        Err(e) => out.push_str(&format!("error: {e}")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Bag;
    use crate::value::Value;

    fn db() -> Database {
        let g = Bag::from_values(
            [("a", "b"), ("b", "c")]
                .iter()
                .map(|(x, y)| Value::tuple([Value::sym(x), Value::sym(y)])),
        );
        Database::new().with("G", g)
    }

    const JOIN: &str = "project(select(x, eq(attr(x,2), attr(x,3)), product(G, G)), 1, 4)";

    #[test]
    fn report_carries_tree_steps_and_result() {
        let report = profile_report(JOIN, &db(), Limits::default());
        let report = report.expect("parses");
        // The chain head frame, its two base scans, and the fast-path tag.
        assert!(report.contains("base G"), "{report}");
        assert!(report.contains("steps"), "{report}");
        assert!(
            report.contains("[indexed-join]") || report.contains("[scan-join]"),
            "{report}"
        );
        assert!(report.contains("total: "), "{report}");
        assert!(report.contains("result: 1 distinct elements"), "{report}");
    }

    #[test]
    fn parse_errors_are_err_and_eval_errors_render_in_report() {
        assert!(profile_report("project(", &db(), Limits::default()).is_err());
        let limits = Limits {
            max_steps: 1,
            ..Limits::default()
        };
        let report = profile_report("dedup(G)", &db(), limits).expect("parses");
        assert!(
            report.contains("error: step budget of 1 exhausted"),
            "{report}"
        );
    }

    #[test]
    fn profiling_is_inert() {
        let expr = parse_expr(JOIN).unwrap();
        let db = db();
        let (plain, plain_metrics) = crate::eval::eval_with_metrics(&expr, &db, Limits::default());
        let mut profiled = Evaluator::new(&db, Limits::default());
        profiled.enable_profiling();
        let presult = profiled.eval(&expr);
        assert_eq!(plain.unwrap(), presult.unwrap());
        assert_eq!(plain_metrics.steps, profiled.metrics().steps);
    }
}
