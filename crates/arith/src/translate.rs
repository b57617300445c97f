//! Lemma 5.7: encoding bounded arithmetic into BALG² + powerbag.
//!
//! An integer `i` is a bag of `i` occurrences of the unit tuple `[a]`;
//! addition is `∪⁺`, multiplication is `π₁(x × y)`. The bounded
//! quantification domain is the nested bag
//! `D(bₙ) = P(Eⁱ(bₙ))`, with the exponential step
//! `E(b) = count(P_b(b))` — the powerbag distinguishes occurrences, so a
//! single application multiplies cardinalities by `2ⁿ` without exceeding
//! one level of bag nesting (this is the engine of Theorem 5.5).
//!
//! A formula compiles to a BALG expression computing the bag of its
//! **satisfying assignments**: `m`-tuples of integer bags over the
//! formula's free variables, each once. Following the classical
//! calculus→algebra translation, conjunction is product + selection +
//! projection, negation is complement against the domain product, and
//! the existential is a projection.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use balg_core::bag::Bag;
use balg_core::derived::{count, decode_int, int_add, int_lit, int_mul};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::Value;

use crate::formula::{ArithVar, Formula, Term};

/// Which exponential step builds the quantification domain.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DomainKind {
    /// `D = P(N(b))`: integers `0 … n`. Tower height 0.
    Linear,
    /// `D = P(E(N(b)))` with `E = count ∘ P_b`: integers `0 … 2ⁿ`
    /// (Lemma 5.7 / Theorem 5.5, one powerbag).
    ExponentialPowerbag,
}

/// A compiled formula: `expr` evaluates to the bag of satisfying
/// assignments, one `columns`-tuple of integer bags per assignment.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The BALG expression.
    pub expr: Expr,
    /// Column names (sorted), one per free variable.
    pub columns: Vec<ArithVar>,
}

struct Ctx {
    /// Name of the database bag holding the input `bₙ`.
    input_bag: &'static str,
    /// The distinguished input variable (its domain is the singleton
    /// `⟦[N(b)]⟧`, per the paper's `Dᵢ = ⟦bₙ⟧` clause).
    input_var: ArithVar,
    kind: DomainKind,
    fresh: u64,
}

impl Ctx {
    /// `N(b)` as a bag of unit tuples.
    fn n_of_input(&self) -> Expr {
        count(Expr::var(self.input_bag))
    }

    /// The quantification domain `D`, wrapped as a bag of 1-tuples so that
    /// Cartesian products apply.
    fn domain_wrapped(&self) -> Expr {
        let base = match self.kind {
            DomainKind::Linear => self.n_of_input(),
            DomainKind::ExponentialPowerbag => count(self.n_of_input().powerbag()),
        };
        base.powerset().map("d̂", Expr::tuple([Expr::var("d̂")]))
    }

    /// The singleton domain for the input variable: `⟦[N(b)]⟧`.
    fn input_domain_wrapped(&self) -> Expr {
        Expr::tuple([self.n_of_input()]).singleton()
    }

    fn domain_for(&self, var: &ArithVar) -> Expr {
        if *var == self.input_var {
            self.input_domain_wrapped()
        } else {
            self.domain_wrapped()
        }
    }

    /// The product of the domains of `columns` (the complement universe
    /// for negation); the 0-column universe is the singleton empty tuple.
    fn universe(&self, columns: &[ArithVar]) -> Expr {
        let mut acc: Option<Expr> = None;
        for column in columns {
            let d = self.domain_for(column);
            acc = Some(match acc {
                None => d,
                Some(prev) => prev.product(d),
            });
        }
        acc.unwrap_or_else(|| {
            Expr::Lit(Value::Bag(Bag::singleton(Value::Tuple(Vec::new().into()))))
        })
    }

    fn fresh_var(&mut self) -> ArithVar {
        self.fresh += 1;
        Arc::from(format!("ζ{}", self.fresh))
    }
}

/// Compile `formula` (with distinguished input variable `input_var`) into
/// a BALG expression over a database bag named `b` holding the unary
/// input `bₙ`.
pub fn compile(formula: &Formula, input_var: &str, kind: DomainKind) -> Compiled {
    let mut ctx = Ctx {
        input_bag: "b",
        input_var: Arc::from(input_var),
        kind,
        fresh: 0,
    };
    compile_rec(formula, &mut ctx)
}

fn term_expr(term: &Term, columns: &[ArithVar], row: &Expr) -> Expr {
    match term {
        Term::Var(name) => {
            let idx = columns
                .iter()
                .position(|c| c == name)
                .expect("term variable must be a column");
            row.clone().attr(idx + 1)
        }
        Term::Const(value) => int_lit(*value),
        Term::Add(a, b) => int_add(term_expr(a, columns, row), term_expr(b, columns, row)),
        Term::Mul(a, b) => int_mul(term_expr(a, columns, row), term_expr(b, columns, row)),
    }
}

fn compile_rec(formula: &Formula, ctx: &mut Ctx) -> Compiled {
    match formula {
        Formula::Eq(t1, t2) => {
            let mut vars = Vec::new();
            t1.vars(&mut vars);
            t2.vars(&mut vars);
            vars.sort();
            vars.dedup();
            let universe = ctx.universe(&vars);
            let row = Expr::var("r̂");
            let pred = Pred::eq(term_expr(t1, &vars, &row), term_expr(t2, &vars, &row));
            Compiled {
                expr: universe.select("r̂", pred).dedup(),
                columns: vars,
            }
        }
        // t ≤ t′ ⇝ ∃z. t + z = t′ (the w.l.o.g. elimination of ≤).
        Formula::Le(t1, t2) => {
            let z = ctx.fresh_var();
            let rewritten = Formula::Exists(
                z.clone(),
                Box::new(Formula::Eq(
                    Term::Add(Box::new(t1.clone()), Box::new(Term::Var(z))),
                    t2.clone(),
                )),
            );
            compile_rec(&rewritten, ctx)
        }
        Formula::Not(p) => {
            let inner = compile_rec(p, ctx);
            let universe = ctx.universe(&inner.columns).dedup();
            Compiled {
                expr: universe.subtract(inner.expr),
                columns: inner.columns,
            }
        }
        Formula::And(a, b) => {
            let ca = compile_rec(a, ctx);
            let cb = compile_rec(b, ctx);
            join(ca, cb, ctx)
        }
        Formula::Or(a, b) => {
            let ca = compile_rec(a, ctx);
            let cb = compile_rec(b, ctx);
            let mut columns: Vec<ArithVar> =
                ca.columns.iter().chain(&cb.columns).cloned().collect();
            columns.sort();
            columns.dedup();
            let left = align(ca, &columns, ctx);
            let right = align(cb, &columns, ctx);
            Compiled {
                expr: left.max_union(right).dedup(),
                columns,
            }
        }
        Formula::Exists(x, p) => {
            let inner = compile_rec(p, ctx);
            match inner.columns.iter().position(|c| c == x) {
                None => inner, // vacuous quantifier (domain is nonempty)
                Some(_) => {
                    let columns: Vec<ArithVar> =
                        inner.columns.iter().filter(|c| *c != x).cloned().collect();
                    let expr = project_columns(inner.expr, &inner.columns, &columns);
                    Compiled { expr, columns }
                }
            }
        }
        Formula::Forall(x, p) => {
            // ∀x.φ ⇝ ¬∃x.¬φ
            let rewritten = Formula::Not(Box::new(Formula::Exists(
                x.clone(),
                Box::new(Formula::Not(p.clone())),
            )));
            compile_rec(&rewritten, ctx)
        }
    }
}

/// Natural join on shared columns, then project to the sorted union.
fn join(ca: Compiled, cb: Compiled, ctx: &mut Ctx) -> Compiled {
    let mut columns: Vec<ArithVar> = ca.columns.iter().chain(&cb.columns).cloned().collect();
    columns.sort();
    columns.dedup();
    let offset = ca.columns.len();
    let row = || Expr::var("ĵ");
    // Selection: shared columns equal.
    let mut pred = Pred::True;
    for (j, col) in cb.columns.iter().enumerate() {
        if let Some(i) = ca.columns.iter().position(|c| c == col) {
            pred = pred.and(Pred::eq(row().attr(i + 1), row().attr(offset + j + 1)));
        }
    }
    let joined = ca.expr.product(cb.expr).select("ĵ", pred);
    // Project to the union columns (take from the left side when shared).
    let combined: Vec<ArithVar> = ca.columns.iter().chain(&cb.columns).cloned().collect();
    let expr = project_columns(joined, &combined, &columns);
    let _ = ctx;
    Compiled { expr, columns }
}

/// Pad with missing domains, then reorder to `target`.
fn align(c: Compiled, target: &[ArithVar], ctx: &mut Ctx) -> Expr {
    let missing: Vec<ArithVar> = target
        .iter()
        .filter(|t| !c.columns.contains(t))
        .cloned()
        .collect();
    let mut expr = c.expr;
    let mut combined = c.columns;
    for m in &missing {
        expr = expr.product(ctx.domain_for(m));
        combined.push(m.clone());
    }
    project_columns(expr, &combined, target)
}

/// `MAP` re-ordering `source`-column tuples into `target`-column tuples
/// (every target column must occur in `source`), with duplicate
/// elimination (the paper's "projection using MAP and duplicate
/// elimination").
fn project_columns(expr: Expr, source: &[ArithVar], target: &[ArithVar]) -> Expr {
    if source == target {
        return expr.dedup();
    }
    let row = Expr::var("p̂");
    let fields = target.iter().map(|t| {
        let idx = source
            .iter()
            .position(|s| s == t)
            .expect("target column must exist in source");
        row.clone().attr(idx + 1)
    });
    expr.map("p̂", Expr::tuple(fields.collect::<Vec<_>>()))
        .dedup()
}

/// Errors from [`check_on_input`].
#[derive(Debug)]
pub enum ArithCheckError {
    /// Evaluation of the compiled expression failed.
    Eval(EvalError),
    /// The direct evaluator overflowed `u64`.
    Overflow,
}

impl fmt::Display for ArithCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithCheckError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ArithCheckError::Overflow => f.write_str("direct evaluation overflowed"),
        }
    }
}

impl std::error::Error for ArithCheckError {}

/// The database binding `b` to the unary input `bₙ` (a bag of `n`
/// occurrences of one tuple).
pub fn input_database(n: u64) -> Database {
    Database::new().with("b", Bag::repeated(Value::tuple([Value::sym("u")]), n))
}

/// The quantifier bound realized by `kind` on input `n` (inclusive).
pub fn realized_bound(kind: DomainKind, n: u64) -> u64 {
    match kind {
        DomainKind::Linear => n,
        DomainKind::ExponentialPowerbag => 1u64 << n.min(62),
    }
}

/// Evaluate a compiled **sentence** (single free variable = the input) on
/// `bₙ` and compare against the direct bounded evaluator:
/// `φ′(bₙ) ≠ ∅ ⟺ φ(n)` (Lemma 5.7). Returns `(algebra, direct)`.
pub fn check_on_input(
    formula: &Formula,
    input_var: &str,
    kind: DomainKind,
    n: u64,
    limits: Limits,
) -> Result<(bool, bool), ArithCheckError> {
    let compiled = compile(formula, input_var, kind);
    let db = input_database(n);
    let mut evaluator = Evaluator::new(&db, limits);
    let out = evaluator
        .eval_bag(&compiled.expr)
        .map_err(ArithCheckError::Eval)?;
    let algebra = !out.is_empty();
    let mut env = BTreeMap::new();
    env.insert(Arc::from(input_var), n);
    let direct = formula
        .eval_bounded(&mut env, realized_bound(kind, n))
        .ok_or(ArithCheckError::Overflow)?;
    Ok((algebra, direct))
}

/// Decode the satisfying assignments of a compiled formula's result bag.
pub fn decode_assignments(bag: &Bag, columns: &[ArithVar]) -> Option<Vec<BTreeMap<ArithVar, u64>>> {
    let mut out = Vec::new();
    for (row, _) in bag.iter() {
        let fields = row.as_tuple()?;
        if fields.len() != columns.len() {
            return None;
        }
        let mut assignment = BTreeMap::new();
        for (column, field) in columns.iter().zip(fields) {
            let value = decode_int(field)?.to_u64()?;
            assignment.insert(column.clone(), value);
        }
        out.push(assignment);
    }
    Some(out)
}

/// The exact number of integers in the domain `D` on input `n` —
/// `|Eⁱ(bₙ)| + 1`.
pub fn domain_cardinality(kind: DomainKind, n: u64) -> Natural {
    match kind {
        DomainKind::Linear => Natural::from(n + 1),
        DomainKind::ExponentialPowerbag => Natural::pow2(n).succ(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{composite_formula, even_formula, prime_formula, square_formula};

    fn agree(formula: &Formula, n: u64) {
        let (algebra, direct) =
            check_on_input(formula, "x", DomainKind::Linear, n, Limits::default()).unwrap();
        assert_eq!(algebra, direct, "algebra vs direct at n={n} for {formula}");
    }

    #[test]
    fn even_translation_agrees() {
        let f = even_formula();
        for n in 0..9 {
            agree(&f, n);
        }
    }

    #[test]
    fn composite_translation_agrees() {
        let f = composite_formula();
        for n in 0..13 {
            agree(&f, n);
        }
    }

    #[test]
    fn prime_translation_agrees() {
        let f = prime_formula();
        for n in 0..12 {
            agree(&f, n);
        }
    }

    #[test]
    fn square_translation_agrees() {
        let f = square_formula();
        for n in 0..10 {
            agree(&f, n);
        }
    }

    #[test]
    fn forall_translation_agrees() {
        // ∀y. y ≤ x: with the inclusive bound this holds iff bound ≤ x,
        // i.e. always on the Linear domain (bound = n = x)... check both.
        let f = Formula::forall("y", Formula::le(Term::var("y"), Term::var("x")));
        for n in 0..6 {
            agree(&f, n);
        }
        // ∀y. ¬(y = x + 1): the domain never reaches x+1 on Linear.
        let g = Formula::forall(
            "y",
            Formula::eq(Term::var("y"), Term::var("x") + Term::constant(1)).not(),
        );
        for n in 0..5 {
            agree(&g, n);
        }
    }

    #[test]
    fn powerbag_domain_reaches_exponential_witnesses() {
        // ∃y. y = 2^... : witness 2ⁿ needs the exponential domain.
        // With n = 3: witness 8 > 3 exists only in the powerbag domain.
        let f = Formula::exists("y", Formula::eq(Term::var("y"), Term::constant(8)));
        let (alg_lin, dir_lin) =
            check_on_input(&f, "x", DomainKind::Linear, 3, Limits::default()).unwrap();
        assert!(!alg_lin && !dir_lin);
        let (alg_exp, dir_exp) = check_on_input(
            &f,
            "x",
            DomainKind::ExponentialPowerbag,
            3,
            Limits::default(),
        )
        .unwrap();
        assert!(alg_exp && dir_exp);
    }

    #[test]
    fn assignments_decode() {
        // Free y with x: y + y = x on input 6 → y = 3.
        let f = Formula::eq(Term::var("y") + Term::var("y"), Term::var("x"));
        let compiled = compile(&f, "x", DomainKind::Linear);
        assert_eq!(compiled.columns.len(), 2);
        let db = input_database(6);
        let out = balg_core::eval::eval_bag(&compiled.expr, &db).unwrap();
        let assignments = decode_assignments(&out, &compiled.columns).unwrap();
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0][&Arc::<str>::from("y")], 3);
        assert_eq!(assignments[0][&Arc::<str>::from("x")], 6);
    }

    #[test]
    fn compiled_formula_is_balg2() {
        use balg_core::analyze::analyze;
        use balg_core::schema::Schema;
        use balg_core::types::Type;
        let compiled = compile(&even_formula(), "x", DomainKind::ExponentialPowerbag);
        let schema = Schema::new().with("b", Type::relation(1));
        let analysis = analyze(&compiled.expr, &schema).unwrap();
        assert!(analysis.uses_powerbag);
        assert_eq!(analysis.max_bag_nesting, 2, "Lemma 5.7 stays within BALG²");
    }

    #[test]
    fn domain_cardinalities() {
        assert_eq!(
            domain_cardinality(DomainKind::Linear, 5),
            Natural::from(6u64)
        );
        assert_eq!(
            domain_cardinality(DomainKind::ExponentialPowerbag, 5),
            Natural::from(33u64)
        );
    }
}
