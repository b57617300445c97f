//! Theorem 6.6: compiling a Turing machine to a BALG + IFP program.
//!
//! A computation is represented — exactly as in Theorems 6.1/6.6 — by a
//! bag of 4-tuples `[t, p, s, q]` of type `[⟦U⟧, ⟦U⟧, U, U]`:
//!
//! * `t` is the **time stamp**, a bag of `t` counter atoms;
//! * `p` is the **tape position**, a bag of `p` counter atoms (1-based);
//! * `s` is the cell's symbol;
//! * `q` is the machine state when the head is on that cell, or the
//!   no-head marker `∘` (the paper's `g`) otherwise.
//!
//! The inflationary fixpoint iterates the step expression
//! `T(M) = φ(M) ∪ M`: each iteration joins the head row of the latest
//! configuration against its neighbour rows (Cartesian product + equality
//! selections on the time/position bags, with successor expressed as
//! `p ∪⁺ ⟦•⟧`) and emits the time-`t+1` rows per the paper's clauses
//! (a)–(c). Old configurations can never be removed — the time stamp is
//! exactly the paper's device for tolerating that.
//!
//! The represented tape portion is fixed up front (input + padding), the
//! substitution Theorem 6.1 makes by bounding the index domain `D(B)`.

use std::fmt;

use balg_core::bag::{Bag, BagBuilder};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::natural::Natural;
use balg_core::schema::Database;
use balg_core::value::{Atom, Value};

use crate::tm::{Move, Run, Sym, Tm};

/// The counter atom used inside time/position bags.
const COUNTER: &str = "•";
/// The no-head marker (the paper's `g`).
const NO_HEAD: &str = "∘";

fn counter_atom() -> Value {
    Value::sym(COUNTER)
}

/// The time/position bag of cardinality `n`.
pub fn index_bag(n: u64) -> Value {
    Value::Bag(Bag::repeated(counter_atom(), n))
}

fn sym_atom(s: Sym) -> Value {
    Value::Atom(Atom::sym(&format!("s:{s}")))
}

fn state_atom(q: &str) -> Value {
    Value::Atom(Atom::sym(&format!("q:{q}")))
}

fn no_head_atom() -> Value {
    Value::sym(NO_HEAD)
}

/// `e ∪⁺ ⟦•⟧` — successor on index bags.
fn succ(e: Expr) -> Expr {
    e.additive_union(Expr::Lit(Value::Bag(Bag::singleton(counter_atom()))))
}

/// A machine compiled to a BALG+IFP program over an initial configuration
/// database.
pub struct CompiledTm {
    /// The machine this program simulates.
    pub tm: Tm,
    /// The full program: `IFP_M(step)(C0)`.
    pub program: Expr,
    /// The database binding `C0` to the encoded initial configuration.
    pub database: Database,
    /// Number of represented tape cells.
    pub tape_cells: usize,
}

/// One decoded configuration extracted from the fixpoint rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodedConfig {
    /// The time stamp.
    pub time: u64,
    /// Tape contents, cell 1 first.
    pub tape: Vec<Sym>,
    /// 0-based head position, if a head row exists at this time.
    pub head: Option<usize>,
    /// The state name at the head, if any.
    pub state: Option<String>,
}

/// Errors raised while decoding fixpoint rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A row was not a well-formed `[t, p, s, q]` tuple.
    MalformedRow(String),
    /// The fixpoint produced no rows at all.
    Empty,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::MalformedRow(row) => write!(f, "malformed configuration row {row}"),
            DecodeError::Empty => f.write_str("no configuration rows"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Compile `tm` on `input` with `padding` extra blank cells.
pub fn compile(tm: &Tm, input: &[Sym], padding: usize) -> CompiledTm {
    let cells = (input.len() + padding).max(1);
    // enc(B): the time-0 rows.
    let mut rows = BagBuilder::with_capacity(cells);
    for i in 0..cells {
        let sym = input.get(i).copied().unwrap_or(tm.blank);
        let state = if i == 0 {
            state_atom(&tm.initial)
        } else {
            no_head_atom()
        };
        rows.push_one(Value::tuple([
            index_bag(0),
            index_bag(i as u64 + 1),
            sym_atom(sym),
            state,
        ]));
    }
    let database = Database::new().with("C0", rows.build());

    // The step expression: union of the per-instruction M_λ expressions.
    let mut body: Option<Expr> = None;
    for ((q1, s1), (q2, s2, mv)) in &tm.transitions {
        let instr = instruction_expr(q1, *s1, q2, *s2, *mv);
        body = Some(match body {
            None => instr,
            Some(acc) => acc.max_union(instr),
        });
    }
    // A machine with no instructions is immediately at fixpoint.
    let body = body.unwrap_or_else(|| Expr::var("M"));
    let program = Expr::var("C0").ifp("M", body);
    CompiledTm {
        tm: tm.clone(),
        program,
        database,
        tape_cells: cells,
    }
}

/// The paper's `M_λ` for one instruction. `x` ranges over pairs of rows
/// from `M × M`: attributes 1–4 are the head row `[t, j, s, q]` and 5–8 a
/// second row `[t, i, x, ∘]` at the same time.
fn instruction_expr(q1: &str, s1: Sym, q2: &str, s2: Sym, mv: Move) -> Expr {
    let m = Expr::var("M");
    let x = || Expr::var("x");
    let pairs = m.clone().product(m);
    // Shared guard: first row is the matching head row, second row is a
    // non-head row of the same time stamp.
    let head_guard = Pred::eq(x().attr(4), Expr::lit(state_atom(q1)))
        .and(Pred::eq(x().attr(3), Expr::lit(sym_atom(s1))))
        .and(Pred::eq(x().attr(1), x().attr(5)))
        .and(Pred::eq(x().attr(8), Expr::lit(no_head_atom())));
    let t_next = || succ(x().attr(1));

    match mv {
        Move::Right => {
            // (b) write the head cell, head departs.
            let writes = pairs
                .clone()
                .select(
                    "x",
                    head_guard
                        .clone()
                        .and(Pred::eq(succ(x().attr(2)), x().attr(6))),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(2),
                        Expr::lit(sym_atom(s2)),
                        Expr::lit(no_head_atom()),
                    ]),
                );
            // (c) the head arrives at cell j+1, content unchanged.
            let moves = pairs
                .clone()
                .select(
                    "x",
                    head_guard
                        .clone()
                        .and(Pred::eq(succ(x().attr(2)), x().attr(6))),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(6),
                        x().attr(7),
                        Expr::lit(state_atom(q2)),
                    ]),
                );
            // (a) all other cells copy unchanged.
            let copies = pairs
                .select(
                    "x",
                    head_guard.and(Pred::eq(succ(x().attr(2)), x().attr(6)).not()),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(6),
                        x().attr(7),
                        Expr::lit(no_head_atom()),
                    ]),
                );
            writes.max_union(moves).max_union(copies).dedup()
        }
        Move::Left => {
            // Head arrives at j−1, expressed as i ∪⁺ ⟦•⟧ = j.
            let writes = pairs
                .clone()
                .select(
                    "x",
                    head_guard
                        .clone()
                        .and(Pred::eq(succ(x().attr(6)), x().attr(2))),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(2),
                        Expr::lit(sym_atom(s2)),
                        Expr::lit(no_head_atom()),
                    ]),
                );
            let moves = pairs
                .clone()
                .select(
                    "x",
                    head_guard
                        .clone()
                        .and(Pred::eq(succ(x().attr(6)), x().attr(2))),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(6),
                        x().attr(7),
                        Expr::lit(state_atom(q2)),
                    ]),
                );
            let copies = pairs
                .select(
                    "x",
                    head_guard.and(Pred::eq(succ(x().attr(6)), x().attr(2)).not()),
                )
                .map(
                    "x",
                    Expr::tuple([
                        t_next(),
                        x().attr(6),
                        x().attr(7),
                        Expr::lit(no_head_atom()),
                    ]),
                );
            writes.max_union(moves).max_union(copies).dedup()
        }
        Move::Stay => {
            // The head row updates in place; selection needs only M.
            let head_only = Pred::eq(x().attr(4), Expr::lit(state_atom(q1)))
                .and(Pred::eq(x().attr(3), Expr::lit(sym_atom(s1))));
            let writes = Expr::var("M").select("x", head_only).map(
                "x",
                Expr::tuple([
                    t_next(),
                    x().attr(2),
                    Expr::lit(sym_atom(s2)),
                    Expr::lit(state_atom(q2)),
                ]),
            );
            let copies = pairs.select("x", head_guard).map(
                "x",
                Expr::tuple([
                    t_next(),
                    x().attr(6),
                    x().attr(7),
                    Expr::lit(no_head_atom()),
                ]),
            );
            writes.max_union(copies).dedup()
        }
    }
}

/// The paper's φ₃ acceptance test: the result of `program` has a row in
/// the accepting state — nonempty iff the machine accepted.
pub fn accept_expr(compiled: &CompiledTm) -> Expr {
    compiled.program.clone().select(
        "x",
        Pred::eq(
            Expr::var("x").attr(4),
            Expr::lit(state_atom(&compiled.tm.accepting)),
        ),
    )
}

impl CompiledTm {
    /// Evaluate the fixpoint and decode the final configuration.
    pub fn run(&self, limits: Limits) -> Result<BagRun, BagRunError> {
        let mut evaluator = Evaluator::new(&self.database, limits);
        let rows = evaluator
            .eval_bag(&self.program)
            .map_err(BagRunError::Eval)?;
        let configs = decode_rows(&rows, self.tape_cells).map_err(BagRunError::Decode)?;
        let final_config = configs
            .last()
            .cloned()
            .ok_or(BagRunError::Decode(DecodeError::Empty))?;
        let accepted = final_config
            .state
            .as_deref()
            .is_some_and(|q| q == &*self.tm.accepting);
        Ok(BagRun {
            rows,
            configs,
            final_config,
            accepted,
        })
    }

    /// Check the algebraic trace cell-by-cell against the direct
    /// simulator's run.
    pub fn agrees_with(&self, run: &Run, bag_run: &BagRun) -> bool {
        if bag_run.configs.len() != run.trace.len() {
            return false;
        }
        bag_run.configs.iter().zip(&run.trace).all(|(dec, cfg)| {
            dec.tape[..cfg.tape.len()] == cfg.tape[..]
                && dec.head == Some(cfg.head)
                && dec.state.as_deref() == Some(&*cfg.state)
        })
    }
}

/// The outcome of running a compiled machine.
pub struct BagRun {
    /// All fixpoint rows (every timestamp).
    pub rows: Bag,
    /// Decoded configurations, time 0 first.
    pub configs: Vec<DecodedConfig>,
    /// The configuration with the highest time stamp.
    pub final_config: DecodedConfig,
    /// `true` iff the final state is accepting.
    pub accepted: bool,
}

/// Errors from running a compiled machine.
#[derive(Debug)]
pub enum BagRunError {
    /// The algebra evaluation failed (budget or typing).
    Eval(EvalError),
    /// The fixpoint rows did not decode to configurations.
    Decode(DecodeError),
}

impl fmt::Display for BagRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagRunError::Eval(e) => write!(f, "evaluation failed: {e}"),
            BagRunError::Decode(e) => write!(f, "decoding failed: {e}"),
        }
    }
}

impl std::error::Error for BagRunError {}

/// Decode fixpoint rows into the per-time configurations.
pub fn decode_rows(rows: &Bag, cells: usize) -> Result<Vec<DecodedConfig>, DecodeError> {
    use std::collections::BTreeMap;
    let mut by_time: BTreeMap<u64, BTreeMap<u64, (Sym, Option<String>)>> = BTreeMap::new();
    for (row, _) in rows.iter() {
        let fields = row
            .as_tuple()
            .filter(|f| f.len() == 4)
            .ok_or_else(|| DecodeError::MalformedRow(row.to_string()))?;
        let t = fields[0]
            .as_bag()
            .and_then(|b| b.cardinality().to_u64())
            .ok_or_else(|| DecodeError::MalformedRow(row.to_string()))?;
        let p = fields[1]
            .as_bag()
            .and_then(|b| b.cardinality().to_u64())
            .ok_or_else(|| DecodeError::MalformedRow(row.to_string()))?;
        let sym = match &fields[2] {
            Value::Atom(Atom::Str(s)) if s.starts_with("s:") => s
                .chars()
                .nth(2)
                .ok_or_else(|| DecodeError::MalformedRow(row.to_string()))?,
            _ => return Err(DecodeError::MalformedRow(row.to_string())),
        };
        let state = match &fields[3] {
            Value::Atom(Atom::Str(s)) if s.starts_with("q:") => Some(s[2..].to_owned()),
            Value::Atom(Atom::Str(s)) if &**s == NO_HEAD => None,
            _ => return Err(DecodeError::MalformedRow(row.to_string())),
        };
        by_time.entry(t).or_default().insert(p, (sym, state));
    }
    if by_time.is_empty() {
        return Err(DecodeError::Empty);
    }
    let mut configs = Vec::with_capacity(by_time.len());
    for (time, cells_map) in by_time {
        let mut tape = Vec::with_capacity(cells);
        let mut head = None;
        let mut state = None;
        for pos in 1..=cells as u64 {
            match cells_map.get(&pos) {
                Some((sym, q)) => {
                    tape.push(*sym);
                    if let Some(q) = q {
                        head = Some(pos as usize - 1);
                        state = Some(q.clone());
                    }
                }
                None => tape.push('?'),
            }
        }
        configs.push(DecodedConfig {
            time,
            tape,
            head,
            state,
        });
    }
    Ok(configs)
}

/// Convenience: the multiplicity-free row count the fixpoint produced for
/// a run of `t` steps on `c` cells should be `(t+1)·c`.
pub fn expected_row_count(steps: usize, cells: usize) -> Natural {
    Natural::from(((steps + 1) * cells) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::{flip_machine, parity_machine, unary_successor_machine, zigzag_machine};

    fn run_both(tm: &Tm, input: &[Sym], padding: usize) -> (Run, BagRun) {
        let direct = tm.run(input, padding, 1000).expect("direct run");
        let compiled = compile(tm, input, padding);
        let bag_run = compiled.run(Limits::default()).expect("bag run");
        (direct, bag_run)
    }

    #[test]
    fn flip_machine_agrees_with_simulator() {
        let tm = flip_machine();
        let input = ['0', '1', '0'];
        let (direct, bag_run) = run_both(&tm, &input, 2);
        let compiled = compile(&tm, &input, 2);
        assert!(compiled.agrees_with(&direct, &bag_run));
        assert!(bag_run.accepted);
        assert_eq!(&bag_run.final_config.tape[..3], &['1', '0', '1']);
    }

    #[test]
    fn parity_machine_agrees_and_decides() {
        let tm = parity_machine();
        for n in 0..5 {
            let input: Vec<Sym> = std::iter::repeat_n('1', n).collect();
            let (direct, bag_run) = run_both(&tm, &input, 2);
            assert_eq!(bag_run.accepted, direct.accepted, "acceptance at n={n}");
            assert_eq!(bag_run.accepted, n % 2 == 0);
        }
    }

    #[test]
    fn unary_successor_writes_through_algebra() {
        let tm = unary_successor_machine();
        let (direct, bag_run) = run_both(&tm, &['1', '1', '1'], 2);
        assert!(bag_run.accepted);
        assert_eq!(bag_run.final_config.tape[..4], ['1', '1', '1', '1']);
        assert_eq!(
            bag_run.configs.len(),
            direct.trace.len(),
            "one decoded configuration per simulator step"
        );
    }

    #[test]
    fn left_moves_compile_correctly() {
        let tm = zigzag_machine();
        let (direct, bag_run) = run_both(&tm, &[], 3);
        let compiled = compile(&tm, &[], 3);
        assert!(compiled.agrees_with(&direct, &bag_run));
        assert_eq!(bag_run.final_config.head, Some(0));
        assert_eq!(bag_run.final_config.state.as_deref(), Some("acc"));
    }

    #[test]
    fn accept_expr_detects_acceptance() {
        let tm = parity_machine();
        let even = compile(&tm, &['1', '1'], 2);
        let rows = balg_core::eval::eval_bag(&accept_expr(&even), &even.database).unwrap();
        assert!(!rows.is_empty());
        let odd = compile(&tm, &['1'], 2);
        let rows = balg_core::eval::eval_bag(&accept_expr(&odd), &odd.database).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn row_count_matches_formula() {
        let tm = flip_machine();
        let input = ['0', '1'];
        let (direct, bag_run) = run_both(&tm, &input, 1);
        let cells = input.len() + 1;
        assert_eq!(
            bag_run.rows.cardinality(),
            expected_row_count(direct.steps, cells)
        );
        // Every row has multiplicity one: the encoding is duplicate-free.
        assert!(bag_run.rows.iter().all(|(_, m)| m.is_one()));
    }

    #[test]
    fn program_is_balg2_plus_ifp() {
        use balg_core::analyze::analyze;
        use balg_core::schema::Schema;
        use balg_core::types::Type;
        let tm = flip_machine();
        let compiled = compile(&tm, &['0'], 1);
        let row_ty = Type::Tuple(vec![
            Type::bag(Type::Atom),
            Type::bag(Type::Atom),
            Type::Atom,
            Type::Atom,
        ]);
        let schema = Schema::new().with("C0", Type::bag(row_ty));
        let analysis = analyze(&compiled.program, &schema).unwrap();
        assert!(analysis.uses_ifp);
        assert_eq!(analysis.max_bag_nesting, 2); // BALG² + IFP (Thm 6.6, k ≥ 2)
        assert!(!analysis.uses_powerset);
    }

    #[test]
    fn fixpoint_terminates_on_halted_machine() {
        // A machine with no applicable transition is at fixpoint at once.
        let tm = Tm::new('_', "q", "f", &[("x", '0', "x", '0', Move::Stay)]);
        let compiled = compile(&tm, &['_'], 0);
        let bag_run = compiled.run(Limits::default()).unwrap();
        assert_eq!(bag_run.configs.len(), 1);
        assert!(!bag_run.accepted);
    }

    #[test]
    fn decode_rejects_malformed_rows() {
        let bag = Bag::singleton(Value::sym("nope"));
        assert!(matches!(
            decode_rows(&bag, 1),
            Err(DecodeError::MalformedRow(_))
        ));
    }
}
