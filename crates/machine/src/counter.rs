//! Counter (Minsky) machines and their bag simulation.
//!
//! Section 2 notes that relational machines extended with counters
//! (\[GO93\]) relate closely to bags (\[GM95\]): *a bag of `n` identical
//! elements is a counter at value `n`*. This module makes that concrete —
//! a two-operation counter machine (increment; decrement-or-branch-on-
//! zero) is compiled to a BALG + IFP program in which every register is an
//! integer bag, increment is `∪⁺ ⟦a⟧`, decrement is `− ⟦a⟧`, and the zero
//! test is bag emptiness (`α = ⟦⟧`). Configurations accumulate under a
//! time stamp exactly as in the Theorem 6.6 Turing-machine compilation.

use std::fmt;

use balg_core::bag::Bag;
use balg_core::derived::{decode_int, UNIT_ATOM};
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Pred};
use balg_core::schema::Database;
use balg_core::value::Value;

/// A register index.
pub type Reg = usize;

/// One counter-machine instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CounterInstr {
    /// `r += 1; goto next`.
    Inc {
        /// Register.
        reg: Reg,
        /// Next program counter.
        next: usize,
    },
    /// `if r == 0 { goto on_zero } else { r -= 1; goto next }`.
    DecJz {
        /// Register.
        reg: Reg,
        /// Next pc after a successful decrement.
        next: usize,
        /// Target when the register is zero.
        on_zero: usize,
    },
    /// Stop.
    Halt,
}

/// A counter machine: a program over `registers` counters; pc 0 starts.
#[derive(Clone, Debug)]
pub struct CounterMachine {
    /// Number of registers.
    pub registers: usize,
    /// The program; `Halt` or a pc past the end stops the machine.
    pub program: Vec<CounterInstr>,
}

/// A direct run's outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterRun {
    /// Final register values.
    pub registers: Vec<u64>,
    /// Steps taken.
    pub steps: usize,
}

/// Why a direct run failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CounterError {
    /// Step budget exhausted.
    StepBudget(usize),
    /// An instruction referenced a register out of range.
    BadRegister(Reg),
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::StepBudget(n) => write!(f, "did not halt within {n} steps"),
            CounterError::BadRegister(r) => write!(f, "register r{r} out of range"),
        }
    }
}

impl std::error::Error for CounterError {}

impl CounterMachine {
    /// Run directly on the given initial register values.
    pub fn run(&self, initial: &[u64], max_steps: usize) -> Result<CounterRun, CounterError> {
        let mut registers: Vec<u64> = initial.to_vec();
        registers.resize(self.registers, 0);
        let mut pc = 0usize;
        for step in 0..max_steps {
            match self.program.get(pc) {
                None | Some(CounterInstr::Halt) => {
                    return Ok(CounterRun {
                        registers,
                        steps: step,
                    });
                }
                Some(CounterInstr::Inc { reg, next }) => {
                    let slot = registers
                        .get_mut(*reg)
                        .ok_or(CounterError::BadRegister(*reg))?;
                    *slot += 1;
                    pc = *next;
                }
                Some(CounterInstr::DecJz { reg, next, on_zero }) => {
                    let slot = registers
                        .get_mut(*reg)
                        .ok_or(CounterError::BadRegister(*reg))?;
                    if *slot == 0 {
                        pc = *on_zero;
                    } else {
                        *slot -= 1;
                        pc = *next;
                    }
                }
            }
        }
        Err(CounterError::StepBudget(max_steps))
    }
}

fn pc_atom(pc: usize) -> Value {
    Value::sym(&format!("pc:{pc}"))
}

fn time_bag(t: u64) -> Value {
    Value::Bag(Bag::repeated(Value::sym("•"), t))
}

fn register_bag(v: u64) -> Value {
    Value::Bag(Bag::repeated(Value::tuple([Value::sym(UNIT_ATOM)]), v))
}

fn one() -> Expr {
    Expr::Lit(Value::Bag(Bag::singleton(Value::tuple([Value::sym(
        UNIT_ATOM,
    )]))))
}

fn tick() -> Expr {
    Expr::Lit(Value::Bag(Bag::singleton(Value::sym("•"))))
}

/// A counter machine compiled to BALG + IFP. Rows are
/// `[t, pc, r₀, …, r_{k−1}]` with `t` a counter-atom bag, `pc` an atom,
/// and every register an integer bag.
pub struct CompiledCounterMachine {
    /// The machine.
    pub machine: CounterMachine,
    /// The IFP program.
    pub program: Expr,
    /// Database binding `C0` to the initial configuration row.
    pub database: Database,
}

/// Compile `machine` on the given initial register values.
pub fn compile_counter(machine: &CounterMachine, initial: &[u64]) -> CompiledCounterMachine {
    let k = machine.registers;
    let mut row = vec![time_bag(0), pc_atom(0)];
    for r in 0..k {
        row.push(register_bag(initial.get(r).copied().unwrap_or(0)));
    }
    let database = Database::new().with("C0", Bag::singleton(Value::Tuple(row.into())));

    let x = || Expr::var("x");
    let reg_attr = |r: Reg| x().attr(r + 3); // 1 = time, 2 = pc
                                             // Build one MAP per instruction outcome.
    let mut body: Option<Expr> = None;
    let mut add_rule = |pred: Pred, build: Box<dyn Fn() -> Vec<Expr>>| {
        let rule = Expr::var("M")
            .select("x", pred)
            .map("x", Expr::Tuple(build()))
            .dedup();
        body = Some(match body.take() {
            None => rule,
            Some(acc) => acc.max_union(rule),
        });
    };
    for (pc, instr) in machine.program.iter().enumerate() {
        let at_pc = Pred::eq(x().attr(2), Expr::lit(pc_atom(pc)));
        match instr {
            CounterInstr::Halt => {}
            CounterInstr::Inc { reg, next } => {
                let (reg, next) = (*reg, *next);
                add_rule(
                    at_pc,
                    Box::new(move |/* build row */| {
                        let mut fields =
                            vec![x().attr(1).additive_union(tick()), Expr::lit(pc_atom(next))];
                        for r in 0..k {
                            if r == reg {
                                fields.push(reg_attr(r).additive_union(one()));
                            } else {
                                fields.push(reg_attr(r));
                            }
                        }
                        fields
                    }),
                );
            }
            CounterInstr::DecJz { reg, next, on_zero } => {
                let (reg, next, on_zero) = (*reg, *next, *on_zero);
                // Nonzero branch: the bag − ⟦a⟧ decrement.
                let nonzero = at_pc
                    .clone()
                    .and(Pred::eq(reg_attr(reg), Expr::empty_bag()).not());
                add_rule(
                    nonzero,
                    Box::new(move || {
                        let mut fields =
                            vec![x().attr(1).additive_union(tick()), Expr::lit(pc_atom(next))];
                        for r in 0..k {
                            if r == reg {
                                fields.push(reg_attr(r).subtract(one()));
                            } else {
                                fields.push(reg_attr(r));
                            }
                        }
                        fields
                    }),
                );
                // Zero branch: emptiness is the zero test.
                let zero = at_pc.and(Pred::eq(reg_attr(reg), Expr::empty_bag()));
                add_rule(
                    zero,
                    Box::new(move || {
                        let mut fields = vec![
                            x().attr(1).additive_union(tick()),
                            Expr::lit(pc_atom(on_zero)),
                        ];
                        for r in 0..k {
                            fields.push(reg_attr(r));
                        }
                        fields
                    }),
                );
            }
        }
    }
    let body = body.unwrap_or_else(|| Expr::var("M"));
    let program = Expr::var("C0").ifp("M", body);
    CompiledCounterMachine {
        machine: machine.clone(),
        program,
        database,
    }
}

/// Errors from running a compiled counter machine.
#[derive(Debug)]
pub enum CounterBagError {
    /// Evaluation failed (budget, shape).
    Eval(EvalError),
    /// The fixpoint rows did not decode.
    Decode(String),
}

impl fmt::Display for CounterBagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterBagError::Eval(e) => write!(f, "evaluation failed: {e}"),
            CounterBagError::Decode(what) => write!(f, "decode failed: {what}"),
        }
    }
}

impl std::error::Error for CounterBagError {}

impl CompiledCounterMachine {
    /// Run the fixpoint and decode the final register values.
    pub fn run(&self, limits: Limits) -> Result<CounterRun, CounterBagError> {
        let mut evaluator = Evaluator::new(&self.database, limits);
        let rows = evaluator
            .eval_bag(&self.program)
            .map_err(CounterBagError::Eval)?;
        let mut best: Option<(u64, Vec<u64>)> = None;
        let mut steps = 0u64;
        for (row, _) in rows.iter() {
            let fields = row
                .as_tuple()
                .ok_or_else(|| CounterBagError::Decode(row.to_string()))?;
            let t = fields
                .first()
                .and_then(Value::as_bag)
                .and_then(|b| b.cardinality().to_u64())
                .ok_or_else(|| CounterBagError::Decode(row.to_string()))?;
            let registers = fields[2..]
                .iter()
                .map(|f| decode_int(f).and_then(|n| n.to_u64()))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| CounterBagError::Decode(row.to_string()))?;
            steps = steps.max(t);
            if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
                best = Some((t, registers));
            }
        }
        let (t, registers) = best.ok_or_else(|| CounterBagError::Decode("no rows".into()))?;
        debug_assert_eq!(t, steps);
        Ok(CounterRun {
            registers,
            steps: t as usize,
        })
    }
}

/// `r0 := r0 + r1; r1 := 0` — the classic transfer-addition loop.
pub fn addition_machine() -> CounterMachine {
    CounterMachine {
        registers: 2,
        program: vec![
            // 0: if r1 == 0 goto 3 else r1 -= 1
            CounterInstr::DecJz {
                reg: 1,
                next: 1,
                on_zero: 3,
            },
            // 1: r0 += 1
            CounterInstr::Inc { reg: 0, next: 0 },
            // 2: (unused)
            CounterInstr::Halt,
            // 3: halt
            CounterInstr::Halt,
        ],
    }
}

/// `r0 := 2 · r0` via a temporary: move r0 into r1 doubled, then back.
pub fn doubling_machine() -> CounterMachine {
    CounterMachine {
        registers: 2,
        program: vec![
            // 0: if r0 == 0 goto 4 else r0 -= 1
            CounterInstr::DecJz {
                reg: 0,
                next: 1,
                on_zero: 4,
            },
            // 1,2: r1 += 2
            CounterInstr::Inc { reg: 1, next: 2 },
            CounterInstr::Inc { reg: 1, next: 0 },
            // 3: unused
            CounterInstr::Halt,
            // 4: if r1 == 0 halt else move back
            CounterInstr::DecJz {
                reg: 1,
                next: 5,
                on_zero: 6,
            },
            // 5: r0 += 1
            CounterInstr::Inc { reg: 0, next: 4 },
            // 6: halt
            CounterInstr::Halt,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_direct() {
        let run = addition_machine().run(&[3, 4], 100).unwrap();
        assert_eq!(run.registers, vec![7, 0]);
    }

    #[test]
    fn doubling_direct() {
        let run = doubling_machine().run(&[5], 100).unwrap();
        assert_eq!(run.registers[0], 10);
    }

    #[test]
    fn addition_via_bags_agrees() {
        for (a, b) in [(0u64, 0u64), (3, 4), (5, 0), (0, 6)] {
            let machine = addition_machine();
            let direct = machine.run(&[a, b], 200).unwrap();
            let compiled = compile_counter(&machine, &[a, b]);
            let via_bags = compiled.run(Limits::default()).unwrap();
            assert_eq!(via_bags.registers, direct.registers, "at ({a},{b})");
            assert_eq!(via_bags.steps, direct.steps);
        }
    }

    #[test]
    fn doubling_via_bags_agrees() {
        let machine = doubling_machine();
        let direct = machine.run(&[4], 200).unwrap();
        let compiled = compile_counter(&machine, &[4]);
        let via_bags = compiled.run(Limits::default()).unwrap();
        assert_eq!(via_bags.registers, direct.registers);
        assert_eq!(via_bags.registers[0], 8);
    }

    #[test]
    fn zero_test_is_bag_emptiness() {
        // A machine that branches immediately on r0 == 0.
        let machine = CounterMachine {
            registers: 1,
            program: vec![
                CounterInstr::DecJz {
                    reg: 0,
                    next: 1,
                    on_zero: 2,
                },
                CounterInstr::Inc { reg: 0, next: 2 },
                CounterInstr::Halt,
            ],
        };
        // r0 = 0: dec branches to halt → stays 0, one step.
        let compiled = compile_counter(&machine, &[0]);
        let run = compiled.run(Limits::default()).unwrap();
        assert_eq!(run.registers, vec![0]);
        assert_eq!(run.steps, 1);
        // r0 = 1: dec to 0 then inc → 1, two steps.
        let compiled = compile_counter(&machine, &[1]);
        let run = compiled.run(Limits::default()).unwrap();
        assert_eq!(run.registers, vec![1]);
        assert_eq!(run.steps, 2);
    }

    #[test]
    fn budget_errors_reported() {
        // An infinite loop: inc forever.
        let machine = CounterMachine {
            registers: 1,
            program: vec![CounterInstr::Inc { reg: 0, next: 0 }],
        };
        assert!(matches!(
            machine.run(&[0], 50),
            Err(CounterError::StepBudget(50))
        ));
        let compiled = compile_counter(&machine, &[0]);
        let limits = Limits {
            max_ifp_iterations: 16,
            ..Limits::default()
        };
        assert!(matches!(
            compiled.run(limits),
            Err(CounterBagError::Eval(EvalError::IfpLimit(_)))
        ));
    }

    #[test]
    fn compiled_program_is_flat_plus_ifp() {
        use balg_core::analyze::analyze;
        use balg_core::schema::Schema;
        use balg_core::types::Type;
        let compiled = compile_counter(&addition_machine(), &[1, 1]);
        let row_ty = Type::Tuple(vec![
            Type::bag(Type::Atom),
            Type::Atom,
            Type::bag(Type::atom_tuple(1)),
            Type::bag(Type::atom_tuple(1)),
        ]);
        let schema = Schema::new().with("C0", Type::bag(row_ty));
        let analysis = analyze(&compiled.program, &schema).unwrap();
        assert!(analysis.uses_ifp);
        assert!(!analysis.uses_powerset);
        assert_eq!(analysis.max_bag_nesting, 2);
    }
}
