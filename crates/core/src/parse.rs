//! A text syntax for BALG expressions.
//!
//! `Display` renders expressions with the paper's symbols; this module
//! accepts an ASCII functional syntax so queries can be written in
//! config files, tests, and the `balg-cli` REPL:
//!
//! ```text
//! expr  := IDENT                                  -- variable
//!        | int(N)                                 -- integer bag ⟦[a]^N⟧
//!        | empty()                                -- ⟦⟧
//!        | bag{ row, row*3, ... }                 -- bag literal
//!        | unionp(e, e) | minus(e, e)             -- ∪⁺, −
//!        | union(e, e)  | intersect(e, e)         -- ∪, ∩
//!        | product(e, e)                          -- ×
//!        | powerset(e)  | powerbag(e)             -- P, P_b
//!        | singleton(e) | tuple(e, ...)           -- β, τ
//!        | attr(e, i)   | project(e, i, j, ...)   -- αᵢ, π
//!        | destroy(e)   | dedup(e)                -- δ, ε
//!        | map(x, body, input)                    -- MAP_{λx.body}
//!        | select(x, pred, input)                 -- σ_{λx.pred}
//!        | nest(e, i, ...) | ifp(x, body, input)  -- extensions
//!        | count(e) | sum(e) | avg(e)             -- §3 aggregates
//! row   := [ atom, ... ]   atom := IDENT | NUM | 'text'
//! pred  := true | eq(e,e) | lt(e,e) | le(e,e)
//!        | member(e,e) | subbag(e,e)
//!        | not(p) | and(p,p) | or(p,p)
//! ```

use std::fmt;

use crate::bag::Bag;
use crate::derived;
use crate::expr::{Expr, Pred, MAX_EXPR_DEPTH};
use crate::natural::Natural;
use crate::value::Value;

/// A parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprParseError {
    /// Byte offset.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ExprParseError {}

/// Parse a BALG expression from the ASCII syntax.
pub fn parse_expr(input: &str) -> Result<Expr, ExprParseError> {
    let mut parser = P {
        bytes: input.as_bytes(),
        input,
        pos: 0,
        depth: 0,
    };
    let expr = parser.expr()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing input"));
    }
    Ok(expr)
}

struct P<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    /// Open `expr`/`pred` calls — the nesting of the tree being built.
    depth: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: &str) -> ExprParseError {
        ExprParseError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ExprParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ExprParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected identifier"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn number(&mut self) -> Result<u64, ExprParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected number"));
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err("number out of range"))
    }

    /// Run one level of the recursive descent, refusing to go deeper than
    /// [`MAX_EXPR_DEPTH`]: everything downstream (`analyze`, `rewrite`,
    /// `eval`, `Drop`) recurses over the tree this parser builds.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ExprParseError>,
    ) -> Result<T, ExprParseError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.err(&format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn expr(&mut self) -> Result<Expr, ExprParseError> {
        self.nested(Self::expr_level)
    }

    fn pred(&mut self) -> Result<Pred, ExprParseError> {
        self.nested(Self::pred_level)
    }

    fn expr_level(&mut self) -> Result<Expr, ExprParseError> {
        self.skip_ws();
        if self.peek() == Some(b'[') {
            return Err(self.err("tuples appear only inside bag{...} rows"));
        }
        let name = self.ident()?;
        // Function call or plain variable?
        if self.peek() == Some(b'(') {
            self.call(name)
        } else if name == "bag" && self.peek() == Some(b'{') {
            self.bag_literal()
        } else {
            Ok(Expr::var(name))
        }
    }

    fn call(&mut self, name: &str) -> Result<Expr, ExprParseError> {
        self.expect(b'(')?;
        let out = match name {
            "int" => {
                let n = self.number()?;
                Expr::Lit(derived::int_value(n))
            }
            "empty" => Expr::empty_bag(),
            "unionp" => {
                let (a, b) = self.two()?;
                a.additive_union(b)
            }
            "minus" => {
                let (a, b) = self.two()?;
                a.subtract(b)
            }
            "union" => {
                let (a, b) = self.two()?;
                a.max_union(b)
            }
            "intersect" => {
                let (a, b) = self.two()?;
                a.intersect(b)
            }
            "product" => {
                let (a, b) = self.two()?;
                a.product(b)
            }
            "powerset" => self.expr()?.powerset(),
            "powerbag" => self.expr()?.powerbag(),
            "singleton" => self.expr()?.singleton(),
            "destroy" => self.expr()?.destroy(),
            "dedup" => self.expr()?.dedup(),
            "count" => derived::count(self.expr()?),
            "sum" => derived::sum(self.expr()?),
            "avg" => derived::average(self.expr()?),
            "tuple" => {
                let mut fields = vec![self.expr()?];
                while self.eat(b',') {
                    fields.push(self.expr()?);
                }
                Expr::Tuple(fields)
            }
            "attr" => {
                let e = self.expr()?;
                self.expect(b',')?;
                let i = self.number()? as usize;
                e.attr(i)
            }
            "project" => {
                let e = self.expr()?;
                let mut indices = Vec::new();
                while self.eat(b',') {
                    indices.push(self.number()? as usize);
                }
                if indices.is_empty() {
                    return Err(self.err("project needs at least one attribute"));
                }
                e.project(&indices)
            }
            "nest" => {
                let e = self.expr()?;
                let mut indices = Vec::new();
                while self.eat(b',') {
                    indices.push(self.number()? as usize);
                }
                if indices.is_empty() {
                    return Err(self.err("nest needs at least one attribute"));
                }
                e.nest(&indices)
            }
            "map" => {
                let var = self.ident()?.to_owned();
                self.expect(b',')?;
                let body = self.expr()?;
                self.expect(b',')?;
                let input = self.expr()?;
                input.map(&var, body)
            }
            "select" => {
                let var = self.ident()?.to_owned();
                self.expect(b',')?;
                let pred = self.pred()?;
                self.expect(b',')?;
                let input = self.expr()?;
                input.select(&var, pred)
            }
            "ifp" => {
                let var = self.ident()?.to_owned();
                self.expect(b',')?;
                let body = self.expr()?;
                self.expect(b',')?;
                let input = self.expr()?;
                input.ifp(&var, body)
            }
            "sym" => {
                let name = self.ident()?;
                Expr::lit(Value::sym(name))
            }
            other => return Err(self.err(&format!("unknown operator {other}"))),
        };
        self.expect(b')')?;
        Ok(out)
    }

    fn two(&mut self) -> Result<(Expr, Expr), ExprParseError> {
        let a = self.expr()?;
        self.expect(b',')?;
        let b = self.expr()?;
        Ok((a, b))
    }

    fn pred_level(&mut self) -> Result<Pred, ExprParseError> {
        let name = self.ident()?;
        if name == "true" {
            return Ok(Pred::True);
        }
        self.expect(b'(')?;
        let out = match name {
            "eq" => {
                let (a, b) = self.two()?;
                Pred::Eq(a, b)
            }
            "lt" => {
                let (a, b) = self.two()?;
                Pred::Lt(a, b)
            }
            "le" => {
                let (a, b) = self.two()?;
                Pred::Le(a, b)
            }
            "member" => {
                let (a, b) = self.two()?;
                Pred::Member(a, b)
            }
            "subbag" => {
                let (a, b) = self.two()?;
                Pred::SubBag(a, b)
            }
            "not" => Pred::Not(Box::new(self.pred()?)),
            "and" => {
                let a = self.pred()?;
                self.expect(b',')?;
                let b = self.pred()?;
                a.and(b)
            }
            "or" => {
                let a = self.pred()?;
                self.expect(b',')?;
                let b = self.pred()?;
                a.or(b)
            }
            other => return Err(self.err(&format!("unknown predicate {other}"))),
        };
        self.expect(b')')?;
        Ok(out)
    }

    /// `bag{ [a,1], [b,2]*3 }` — rows with optional multiplicities.
    fn bag_literal(&mut self) -> Result<Expr, ExprParseError> {
        self.expect(b'{')?;
        let mut bag = Bag::new();
        loop {
            if self.eat(b'}') {
                break;
            }
            let row = self.row()?;
            let mult = if self.eat(b'*') {
                Natural::from(self.number()?)
            } else {
                Natural::one()
            };
            bag.insert_with_multiplicity(row, mult);
            if !self.eat(b',') {
                self.expect(b'}')?;
                break;
            }
        }
        Ok(Expr::Lit(Value::Bag(bag)))
    }

    fn row(&mut self) -> Result<Value, ExprParseError> {
        self.expect(b'[')?;
        let mut fields = Vec::new();
        loop {
            if self.eat(b']') {
                break;
            }
            fields.push(self.atom()?);
            if !self.eat(b',') {
                self.expect(b']')?;
                break;
            }
        }
        Ok(Value::Tuple(fields.into()))
    }

    fn atom(&mut self) -> Result<Value, ExprParseError> {
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                    self.pos += 1;
                }
                if self.pos >= self.bytes.len() {
                    return Err(self.err("unterminated string"));
                }
                let text = &self.input[start..self.pos];
                self.pos += 1;
                Ok(Value::sym(text))
            }
            Some(c) if c.is_ascii_digit() => Ok(Value::int(self.number()? as i64)),
            _ => Ok(Value::sym(self.ident()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_bag;
    use crate::schema::Database;

    fn db() -> Database {
        let g = Bag::from_values([
            Value::tuple([Value::sym("a"), Value::sym("b")]),
            Value::tuple([Value::sym("b"), Value::sym("c")]),
        ]);
        Database::new().with("G", g)
    }

    #[test]
    fn variables_and_operators() {
        let e = parse_expr("unionp(G, G)").unwrap();
        let out = eval_bag(&e, &db()).unwrap();
        assert_eq!(out.cardinality(), Natural::from(4u64));
    }

    #[test]
    fn nested_functional_calls() {
        let e = parse_expr("project(select(x, eq(attr(x,2), attr(x,3)), product(G, G)), 1, 4)")
            .unwrap();
        let out = eval_bag(&e, &db()).unwrap();
        assert!(out.contains(&Value::tuple([Value::sym("a"), Value::sym("c")])));
    }

    #[test]
    fn bag_literals_with_multiplicities() {
        let e = parse_expr("bag{ [a, 1], [b, 2]*3 }").unwrap();
        let out = eval_bag(&e, &Database::new()).unwrap();
        assert_eq!(out.cardinality(), Natural::from(4u64));
        assert_eq!(
            out.multiplicity(&Value::tuple([Value::sym("b"), Value::int(2)])),
            Natural::from(3u64)
        );
    }

    #[test]
    fn aggregates_and_int() {
        let e = parse_expr("count(G)").unwrap();
        let out = eval_bag(&e, &db()).unwrap();
        assert_eq!(
            crate::derived::decode_int(&Value::Bag(out)),
            Some(Natural::from(2u64))
        );
        let e = parse_expr("sum(singleton(int(5)))").unwrap();
        let out = eval_bag(&e, &Database::new()).unwrap();
        assert_eq!(
            crate::derived::decode_int(&Value::Bag(out)),
            Some(Natural::from(5u64))
        );
    }

    #[test]
    fn powerset_map_ifp() {
        assert!(parse_expr("powerset(G)").is_ok());
        assert!(parse_expr("map(x, singleton(x), G)").is_ok());
        assert!(parse_expr("ifp(T, T, G)").is_ok());
        assert!(parse_expr("nest(G, 1)").is_ok());
        assert!(parse_expr("select(x, true, G)").is_ok());
        assert!(parse_expr("select(x, and(eq(x, x), not(lt(x, x))), G)").is_ok());
    }

    #[test]
    fn string_atoms() {
        let e = parse_expr("bag{ ['hello world', 3] }").unwrap();
        let out = eval_bag(&e, &Database::new()).unwrap();
        assert!(out.contains(&Value::tuple([Value::sym("hello world"), Value::int(3)])));
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("unionp(G)").is_err()); // missing second arg
        assert!(parse_expr("frobnicate(G)").is_err());
        assert!(parse_expr("G extra").is_err());
        assert!(parse_expr("bag{ [a").is_err());
        assert!(parse_expr("select(x, zap(x), G)").is_err());
    }

    /// `depth` nested calls of `op` around `G` (the leaf is one more level).
    fn chain(op: &str, depth: usize) -> String {
        format!("{}G{}", format!("{op}(").repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        assert!(parse_expr(&chain("dedup", MAX_EXPR_DEPTH - 1)).is_ok());
        // The 140 KB line that used to overflow the stack.
        let err = parse_expr(&chain("dedup", 20_000)).unwrap_err();
        assert_eq!(err.position, "dedup(".len() * MAX_EXPR_DEPTH);
        assert!(err.message.contains("nested deeper than"), "{err}");
        // Predicates nest on the same budget.
        let nots = format!(
            "select(x, {}true{}, G)",
            "not(".repeat(MAX_EXPR_DEPTH),
            ")".repeat(MAX_EXPR_DEPTH)
        );
        assert!(parse_expr(&nots).is_err());
    }

    /// The cap's reason: everything downstream recurses over the parsed
    /// tree, so a cap-deep chain of every kind must fit a 2 MiB thread
    /// (a server session's) in this — typically debug — build.
    #[test]
    fn cap_deep_chains_fit_a_session_thread() {
        use crate::analyze::analyze;
        use crate::eval::{Evaluator, Limits};
        use crate::schema::Schema;
        use crate::types::Type;
        let d = MAX_EXPR_DEPTH - 1;
        let texts = [
            chain("dedup", d),
            chain("singleton", d),
            chain("count", d),
            format!("{}G{}", "unionp(G, ".repeat(d), ")".repeat(d)),
            format!("{}G{}", "map(x, ".repeat(d), ", G)".repeat(d)),
            format!("{}G{}", "ifp(T, T, ".repeat(d), ")".repeat(d)),
            format!("{}G{}", "project(".repeat(d), ", 1, 2)".repeat(d)),
            format!(
                "{}G{}",
                "select(x, eq(x, ".repeat(d / 2),
                "), G)".repeat(d / 2)
            ),
            format!(
                "select(x, {}true{}, G)",
                "not(".repeat(d - 1),
                ")".repeat(d - 1)
            ),
        ];
        let session = std::thread::Builder::new().stack_size(2 << 20);
        let work = move || {
            let schema = Schema::new().with("G", Type::relation(2));
            let db = db();
            for text in texts {
                let expr = parse_expr(&text).expect("within the cap");
                let _ = analyze(&expr, &schema);
                let value = Evaluator::new(&db, Limits::default()).eval(&expr);
                let _ = format!("{expr} {value:?}");
            }
        };
        session.spawn(work).unwrap().join().unwrap();
    }

    #[test]
    fn parsed_expressions_typecheck() {
        use crate::analyze::analyze;
        use crate::schema::Schema;
        use crate::types::Type;
        let schema = Schema::new().with("G", Type::relation(2));
        let e = parse_expr("destroy(powerset(G))").unwrap();
        let analysis = analyze(&e, &schema).unwrap();
        assert_eq!(analysis.balg_level(), 2);
    }
}
