//! Recursive-descent parser for the SQL-bag subset.

use std::fmt;

use crate::ast::{
    Aggregate, ColumnRef, CompareOp, Comparison, Operand, Projection, Query, SelectCore, TableRef,
};
use crate::lexer::{tokenize_with_positions, Keyword, LexError, Token};
use balg_core::expr::MAX_EXPR_DEPTH;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the statement text.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: e.position,
            message: e.message,
        }
    }
}

/// Parse a query string.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let (tokens, positions) = tokenize_with_positions(input)?;
    parse_query_from(tokens, positions, 0)
}

/// Parse a query from an already-lexed token stream starting at `start`
/// (the statement parser uses this after consuming a statement prefix
/// such as `CREATE VIEW name AS`). `positions` is the byte-offset table
/// from [`tokenize_with_positions`]. The query must consume every
/// remaining token.
pub(crate) fn parse_query_from(
    tokens: Vec<Token>,
    positions: Vec<usize>,
    start: usize,
) -> Result<Query, ParseError> {
    let mut parser = Parser {
        tokens,
        positions,
        pos: start,
    };
    let query = parser.query(0)?;
    parser.expect_end()?;
    Ok(query)
}

impl Parser {
    /// Require that every token has been consumed.
    pub(crate) fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos != self.tokens.len() {
            return Err(self.error("trailing tokens"));
        }
        Ok(())
    }
}

/// The token cursor, shared with the statement parser in
/// [`crate::stmt`] (which consumes statement prefixes before handing the
/// tail to [`Parser::query`] via [`parse_query_from`]).
pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    /// Byte offset of each token, plus one end-of-input sentinel (see
    /// [`tokenize_with_positions`]).
    pub(crate) positions: Vec<usize>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self
                .positions
                .get(self.pos)
                .or_else(|| self.positions.last())
                .copied()
                .unwrap_or(0),
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).cloned();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    pub(crate) fn eat(&mut self, expected: &Token) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {expected:?}, found {:?}", self.peek())))
        }
    }

    pub(crate) fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(&Token::Keyword(kw))
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(name),
            other => Err(self.error(&format!("expected identifier, found {other:?}"))),
        }
    }

    /// One level further down the tree being built, `depth` levels below
    /// the statement. The compiler, the evaluator and `Drop` recurse over
    /// the plan, and parentheses, a chain of set operations, a `FROM` list
    /// and a `WHERE` conjunction each make it one level deeper per item,
    /// so all four draw on the one [`MAX_EXPR_DEPTH`].
    fn deeper(&self, depth: usize) -> Result<usize, ParseError> {
        if depth == MAX_EXPR_DEPTH {
            return Err(self.error(&format!("query nested deeper than {MAX_EXPR_DEPTH} levels")));
        }
        Ok(depth + 1)
    }

    // query := select_core (set_op query_core)*
    fn query(&mut self, depth: usize) -> Result<Query, ParseError> {
        let mut depth = self.deeper(depth)?;
        let mut left = self.query_atom(depth)?;
        loop {
            let make: fn(Box<Query>, Box<Query>) -> Query = if self.eat_keyword(Keyword::Union) {
                if self.eat_keyword(Keyword::All) {
                    Query::UnionAll
                } else {
                    Query::Union
                }
            } else if self.eat_keyword(Keyword::Except) {
                if self.eat_keyword(Keyword::All) {
                    Query::ExceptAll
                } else {
                    Query::Except
                }
            } else if self.eat_keyword(Keyword::Intersect) {
                if self.eat_keyword(Keyword::All) {
                    Query::IntersectAll
                } else {
                    Query::Intersect
                }
            } else {
                break;
            };
            depth = self.deeper(depth)?; // the chain is left-deep
            let right = self.query_atom(depth)?;
            left = make(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn query_atom(&mut self, depth: usize) -> Result<Query, ParseError> {
        if self.eat(&Token::LParen) {
            let inner = self.query(depth)?;
            self.expect(&Token::RParen)?;
            Ok(inner)
        } else {
            Ok(Query::Select(self.select_core(depth)?))
        }
    }

    fn select_core(&mut self, mut depth: usize) -> Result<SelectCore, ParseError> {
        if !self.eat_keyword(Keyword::Select) {
            return Err(self.error("expected SELECT"));
        }
        let distinct = self.eat_keyword(Keyword::Distinct);
        let projection = self.projection()?;
        if !self.eat_keyword(Keyword::From) {
            return Err(self.error("expected FROM"));
        }
        let mut from = vec![self.table_ref()?];
        while self.eat(&Token::Comma) {
            depth = self.deeper(depth)?; // one more `×`
            from.push(self.table_ref()?);
        }
        let mut predicates = Vec::new();
        if self.eat_keyword(Keyword::Where) {
            predicates.push(self.comparison()?);
            while self.eat_keyword(Keyword::And) {
                depth = self.deeper(depth)?; // one more `σ` or `∧`
                predicates.push(self.comparison()?);
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            if !self.eat_keyword(Keyword::By) {
                return Err(self.error("expected BY after GROUP"));
            }
            group_by.push(self.column_ref()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.column_ref()?);
            }
        }
        Ok(SelectCore {
            distinct,
            projection,
            from,
            predicates,
            group_by,
        })
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if self.eat(&Token::Star) {
            return Ok(Projection::Star);
        }
        if let Some(agg) = self.try_aggregate()? {
            return Ok(Projection::Aggregate(agg));
        }
        let mut columns = vec![self.column_ref()?];
        while self.eat(&Token::Comma) {
            // A trailing aggregate turns the projection into a grouped
            // aggregate (validated against GROUP BY at compile time).
            if let Some(agg) = self.try_aggregate()? {
                return Ok(Projection::GroupedAggregate(columns, agg));
            }
            columns.push(self.column_ref()?);
        }
        Ok(Projection::Columns(columns))
    }

    /// Parse an aggregate call if one is next.
    fn try_aggregate(&mut self) -> Result<Option<Aggregate>, ParseError> {
        if self.eat_keyword(Keyword::Count) {
            self.expect(&Token::LParen)?;
            let agg = if self.eat(&Token::Star) {
                Aggregate::CountStar
            } else {
                if !self.eat_keyword(Keyword::Distinct) {
                    return Err(self.error("COUNT supports COUNT(*) and COUNT(DISTINCT col)"));
                }
                Aggregate::CountDistinct(self.column_ref()?)
            };
            self.expect(&Token::RParen)?;
            return Ok(Some(agg));
        }
        if self.eat_keyword(Keyword::Sum) {
            self.expect(&Token::LParen)?;
            let col = self.column_ref()?;
            self.expect(&Token::RParen)?;
            return Ok(Some(Aggregate::Sum(col)));
        }
        if self.eat_keyword(Keyword::Avg) {
            self.expect(&Token::LParen)?;
            let col = self.column_ref()?;
            self.expect(&Token::RParen)?;
            return Ok(Some(Aggregate::Avg(col)));
        }
        Ok(None)
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?;
        let alias = if self.eat_keyword(Keyword::As) {
            self.ident()?
        } else if let Some(Token::Ident(_)) = self.peek() {
            self.ident()?
        } else {
            table.clone()
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident()?;
        if self.eat(&Token::Dot) {
            let column = self.ident()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    fn comparison(&mut self) -> Result<Comparison, ParseError> {
        let left = self.operand()?;
        let op = match self.bump() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Neq) => CompareOp::Neq,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            other => return Err(self.error(&format!("expected comparison, found {other:?}"))),
        };
        let right = self.operand()?;
        Ok(Comparison { left, op, right })
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek() {
            Some(Token::Int(value)) => {
                let v = *value;
                self.pos += 1;
                Ok(Operand::Int(v))
            }
            Some(Token::Str(text)) => {
                let s = text.clone();
                self.pos += 1;
                Ok(Operand::Str(s))
            }
            _ => Ok(Operand::Column(self.column_ref()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, t.b FROM t WHERE a = 3 AND t.b <> 'x'").unwrap();
        let Query::Select(core) = q else {
            panic!("expected select")
        };
        assert!(!core.distinct);
        assert_eq!(core.from.len(), 1);
        assert_eq!(core.predicates.len(), 2);
        match &core.projection {
            Projection::Columns(cols) => {
                assert_eq!(cols[0], ColumnRef::bare("a"));
                assert_eq!(cols[1], ColumnRef::qualified("t", "b"));
            }
            other => panic!("unexpected projection {other:?}"),
        }
    }

    #[test]
    fn joins_and_aliases() {
        let q = parse("SELECT x.a FROM t AS x, t y WHERE x.a = y.a").unwrap();
        let Query::Select(core) = q else {
            panic!("expected select")
        };
        assert_eq!(core.from[0].alias, "x");
        assert_eq!(core.from[1].alias, "y");
    }

    #[test]
    fn distinct_and_star() {
        let q = parse("SELECT DISTINCT * FROM t").unwrap();
        let Query::Select(core) = q else {
            panic!("expected select")
        };
        assert!(core.distinct);
        assert_eq!(core.projection, Projection::Star);
    }

    #[test]
    fn set_operations_and_parens() {
        let q = parse("(SELECT * FROM r UNION ALL SELECT * FROM s) EXCEPT ALL SELECT * FROM t")
            .unwrap();
        match q {
            Query::ExceptAll(left, _) => {
                assert!(matches!(*left, Query::UnionAll(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        assert!(matches!(
            parse("SELECT COUNT(*) FROM t").unwrap(),
            Query::Select(SelectCore {
                projection: Projection::Aggregate(Aggregate::CountStar),
                ..
            })
        ));
        assert!(matches!(
            parse("SELECT COUNT(DISTINCT a) FROM t").unwrap(),
            Query::Select(SelectCore {
                projection: Projection::Aggregate(Aggregate::CountDistinct(_)),
                ..
            })
        ));
        assert!(matches!(
            parse("SELECT SUM(qty) FROM t").unwrap(),
            Query::Select(SelectCore {
                projection: Projection::Aggregate(Aggregate::Sum(_)),
                ..
            })
        ));
        assert!(matches!(
            parse("SELECT AVG(qty) FROM t").unwrap(),
            Query::Select(SelectCore {
                projection: Projection::Aggregate(Aggregate::Avg(_)),
                ..
            })
        ));
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t )").is_err()); // trailing token
        assert!(parse("SELECT COUNT(a) FROM t").is_err()); // plain COUNT(col) unsupported
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // The stray ) sits at byte 16 of the statement.
        let err = parse("SELECT * FROM t )").unwrap_err();
        assert_eq!(err.at, 16);
        // An error at end-of-input points one past the last byte.
        let err = parse("SELECT * FROM").unwrap_err();
        assert_eq!(err.at, 13);
        assert!(err.to_string().starts_with("parse error at byte 13"));
        // Lex errors keep the lexer's byte position.
        let err = parse("SELECT ; FROM t").unwrap_err();
        assert_eq!(err.at, 7);
    }
}
