//! Recursive-descent parser for the query grammar.
//!
//! ```text
//! query    := SELECT agg FROM ident clause* [';']
//! agg      := AVG '(' ident ')' | SUM '(' ident ')' | COUNT '(' '*' ')'
//! clause   := WHERE pred (AND pred)*
//!           | GROUP BY ident
//!           | (WITH | WHERE)? PRECISION number
//!           | CONFIDENCE number
//!           | METHOD ident
//!           | SAMPLES number
//!           | WITHIN number MS
//! pred     := ident ('>' | '<' | '>=' | '<=' | '=' | '!=' | '<>') number
//! ```
//!
//! `WHERE` introduces predicates; `WHERE PRECISION 0.1` (the paper's
//! phrasing, where `WHERE` aliased `WITH`) still parses because
//! `PRECISION` is a reserved keyword and can never be a column name.

use crate::ast::{AggFunc, Method, Predicate, Query};
use crate::error::QueryError;
use crate::lexer::{tokenize, Token};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect_token(&mut self, want: &Token, expected: &str) -> Result<(), QueryError> {
        let got = self.advance();
        if &got == want {
            Ok(())
        } else {
            Err(QueryError::Parse {
                expected: expected.to_string(),
                found: got.describe(),
            })
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, QueryError> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(QueryError::Parse {
                expected: what.to_string(),
                found: other.describe(),
            }),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, QueryError> {
        match self.advance() {
            Token::Number(n) => Ok(n),
            other => Err(QueryError::Parse {
                expected: what.to_string(),
                found: other.describe(),
            }),
        }
    }

    fn positive_integer(&mut self, what: &str) -> Result<u64, QueryError> {
        let n = self.number(what)?;
        if n.fract() != 0.0 || n <= 0.0 || n > u64::MAX as f64 {
            return Err(QueryError::Parse {
                expected: format!("{what} (a positive integer)"),
                found: format!("number {n}"),
            });
        }
        Ok(n as u64)
    }

    fn comparison_op(&mut self) -> Result<crate::ast::CmpOp, QueryError> {
        use crate::ast::CmpOp;
        match self.advance() {
            Token::Gt => Ok(CmpOp::Gt),
            Token::Lt => Ok(CmpOp::Lt),
            Token::Ge => Ok(CmpOp::Ge),
            Token::Le => Ok(CmpOp::Le),
            Token::Eq => Ok(CmpOp::Eq),
            Token::Ne => Ok(CmpOp::Ne),
            other => Err(QueryError::Parse {
                expected: "a comparison operator (>, <, >=, <=, =, !=)".to_string(),
                found: other.describe(),
            }),
        }
    }

    fn predicate(&mut self) -> Result<Predicate, QueryError> {
        let column = self.ident("a filtered column name")?;
        let op = self.comparison_op()?;
        let value = self.number("a literal to compare against")?;
        Ok(Predicate { column, op, value })
    }
}

/// Parses one query.
///
/// # Errors
///
/// [`QueryError::Lex`] / [`QueryError::Parse`] describing the first
/// problem encountered.
pub fn parse(input: &str) -> Result<Query, QueryError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    p.expect_token(&Token::Select, "SELECT")?;

    let (agg, column) = match p.advance() {
        Token::Avg => {
            p.expect_token(&Token::LParen, "(")?;
            let column = p.ident("a column name")?;
            p.expect_token(&Token::RParen, ")")?;
            (AggFunc::Avg, column)
        }
        Token::Sum => {
            p.expect_token(&Token::LParen, "(")?;
            let column = p.ident("a column name")?;
            p.expect_token(&Token::RParen, ")")?;
            (AggFunc::Sum, column)
        }
        Token::Max => {
            p.expect_token(&Token::LParen, "(")?;
            let column = p.ident("a column name")?;
            p.expect_token(&Token::RParen, ")")?;
            (AggFunc::Max, column)
        }
        Token::Min => {
            p.expect_token(&Token::LParen, "(")?;
            let column = p.ident("a column name")?;
            p.expect_token(&Token::RParen, ")")?;
            (AggFunc::Min, column)
        }
        Token::Count => {
            p.expect_token(&Token::LParen, "(")?;
            p.expect_token(&Token::Star, "*")?;
            p.expect_token(&Token::RParen, ")")?;
            (AggFunc::Count, String::new())
        }
        other => {
            return Err(QueryError::Parse {
                expected: "an aggregate function (AVG, SUM, COUNT, MAX, MIN)".to_string(),
                found: other.describe(),
            });
        }
    };

    p.expect_token(&Token::From, "FROM")?;
    let table = p.ident("a table name")?;

    let mut query = Query {
        agg,
        column,
        table,
        predicates: Vec::new(),
        group_by: None,
        precision: None,
        confidence: None,
        method: Method::default(),
        method_named: false,
        samples: None,
        within_ms: None,
    };

    loop {
        match p.peek().clone() {
            Token::With => {
                // Optional introducer before PRECISION.
                p.advance();
            }
            Token::Where => {
                p.advance();
                // `WHERE PRECISION 0.1` keeps the paper's phrasing:
                // PRECISION is reserved, so this is unambiguous and the
                // clause is handled by the next loop turn.
                if *p.peek() == Token::Precision {
                    continue;
                }
                query.predicates.push(p.predicate()?);
                while *p.peek() == Token::And {
                    p.advance();
                    query.predicates.push(p.predicate()?);
                }
            }
            Token::Group => {
                p.advance();
                p.expect_token(&Token::By, "BY")?;
                let column = p.ident("a grouping column name")?;
                if let Some(previous) = &query.group_by {
                    return Err(QueryError::Parse {
                        expected: format!("a single GROUP BY (already grouping by {previous:?})"),
                        found: format!("identifier {column:?}"),
                    });
                }
                query.group_by = Some(column);
            }
            Token::Precision => {
                p.advance();
                let e = p.number("a precision value")?;
                if e <= 0.0 {
                    return Err(QueryError::Parse {
                        expected: "a positive precision".to_string(),
                        found: format!("number {e}"),
                    });
                }
                query.precision = Some(e);
            }
            Token::Confidence => {
                p.advance();
                let beta = p.number("a confidence level")?;
                if !(0.0 < beta && beta < 1.0) {
                    return Err(QueryError::Parse {
                        expected: "a confidence in (0, 1)".to_string(),
                        found: format!("number {beta}"),
                    });
                }
                query.confidence = Some(beta);
            }
            Token::Method => {
                p.advance();
                let name = p.ident("a method name")?;
                query.method = Method::from_name(&name).ok_or_else(|| QueryError::Parse {
                    expected: "one of ISLA, US, STS, MV, MVB, SLEV, EXACT".to_string(),
                    found: format!("identifier {name:?}"),
                })?;
                query.method_named = true;
            }
            Token::Samples => {
                p.advance();
                query.samples = Some(p.positive_integer("a sample count")?);
            }
            Token::Within => {
                p.advance();
                let ms = p.positive_integer("a time budget")?;
                p.expect_token(&Token::Ms, "MS")?;
                query.within_ms = Some(ms);
            }
            Token::Semicolon => {
                p.advance();
                break;
            }
            Token::Eof => break,
            other => {
                return Err(QueryError::Parse {
                    expected: "a clause (WHERE, GROUP BY, PRECISION, CONFIDENCE, METHOD, \
                               SAMPLES, WITHIN) or end of query"
                        .to_string(),
                    found: other.describe(),
                });
            }
        }
    }

    match p.peek() {
        Token::Eof => Ok(query),
        other => Err(QueryError::Parse {
            expected: "end of query".to_string(),
            found: other.describe(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_form() {
        let q = parse("SELECT AVG(salary) FROM census WHERE PRECISION 0.1").unwrap();
        assert_eq!(q.agg, AggFunc::Avg);
        assert_eq!(q.column, "salary");
        assert_eq!(q.table, "census");
        assert_eq!(q.precision, Some(0.1));
        assert_eq!(q.method, Method::Isla);
        assert_eq!(q.confidence, None);
    }

    #[test]
    fn records_whether_the_method_was_named() {
        let default = parse("SELECT AVG(x) FROM t WITH PRECISION 0.1").unwrap();
        let named = parse("SELECT AVG(x) FROM t WITH PRECISION 0.1 METHOD ISLA").unwrap();
        assert_eq!((default.method, named.method), (Method::Isla, Method::Isla));
        assert!(!default.method_named);
        assert!(named.method_named);
    }

    #[test]
    fn parses_every_clause() {
        let q = parse(
            "select sum(amount) from sales with precision 0.5 confidence 0.99 \
             method STS samples 20000 within 750 ms;",
        )
        .unwrap();
        assert_eq!(q.agg, AggFunc::Sum);
        assert_eq!(q.column, "amount");
        assert_eq!(q.table, "sales");
        assert_eq!(q.precision, Some(0.5));
        assert_eq!(q.confidence, Some(0.99));
        assert_eq!(q.method, Method::Sts);
        assert_eq!(q.samples, Some(20_000));
        assert_eq!(q.within_ms, Some(750));
    }

    #[test]
    fn parses_max_and_min() {
        let q = parse("SELECT MAX(price) FROM items WITH PRECISION 1").unwrap();
        assert_eq!(q.agg, AggFunc::Max);
        assert_eq!(q.column, "price");
        let q = parse("select min(price) from items").unwrap();
        assert_eq!(q.agg, AggFunc::Min);
    }

    #[test]
    fn parses_count_star() {
        let q = parse("SELECT COUNT(*) FROM trips").unwrap();
        assert_eq!(q.agg, AggFunc::Count);
        assert!(q.column.is_empty());
    }

    #[test]
    fn rejects_malformed_queries() {
        let bad = [
            "AVG(x) FROM t",                       // missing SELECT
            "SELECT MEDIAN(x) FROM t",             // unsupported aggregate
            "SELECT AVG x FROM t",                 // missing parens
            "SELECT AVG(x) t",                     // missing FROM
            "SELECT AVG(x) FROM t PRECISION -1",   // non-positive precision
            "SELECT AVG(x) FROM t CONFIDENCE 1.5", // confidence out of range
            "SELECT AVG(x) FROM t METHOD magic",   // unknown method
            "SELECT AVG(x) FROM t SAMPLES 0",      // zero samples
            "SELECT AVG(x) FROM t SAMPLES 2.5",    // fractional samples
            "SELECT AVG(x) FROM t WITHIN 10",      // missing MS
            "SELECT AVG(x) FROM t BANANA",         // unknown clause
            "SELECT COUNT(x) FROM t",              // COUNT needs *
            "SELECT AVG(x) FROM t; SELECT",        // trailing tokens
        ];
        for q in bad {
            assert!(
                matches!(parse(q), Err(QueryError::Parse { .. })),
                "expected parse failure for {q:?}"
            );
        }
    }

    #[test]
    fn parse_errors_name_the_expectation() {
        let err = parse("SELECT AVG(x) Q t").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("FROM"), "got: {msg}");
    }

    #[test]
    fn where_precision_alias_and_with_precision_both_still_parse() {
        // The three historical spellings of the precision clause remain
        // equivalent — `WHERE` growing real predicates must not break
        // the paper's `WHERE PRECISION` phrasing.
        let a = parse("SELECT AVG(x) FROM t WITH PRECISION 0.2").unwrap();
        let b = parse("SELECT AVG(x) FROM t WHERE PRECISION 0.2").unwrap();
        let c = parse("SELECT AVG(x) FROM t PRECISION 0.2").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a.predicates.is_empty(), "no predicate was written");
        assert_eq!(a.precision, Some(0.2));
    }

    #[test]
    fn where_introduces_predicates() {
        use crate::ast::CmpOp;
        let q = parse("SELECT AVG(x) FROM t WHERE y > 10 WITH PRECISION 0.1").unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate {
                column: "y".into(),
                op: CmpOp::Gt,
                value: 10.0
            }]
        );
        assert_eq!(q.precision, Some(0.1));
        assert_eq!(q.group_by, None);

        let q =
            parse("SELECT AVG(x) FROM t WHERE y >= 10 AND y < 20 AND region != 2 PRECISION 0.5")
                .unwrap();
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicates[1].op, CmpOp::Lt);
        assert_eq!(q.predicates[2].value, 2.0);
    }

    #[test]
    fn where_predicates_compose_with_the_precision_alias() {
        // Predicates and the aliased precision introducer in one query.
        let q = parse("SELECT AVG(x) FROM t WHERE y = 1 WHERE PRECISION 0.3").unwrap();
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.precision, Some(0.3));
    }

    #[test]
    fn group_by_parses_in_any_clause_position() {
        let q =
            parse("SELECT AVG(x) FROM t WHERE y > 10 GROUP BY region WITH PRECISION 0.5").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("region"));
        assert_eq!(q.predicates.len(), 1);
        let q = parse("SELECT AVG(x) FROM t GROUP BY region").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("region"));
        let q = parse("select sum(x) from t with precision 1 group by g confidence 0.9;").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("g"));
        assert_eq!(q.confidence, Some(0.9));
    }

    #[test]
    fn rejects_malformed_predicates_and_groupings() {
        let bad = [
            "SELECT AVG(x) FROM t WHERE",                 // dangling WHERE
            "SELECT AVG(x) FROM t WHERE y",               // missing operator
            "SELECT AVG(x) FROM t WHERE y > ",            // missing literal
            "SELECT AVG(x) FROM t WHERE y > z",           // non-literal rhs
            "SELECT AVG(x) FROM t WHERE y > 1 AND",       // dangling AND
            "SELECT AVG(x) FROM t GROUP region",          // missing BY
            "SELECT AVG(x) FROM t GROUP BY",              // missing column
            "SELECT AVG(x) FROM t GROUP BY a GROUP BY b", // double grouping
        ];
        for q in bad {
            assert!(
                matches!(parse(q), Err(QueryError::Parse { .. })),
                "expected parse failure for {q:?}"
            );
        }
    }

    #[test]
    fn acceptance_query_shape_parses() {
        let q =
            parse("SELECT AVG(x) FROM t WHERE y > 10 GROUP BY region WITH PRECISION 0.5").unwrap();
        assert_eq!(q.agg, AggFunc::Avg);
        assert_eq!(q.column, "x");
        assert_eq!(q.table, "t");
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.group_by.as_deref(), Some("region"));
        assert_eq!(q.precision, Some(0.5));
    }
}
