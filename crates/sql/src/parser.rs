//! Recursive-descent parser for the SQL subset.

use sstore_common::{Error, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, Token};

/// Maximum expression nesting depth. Recursive descent costs several
/// stack frames per level; unbounded input (e.g. ten thousand opening
/// parentheses) must fail with a parse error, not a stack overflow.
const MAX_EXPR_DEPTH: usize = 128;

/// Parser state over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Auto-numbering counter for bare `?` parameters.
    next_param: usize,
    /// Current expression recursion depth (guards the stack).
    depth: usize,
}

impl Parser {
    /// Tokenizes and prepares to parse.
    pub fn new(sql: &str) -> Result<Self> {
        Ok(Parser { tokens: tokenize(sql)?, pos: 0, next_param: 0, depth: 0 })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &Token::Keyword(k) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {k:?}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(Error::Parse(format!("expected identifier, found {other}"))),
        }
    }

    /// Parses exactly one statement (optional trailing `;`).
    pub fn parse_statement(&mut self) -> Result<Statement> {
        let stmt = match self.peek() {
            Token::Keyword(Keyword::SELECT) => Statement::Select(self.parse_select()?),
            Token::Keyword(Keyword::INSERT) => Statement::Insert(self.parse_insert()?),
            Token::Keyword(Keyword::UPDATE) => Statement::Update(self.parse_update()?),
            Token::Keyword(Keyword::DELETE) => Statement::Delete(self.parse_delete()?),
            other => return Err(Error::Parse(format!("expected a statement, found {other}"))),
        };
        self.eat(&Token::Semicolon);
        if self.peek() != &Token::Eof {
            return Err(Error::Parse(format!("trailing input: {}", self.peek())));
        }
        Ok(stmt)
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_keyword(Keyword::SELECT)?;
        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword(Keyword::AS) {
                    Some(self.expect_ident()?)
                } else if let Token::Ident(_) = self.peek() {
                    // `expr alias` without AS
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_keyword(Keyword::FROM)?;
        let from = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            let is_join = if self.eat_keyword(Keyword::INNER) {
                self.expect_keyword(Keyword::JOIN)?;
                true
            } else {
                self.eat_keyword(Keyword::JOIN)
            };
            if !is_join {
                break;
            }
            let table = self.parse_table_ref()?;
            self.expect_keyword(Keyword::ON)?;
            let on = self.parse_expr()?;
            joins.push(Join { table, on });
        }
        let where_clause =
            if self.eat_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::GROUP) {
            self.expect_keyword(Keyword::BY)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_keyword(Keyword::HAVING) { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::ORDER) {
            self.expect_keyword(Keyword::BY)?;
            loop {
                let expr = self.parse_expr()?;
                let order = if self.eat_keyword(Keyword::DESC) {
                    SortOrder::Desc
                } else {
                    self.eat_keyword(Keyword::ASC);
                    SortOrder::Asc
                };
                order_by.push(OrderKey { expr, order });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::LIMIT) {
            match self.advance() {
                Token::Int(v) if v >= 0 => Some(v as u64),
                other => return Err(Error::Parse(format!("LIMIT expects an integer, found {other}"))),
            }
        } else {
            None
        };
        Ok(Select { items, from, joins, where_clause, group_by, having, order_by, limit })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword(Keyword::AS) {
            Some(self.expect_ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn parse_insert(&mut self) -> Result<Insert> {
        self.expect_keyword(Keyword::INSERT)?;
        self.expect_keyword(Keyword::INTO)?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.eat(&Token::LParen) {
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
        }
        let source = if self.eat_keyword(Keyword::VALUES) {
            let mut rows = Vec::new();
            loop {
                self.expect(Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.peek() == &Token::Keyword(Keyword::SELECT) {
            InsertSource::Select(Box::new(self.parse_select()?))
        } else {
            return Err(Error::Parse(format!("expected VALUES or SELECT, found {}", self.peek())));
        };
        Ok(Insert { table, columns, source })
    }

    fn parse_update(&mut self) -> Result<Update> {
        self.expect_keyword(Keyword::UPDATE)?;
        let table = self.expect_ident()?;
        self.expect_keyword(Keyword::SET)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(Token::Eq)?;
            let expr = self.parse_expr()?;
            assignments.push((col, expr));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause =
            if self.eat_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };
        Ok(Update { table, assignments, where_clause })
    }

    fn parse_delete(&mut self) -> Result<Delete> {
        self.expect_keyword(Keyword::DELETE)?;
        self.expect_keyword(Keyword::FROM)?;
        let table = self.expect_ident()?;
        let where_clause =
            if self.eat_keyword(Keyword::WHERE) { Some(self.parse_expr()?) } else { None };
        Ok(Delete { table, where_clause })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    //   OR < AND < NOT < comparison/IS/IN/BETWEEN < add < mul < unary
    // ------------------------------------------------------------------

    /// Parses a full expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.descend()?;
        let out = self.parse_or();
        self.depth -= 1;
        out
    }

    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(Error::Parse(format!(
                "expression nesting exceeds {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_keyword(Keyword::OR) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_keyword(Keyword::AND) {
            let rhs = self.parse_not()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword(Keyword::NOT) {
            self.descend()?;
            let inner = self.parse_not();
            self.depth -= 1;
            Ok(Expr::Not(Box::new(inner?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_keyword(Keyword::IS) {
            let negated = self.eat_keyword(Keyword::NOT);
            self.expect_keyword(Keyword::NULL)?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        // [NOT] IN / [NOT] BETWEEN
        let negated = self.eat_keyword(Keyword::NOT);
        if self.eat_keyword(Keyword::IN) {
            self.expect(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if self.eat_keyword(Keyword::BETWEEN) {
            let lo = self.parse_additive()?;
            self.expect_keyword(Keyword::AND)?;
            let hi = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(Error::Parse("expected IN or BETWEEN after NOT".into()));
        }
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::NotEq => BinOp::NotEq,
            Token::Lt => BinOp::Lt,
            Token::LtEq => BinOp::LtEq,
            Token::Gt => BinOp::Gt,
            Token::GtEq => BinOp::GtEq,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.parse_additive()?;
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            self.descend()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            return Ok(Expr::Neg(Box::new(inner?)));
        }
        if self.eat(&Token::Plus) {
            self.descend()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            return inner;
        }
        self.parse_primary()
    }

    fn parse_aggregate(&mut self, func: AggFunc) -> Result<Expr> {
        self.expect(Token::LParen)?;
        if func == AggFunc::Count && self.eat(&Token::Star) {
            self.expect(Token::RParen)?;
            return Ok(Expr::Aggregate { func, arg: None, distinct: false });
        }
        let distinct = self.eat_keyword(Keyword::DISTINCT);
        let arg = self.parse_expr()?;
        self.expect(Token::RParen)?;
        Ok(Expr::Aggregate { func, arg: Some(Box::new(arg)), distinct })
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Token::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            Token::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s))),
            Token::Keyword(Keyword::NULL) => Ok(Expr::Literal(Value::Null)),
            Token::Keyword(Keyword::TRUE) => Ok(Expr::Literal(Value::Bool(true))),
            Token::Keyword(Keyword::FALSE) => Ok(Expr::Literal(Value::Bool(false))),
            Token::Param(explicit) => {
                let idx = match explicit {
                    Some(n) => n - 1,
                    None => {
                        let n = self.next_param;
                        self.next_param += 1;
                        n
                    }
                };
                Ok(Expr::Param(idx))
            }
            Token::Keyword(Keyword::COUNT) => self.parse_aggregate(AggFunc::Count),
            Token::Keyword(Keyword::SUM) => self.parse_aggregate(AggFunc::Sum),
            Token::Keyword(Keyword::AVG) => self.parse_aggregate(AggFunc::Avg),
            Token::Keyword(Keyword::MIN) => self.parse_aggregate(AggFunc::Min),
            Token::Keyword(Keyword::MAX) => self.parse_aggregate(AggFunc::Max),
            Token::Keyword(Keyword::ABS) => {
                self.expect(Token::LParen)?;
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(Expr::Abs(Box::new(e)))
            }
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(first) => {
                if self.eat(&Token::Dot) {
                    let col = self.expect_ident()?;
                    Ok(Expr::Column(ColumnRef { table: Some(first), column: col }))
                } else {
                    Ok(Expr::Column(ColumnRef { table: None, column: first }))
                }
            }
            other => Err(Error::Parse(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT * FROM votes");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from.name, "votes");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn select_with_everything() {
        let s = sel(
            "SELECT contestant, COUNT(*) AS n FROM votes v \
             WHERE phone > 100 AND contestant IN (1, 2, 3) \
             GROUP BY contestant HAVING COUNT(*) >= 2 \
             ORDER BY n DESC, contestant LIMIT 3",
        );
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.effective_alias(), "v");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].order, SortOrder::Desc);
        assert_eq!(s.order_by[1].order, SortOrder::Asc);
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn join_parses() {
        let s = sel("SELECT a.x, b.y FROM a JOIN b ON a.id = b.id WHERE a.x > 0");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.name, "b");
        let s = sel("SELECT * FROM a INNER JOIN b ON a.id = b.id");
        assert_eq!(s.joins.len(), 1);
    }

    #[test]
    fn insert_values() {
        let st = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (?, ?2)").unwrap();
        match st {
            Statement::Insert(i) => {
                assert_eq!(i.table, "t");
                assert_eq!(i.columns, vec!["a", "b"]);
                match i.source {
                    InsertSource::Values(rows) => {
                        assert_eq!(rows.len(), 2);
                        assert_eq!(rows[1][0], Expr::Param(0));
                        assert_eq!(rows[1][1], Expr::Param(1));
                    }
                    _ => panic!("expected VALUES"),
                }
            }
            other => panic!("expected INSERT, got {other:?}"),
        }
    }

    #[test]
    fn insert_select() {
        let st = parse("INSERT INTO t SELECT * FROM s WHERE v > 0").unwrap();
        assert!(matches!(
            st,
            Statement::Insert(Insert { source: InsertSource::Select(_), .. })
        ));
    }

    #[test]
    fn update_and_delete() {
        let st = parse("UPDATE t SET a = a + 1, b = ? WHERE id = 3").unwrap();
        match st {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        let st = parse("DELETE FROM t").unwrap();
        assert!(matches!(st, Statement::Delete(Delete { where_clause: None, .. })));
    }

    #[test]
    fn precedence_or_and() {
        // a = 1 OR b = 2 AND c = 3  =>  a=1 OR (b=2 AND c=3)
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_arith() {
        // 1 + 2 * 3  =>  1 + (2*3)
        let s = sel("SELECT 1 + 2 * 3 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, rhs, .. }, .. } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_and_between_and_not() {
        let s = sel("SELECT * FROM t WHERE a IS NOT NULL AND b BETWEEN 1 AND 5 AND NOT c = 2");
        assert!(s.where_clause.is_some());
        let s = sel("SELECT * FROM t WHERE a NOT IN (1,2)");
        match s.where_clause.unwrap() {
            Expr::InList { negated, list, .. } => {
                assert!(negated);
                assert_eq!(list.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_parse() {
        let s = sel("SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), AVG(b), MIN(b), MAX(b) FROM t");
        assert_eq!(s.items.len(), 6);
        match &s.items[1] {
            SelectItem::Expr { expr: Expr::Aggregate { distinct, .. }, .. } => assert!(distinct),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn param_auto_numbering_mixes_with_explicit() {
        let s = sel("SELECT * FROM t WHERE a = ? AND b = ?5 AND c = ?");
        // Bare params take 0 and 1 in order; explicit ?5 is index 4.
        let mut params = Vec::new();
        let mut todo: Vec<&Expr> = s.where_clause.iter().collect();
        while let Some(e) = todo.pop() {
            match e {
                Expr::Binary { lhs, rhs, .. } => todo.extend([&**rhs, &**lhs]),
                Expr::Param(i) => params.push(*i),
                _ => {}
            }
        }
        assert_eq!(params, vec![0, 4, 1]);
    }

    #[test]
    fn errors_are_parse_errors() {
        for bad in [
            "SELECT",
            "SELECT * FROM",
            "INSERT INTO t",
            "UPDATE t",
            "DELETE t",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT x",
            "SELECT * FROM t extra garbage ,",
            "SELECT * FROM t WHERE a NOT 3",
        ] {
            assert!(matches!(parse(bad), Err(Error::Parse(_))), "should fail: {bad}");
        }
    }

    #[test]
    fn negative_numbers_and_abs() {
        let s = sel("SELECT -a, ABS(b - 3), -(-2) FROM t");
        assert_eq!(s.items.len(), 3);
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: Expr::Neg(_), .. }
        ));
    }

    #[test]
    fn semicolon_allowed() {
        parse("SELECT * FROM t;").unwrap();
    }
}
