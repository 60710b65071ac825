//! Recursive-descent parser for the SQL\* grammar of Fig. 3 (plus the §5
//! extensions `OR` and `UNION`).
//!
//! Keywords are case-insensitive. The parser is deliberately *restrictive*:
//! anything outside the paper's grammar (joins in `FROM`, `GROUP BY`,
//! arithmetic, `NULL`, …) is a parse error, because fragment membership is
//! the whole point of SQL\*.
//!
//! Every later pass over a query (translation to TRC, canonicalization,
//! printing, dropping it) recurses once per nesting level, so the parser
//! refuses queries nested deeper than [`MAX_DEPTH`] parenthesized groups
//! (`NOT (…)`, subqueries, plain parentheses) before recursing into the
//! next one. `AND`/`OR`/`UNION` chains are flat lists and add no depth.

use crate::ast::{
    Column, SelectCols, SelectQuery, SqlPredicate, SqlQuery, SqlTerm, SqlUnion, TableRef,
};
use rd_core::{Catalog, CmpOp, CoreError, CoreResult, Value};

/// The deepest nesting of parenthesized groups the parser accepts: far
/// beyond any hand-written query, and shallow enough that a query this
/// deep runs through evaluation, translations and diagram rendering on
/// a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Op(CmpOp),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Kw(Kw),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kw {
    Select,
    Distinct,
    From,
    Where,
    As,
    And,
    Or,
    Not,
    Exists,
    In,
    All,
    Any,
    Union,
}

fn keyword(word: &str) -> Option<Kw> {
    Some(match word.to_ascii_uppercase().as_str() {
        "SELECT" => Kw::Select,
        "DISTINCT" => Kw::Distinct,
        "FROM" => Kw::From,
        "WHERE" => Kw::Where,
        "AS" => Kw::As,
        "AND" => Kw::And,
        "OR" => Kw::Or,
        "NOT" => Kw::Not,
        "EXISTS" => Kw::Exists,
        "IN" => Kw::In,
        "ALL" => Kw::All,
        "ANY" | "SOME" => Kw::Any,
        "UNION" => Kw::Union,
        _ => return None,
    })
}

fn lex(input: &str) -> CoreResult<Vec<Tok>> {
    let chars: Vec<char> = input.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(CoreError::Invalid("unterminated string literal".into()));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                toks.push(Tok::Str(s));
            }
            '=' | '!' | '<' | '>' => {
                let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
                if let Some(op) = CmpOp::parse(&two) {
                    toks.push(Tok::Op(op));
                    i += 2;
                } else if let Some(op) = CmpOp::parse(&c.to_string()) {
                    toks.push(Tok::Op(op));
                    i += 1;
                } else {
                    return Err(CoreError::Invalid(format!("unexpected char '{c}'")));
                }
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok::Int(text.parse().map_err(|_| {
                    CoreError::Invalid(format!("bad number '{text}'"))
                })?));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                toks.push(match keyword(&word) {
                    Some(kw) => Tok::Kw(kw),
                    None => Tok::Ident(word),
                });
            }
            other => {
                return Err(CoreError::Invalid(format!(
                    "unexpected character '{other}' in SQL input"
                )))
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Parenthesized groups open around the current position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_kw(&self, kw: Kw) -> bool {
        self.peek() == Some(&Tok::Kw(kw))
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn next(&mut self) -> CoreResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| CoreError::Invalid("unexpected end of SQL input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_kw(&mut self, kw: Kw) -> CoreResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(CoreError::Invalid(format!(
                "expected {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> CoreResult<()> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(CoreError::Invalid(format!(
                "expected {what}, found {got:?}"
            )))
        }
    }

    fn ident(&mut self, what: &str) -> CoreResult<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(CoreError::Invalid(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    /// `'(' f ')'`: one nesting level deeper, refused past
    /// [`MAX_DEPTH`] before recursing.
    fn group<T>(&mut self, f: impl FnOnce(&mut Self) -> CoreResult<T>) -> CoreResult<T> {
        self.expect(&Tok::LParen, "'('")?;
        if self.depth == MAX_DEPTH {
            return Err(CoreError::Invalid(format!(
                "SQL query nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = f(self)?;
        self.depth -= 1;
        self.expect(&Tok::RParen, "')'")?;
        Ok(out)
    }

    fn union(&mut self) -> CoreResult<SqlUnion> {
        // Branches may be parenthesized: (SELECT ...) UNION (SELECT ...).
        let mut branches = vec![self.query_maybe_paren()?];
        while self.eat_kw(Kw::Union) {
            branches.push(self.query_maybe_paren()?);
        }
        Ok(SqlUnion { branches })
    }

    fn query_maybe_paren(&mut self) -> CoreResult<SqlQuery> {
        if self.peek() == Some(&Tok::LParen) {
            self.group(Self::query)
        } else {
            self.query()
        }
    }

    /// `Q` nonterminal.
    fn query(&mut self) -> CoreResult<SqlQuery> {
        self.expect_kw(Kw::Select)?;
        // Boolean forms: SELECT NOT (P) | SELECT [NOT] EXISTS (Q).
        if self.peek_kw(Kw::Not) {
            // Lookahead: NOT EXISTS => SelectExists; NOT ( => SelectNot.
            if self.toks.get(self.pos + 1) == Some(&Tok::Kw(Kw::Exists)) {
                self.pos += 2;
                let q = self.group(Self::query)?;
                return Ok(SqlQuery::SelectExists {
                    negated: true,
                    query: Box::new(q),
                });
            }
            self.pos += 1;
            let p = self.group(Self::predicate)?;
            return Ok(SqlQuery::SelectNot(Box::new(p)));
        }
        if self.eat_kw(Kw::Exists) {
            let q = self.group(Self::query)?;
            return Ok(SqlQuery::SelectExists {
                negated: false,
                query: Box::new(q),
            });
        }
        let distinct = self.eat_kw(Kw::Distinct);
        let columns = if self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            SelectCols::Star
        } else {
            let mut cols = vec![self.column()?];
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                cols.push(self.column()?);
            }
            SelectCols::Cols(cols)
        };
        self.expect_kw(Kw::From)?;
        let mut from = vec![self.table_ref()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            from.push(self.table_ref()?);
        }
        let where_clause = if self.eat_kw(Kw::Where) {
            Some(self.predicate()?)
        } else {
            None
        };
        Ok(SqlQuery::Select(SelectQuery {
            distinct,
            columns,
            from,
            where_clause,
        }))
    }

    /// `R ::= T [[AS] T]`.
    fn table_ref(&mut self) -> CoreResult<TableRef> {
        let table = self.ident("table name")?;
        if self.eat_kw(Kw::As) {
            let alias = self.ident("table alias")?;
            return Ok(TableRef::aliased(table, alias));
        }
        // Implicit alias: `Sailor S`.
        if let Some(Tok::Ident(_)) = self.peek() {
            let alias = self.ident("table alias")?;
            return Ok(TableRef::aliased(table, alias));
        }
        Ok(TableRef::plain(table))
    }

    /// `C ::= [T.]A`.
    fn column(&mut self) -> CoreResult<Column> {
        let first = self.ident("column")?;
        if self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let attr = self.ident("attribute")?;
            Ok(Column::qualified(first, attr))
        } else {
            Ok(Column::bare(first))
        }
    }

    /// `P` with `AND` binding tighter than `OR`.
    fn predicate(&mut self) -> CoreResult<SqlPredicate> {
        let mut parts = vec![self.conj()?];
        while self.eat_kw(Kw::Or) {
            parts.push(self.conj()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            SqlPredicate::Or(parts)
        })
    }

    fn conj(&mut self) -> CoreResult<SqlPredicate> {
        let mut parts = vec![self.atom()?];
        while self.eat_kw(Kw::And) {
            parts.push(self.atom()?);
        }
        Ok(SqlPredicate::and(parts))
    }

    fn atom(&mut self) -> CoreResult<SqlPredicate> {
        if self.peek_kw(Kw::Not) {
            // NOT EXISTS (Q) | NOT (P)
            if self.toks.get(self.pos + 1) == Some(&Tok::Kw(Kw::Exists)) {
                self.pos += 2;
                let q = self.group(Self::query)?;
                return Ok(SqlPredicate::Exists {
                    negated: true,
                    query: Box::new(q),
                });
            }
            self.pos += 1;
            let p = self.group(Self::predicate)?;
            return Ok(SqlPredicate::Not(Box::new(p)));
        }
        if self.eat_kw(Kw::Exists) {
            let q = self.group(Self::query)?;
            return Ok(SqlPredicate::Exists {
                negated: false,
                query: Box::new(q),
            });
        }
        if self.peek() == Some(&Tok::LParen) {
            // Parenthesized predicate (needed for the OR extension).
            return self.group(Self::predicate);
        }
        // C O C | C O V | C [NOT] IN (Q) | C O ALL/ANY (Q)
        let left = self.term()?;
        if let SqlTerm::Col(col) = &left {
            if self.peek_kw(Kw::In) {
                self.pos += 1;
                let q = self.group(Self::query)?;
                return Ok(SqlPredicate::InSubquery {
                    negated: false,
                    col: col.clone(),
                    query: Box::new(q),
                });
            }
            if self.peek_kw(Kw::Not) && self.toks.get(self.pos + 1) == Some(&Tok::Kw(Kw::In)) {
                self.pos += 2;
                let q = self.group(Self::query)?;
                return Ok(SqlPredicate::InSubquery {
                    negated: true,
                    col: col.clone(),
                    query: Box::new(q),
                });
            }
        }
        let op = match self.next()? {
            Tok::Op(op) => op,
            other => {
                return Err(CoreError::Invalid(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        // ALL/ANY quantified subquery?
        if self.peek_kw(Kw::All) || self.peek_kw(Kw::Any) {
            let all = self.peek_kw(Kw::All);
            self.pos += 1;
            let q = self.group(Self::query)?;
            let col = match left {
                SqlTerm::Col(c) => c,
                SqlTerm::Const(_) => {
                    return Err(CoreError::Invalid(
                        "quantified subquery requires a column on the left".into(),
                    ))
                }
            };
            return Ok(SqlPredicate::Quantified {
                col,
                op,
                all,
                query: Box::new(q),
            });
        }
        let right = self.term()?;
        Ok(SqlPredicate::Cmp(left, op, right))
    }

    fn term(&mut self) -> CoreResult<SqlTerm> {
        match self.peek() {
            Some(Tok::Int(_)) => {
                if let Tok::Int(n) = self.next()? {
                    Ok(SqlTerm::Const(Value::int(n)))
                } else {
                    unreachable!()
                }
            }
            Some(Tok::Str(_)) => {
                if let Tok::Str(s) = self.next()? {
                    Ok(SqlTerm::Const(Value::str(s)))
                } else {
                    unreachable!()
                }
            }
            _ => Ok(SqlTerm::Col(self.column()?)),
        }
    }
}

/// Parses a SQL\* query or union and validates it against `catalog`
/// (columns/tables resolve; see [`crate::translate`] for resolution rules).
pub fn parse_sql(input: &str, catalog: &Catalog) -> CoreResult<SqlUnion> {
    let u = parse_sql_unchecked(input)?;
    // Validation: translating to TRC resolves every column and table.
    crate::translate::sql_to_trc(&u, catalog)?;
    Ok(u)
}

/// Parses without semantic validation.
pub fn parse_sql_unchecked(input: &str) -> CoreResult<SqlUnion> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        depth: 0,
    };
    let u = p.union()?;
    if p.pos != p.toks.len() {
        return Err(CoreError::Invalid(format!(
            "trailing tokens after SQL query: {:?}",
            &p.toks[p.pos..]
        )));
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_division() {
        let u = parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R WHERE not exists (SELECT * FROM S WHERE not exists \
             (SELECT * FROM R AS R2 WHERE R2.B = S.B AND R2.A = R.A))",
        )
        .unwrap();
        assert!(u.is_single());
        assert_eq!(u.signature(), vec!["R", "S", "R"]);
    }

    #[test]
    fn parses_membership_and_quantified() {
        let u =
            parse_sql_unchecked("SELECT DISTINCT R.A FROM R WHERE R.B NOT IN (SELECT S.B FROM S)")
                .unwrap();
        match &u.branches[0] {
            SqlQuery::Select(s) => match s.where_clause.as_ref().unwrap() {
                SqlPredicate::InSubquery { negated, .. } => assert!(*negated),
                other => panic!("expected IN, got {other:?}"),
            },
            _ => panic!(),
        }
        let u =
            parse_sql_unchecked("SELECT DISTINCT R.A FROM R WHERE R.B >= ALL (SELECT S.B FROM S)")
                .unwrap();
        match &u.branches[0] {
            SqlQuery::Select(s) => match s.where_clause.as_ref().unwrap() {
                SqlPredicate::Quantified { all, op, .. } => {
                    assert!(*all);
                    assert_eq!(*op, CmpOp::Ge);
                }
                other => panic!("expected quantified, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_boolean_queries() {
        let u = parse_sql_unchecked(
            "SELECT NOT EXISTS (SELECT * FROM Sailor s WHERE NOT EXISTS \
             (SELECT b.bid FROM Boat b, Reserves r WHERE b.color = 'red' \
              AND r.bid = b.bid AND r.sid = s.sid))",
        )
        .unwrap();
        assert!(u.branches[0].is_boolean());
        assert_eq!(u.signature(), vec!["Sailor", "Boat", "Reserves"]);
    }

    #[test]
    fn parses_select_not_form() {
        let u = parse_sql_unchecked(
            "SELECT NOT (NOT EXISTS (SELECT * FROM R WHERE R.A = 1) AND \
             NOT EXISTS (SELECT * FROM R R2 WHERE R2.A = 2))",
        )
        .unwrap();
        assert!(matches!(u.branches[0], SqlQuery::SelectNot(_)));
        assert_eq!(u.signature(), vec!["R", "R"]);
    }

    #[test]
    fn parses_union_and_or() {
        let u =
            parse_sql_unchecked("(SELECT DISTINCT R.A FROM R) UNION (SELECT DISTINCT S.A FROM S)")
                .unwrap();
        assert_eq!(u.branches.len(), 2);
        let u = parse_sql_unchecked(
            "SELECT DISTINCT R.A FROM R, S, T WHERE R.B > 5 AND (R.A = S.A OR R.A = T.A)",
        )
        .unwrap();
        assert!(u.branches[0].contains_or());
    }

    #[test]
    fn implicit_aliases() {
        let u = parse_sql_unchecked("SELECT DISTINCT S.sname FROM Sailor S").unwrap();
        match &u.branches[0] {
            SqlQuery::Select(s) => assert_eq!(s.from[0].name(), "S"),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_out_of_grammar_sql() {
        assert!(parse_sql_unchecked("SELECT A FROM R GROUP BY A").is_err());
        assert!(parse_sql_unchecked("SELECT * FROM R JOIN S ON R.B = S.B").is_err());
        assert!(parse_sql_unchecked("SELECT COUNT(*) FROM R").is_err());
        assert!(parse_sql_unchecked("SELECT A FROM R WHERE A IS NULL").is_err());
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error() {
        // Each helper nests exactly `n` parenthesized groups.
        let not = |n: usize| {
            format!(
                "SELECT DISTINCT R.A FROM R WHERE {}R.A = 1{}",
                "NOT (".repeat(n),
                ")".repeat(n)
            )
        };
        let exists = |n: usize| {
            format!(
                "SELECT DISTINCT R.A FROM R WHERE {}R.A = 1{}",
                "EXISTS (SELECT * FROM S WHERE ".repeat(n),
                ")".repeat(n)
            )
        };
        let parens = |n: usize| {
            format!(
                "SELECT DISTINCT R.A FROM R WHERE {}R.A = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for shape in [not, exists, parens] {
                    assert!(parse_sql_unchecked(&shape(MAX_DEPTH)).is_ok());
                    for n in [MAX_DEPTH + 1, 2_000, 100_000] {
                        let err = parse_sql_unchecked(&shape(n)).unwrap_err();
                        assert!(err.to_string().contains("deeper than 128"), "{err}");
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
