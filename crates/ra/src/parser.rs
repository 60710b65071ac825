//! Parser for the ASCII RA surface syntax.
//!
//! ```text
//! expr    := term { ('-' | 'union') term }
//! term    := factor { ('x' | 'join' ['[' jcond ']'] | 'antijoin' ['[' jcond ']']) factor }
//! factor  := 'pi' '[' attrs ']' '(' expr ')'
//!          | 'sigma' '[' cond ']' '(' expr ')'
//!          | 'rho' '[' renames ']' '(' expr ')'
//!          | '(' expr ')'
//!          | IDENT
//! cond    := disj; disj := conj {'or' conj}; conj := cmp {'and' cmp}
//! cmp     := operand OP operand;  operand := IDENT | INT | STRING
//! jcond   := IDENT OP IDENT { 'and' IDENT OP IDENT }
//! renames := IDENT '->' IDENT {',' IDENT '->' IDENT}
//! ```
//!
//! Every later pass over an expression (checking, lowering, the hub
//! translation, rendering, even dropping it) recurses once per tree
//! level, so the parser refuses trees deeper than [`MAX_DEPTH`] while it
//! builds them: both nesting (each parenthesized group, condition
//! groups included) and left-deep operator chains (`R - S - T …`, which
//! need no parentheses) count.

use crate::ast::{Condition, JoinCond, RaExpr, RaTerm};
use rd_core::{Catalog, CmpOp, CoreError, CoreResult, Value};

/// The deepest expression tree the parser accepts, in levels: far
/// beyond any hand-written query (the deepest corpus or test query is a
/// 70-way join chain), and shallow enough that a query this deep runs
/// through evaluation, translations and diagram rendering on a 2 MiB
/// thread stack.
pub const MAX_DEPTH: usize = 128;

/// `depth` if it is within [`MAX_DEPTH`], else the refusal.
fn within(depth: usize) -> CoreResult<usize> {
    if depth > MAX_DEPTH {
        Err(CoreError::Invalid(format!(
            "RA expression nests deeper than {MAX_DEPTH} levels"
        )))
    } else {
        Ok(depth)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Op(CmpOp),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Minus,
    Arrow,
    KwPi,
    KwSigma,
    KwRho,
    KwX,
    KwJoin,
    KwAntijoin,
    KwUnion,
    KwAnd,
    KwOr,
}

fn lex(input: &str) -> CoreResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
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
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '-' => {
                if i + 1 < chars.len() && chars[i + 1] == '>' {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else if i + 1 < chars.len() && chars[i + 1].is_ascii_digit() {
                    // negative literal
                    let start = i;
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    toks.push(Tok::Int(text.parse().map_err(|_| {
                        CoreError::Invalid(format!("bad integer '{text}'"))
                    })?));
                } else {
                    toks.push(Tok::Minus);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(CoreError::Invalid("unterminated string".into()));
                }
                i += 1;
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
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok::Int(text.parse().map_err(|_| {
                    CoreError::Invalid(format!("bad integer '{text}'"))
                })?));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                toks.push(match word.to_ascii_lowercase().as_str() {
                    "pi" => Tok::KwPi,
                    "sigma" => Tok::KwSigma,
                    "rho" => Tok::KwRho,
                    "x" => Tok::KwX,
                    "join" => Tok::KwJoin,
                    "antijoin" => Tok::KwAntijoin,
                    "union" => Tok::KwUnion,
                    "and" => Tok::KwAnd,
                    "or" => Tok::KwOr,
                    _ => Tok::Ident(word),
                });
            }
            other => {
                return Err(CoreError::Invalid(format!(
                    "unexpected character '{other}' in RA input"
                )))
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Open groups around the current position: the recursion guard
    /// (a group's own depth is known only once it closes).
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> CoreResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| CoreError::Invalid("unexpected end of RA input".into()))?;
        self.pos += 1;
        Ok(t)
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

    /// Parses `f` as one more open group, refused past [`MAX_DEPTH`]
    /// before recursing.
    fn group<T>(&mut self, f: impl FnOnce(&mut Self) -> CoreResult<T>) -> CoreResult<T> {
        self.open = within(self.open + 1)?;
        let out = f(self);
        self.open -= 1;
        out
    }

    /// `'(' expr ')'`, with the expression's depth.
    fn parenthesized(&mut self) -> CoreResult<(RaExpr, usize)> {
        self.expect(&Tok::LParen, "'('")?;
        let inner = self.group(Self::expr)?;
        self.expect(&Tok::RParen, "')'")?;
        Ok(inner)
    }

    /// An expression and the depth of its tree (groups count a level).
    fn expr(&mut self) -> CoreResult<(RaExpr, usize)> {
        let (mut left, mut depth) = self.term()?;
        loop {
            let op: fn(RaExpr, RaExpr) -> RaExpr = match self.peek() {
                Some(Tok::Minus) => RaExpr::diff,
                Some(Tok::KwUnion) => RaExpr::union,
                _ => return Ok((left, depth)),
            };
            self.next()?;
            let (right, d) = self.term()?;
            left = op(left, right);
            depth = within(depth.max(d) + 1)?;
        }
    }

    fn term(&mut self) -> CoreResult<(RaExpr, usize)> {
        let (mut left, mut depth) = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::KwX | Tok::KwJoin | Tok::KwAntijoin) => self.next()?,
                _ => return Ok((left, depth)),
            };
            let cond = if op != Tok::KwX && self.peek() == Some(&Tok::LBracket) {
                Some(self.join_cond()?)
            } else {
                None
            };
            let (right, d) = self.factor()?;
            left = match (op, cond) {
                (Tok::KwX, _) => RaExpr::product(left, right),
                (Tok::KwJoin, Some(cond)) => RaExpr::join(cond, left, right),
                (Tok::KwJoin, None) => RaExpr::natural_join(left, right),
                (_, cond) => RaExpr::antijoin(cond.unwrap_or(JoinCond(vec![])), left, right),
            };
            depth = within(depth.max(d) + 1)?;
        }
    }

    fn factor(&mut self) -> CoreResult<(RaExpr, usize)> {
        match self.next()? {
            Tok::KwPi => {
                self.expect(&Tok::LBracket, "'['")?;
                let mut attrs = vec![self.ident("attribute")?];
                while self.peek() == Some(&Tok::Comma) {
                    self.next()?;
                    attrs.push(self.ident("attribute")?);
                }
                self.expect(&Tok::RBracket, "']'")?;
                let (inner, d) = self.parenthesized()?;
                Ok((RaExpr::Project(attrs, Box::new(inner)), within(d + 1)?))
            }
            Tok::KwSigma => {
                self.expect(&Tok::LBracket, "'['")?;
                let (cond, c) = self.condition()?;
                self.expect(&Tok::RBracket, "']'")?;
                let (inner, d) = self.parenthesized()?;
                Ok((RaExpr::select(cond, inner), within(d.max(c) + 1)?))
            }
            Tok::KwRho => {
                self.expect(&Tok::LBracket, "'['")?;
                let mut renames = Vec::new();
                loop {
                    let from = self.ident("rename source")?;
                    self.expect(&Tok::Arrow, "'->'")?;
                    let to = self.ident("rename target")?;
                    renames.push((from, to));
                    if self.peek() == Some(&Tok::Comma) {
                        self.next()?;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RBracket, "']'")?;
                let (inner, d) = self.parenthesized()?;
                Ok((RaExpr::Rename(renames, Box::new(inner)), within(d + 1)?))
            }
            Tok::LParen => {
                let (inner, d) = self.group(Self::expr)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok((inner, within(d + 1)?))
            }
            Tok::Ident(name) => Ok((RaExpr::Table(name), 1)),
            other => Err(CoreError::Invalid(format!(
                "expected RA factor, found {other:?}"
            ))),
        }
    }

    fn join_cond(&mut self) -> CoreResult<JoinCond> {
        self.expect(&Tok::LBracket, "'['")?;
        let mut items = Vec::new();
        loop {
            let l = self.ident("join attribute")?;
            let op = match self.next()? {
                Tok::Op(op) => op,
                other => {
                    return Err(CoreError::Invalid(format!(
                        "expected comparison in join condition, found {other:?}"
                    )))
                }
            };
            let r = self.ident("join attribute")?;
            items.push((l, op, r));
            if self.peek() == Some(&Tok::KwAnd) {
                self.next()?;
            } else {
                break;
            }
        }
        self.expect(&Tok::RBracket, "']'")?;
        Ok(JoinCond(items))
    }

    /// A condition and the depth of its tree (groups count a level).
    fn condition(&mut self) -> CoreResult<(Condition, usize)> {
        let (first, mut depth) = self.conj()?;
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::KwOr) {
            self.next()?;
            let (part, d) = self.conj()?;
            parts.push(part);
            depth = depth.max(d);
        }
        Ok(if parts.len() == 1 {
            (parts.pop().expect("len checked"), depth)
        } else {
            (Condition::Or(parts), within(depth + 1)?)
        })
    }

    fn conj(&mut self) -> CoreResult<(Condition, usize)> {
        let (first, mut depth) = self.cmp()?;
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::KwAnd) {
            self.next()?;
            let (part, d) = self.cmp()?;
            parts.push(part);
            depth = depth.max(d);
        }
        Ok(if parts.len() == 1 {
            (parts.pop().expect("len checked"), depth)
        } else {
            (Condition::And(parts), within(depth + 1)?)
        })
    }

    fn cmp(&mut self) -> CoreResult<(Condition, usize)> {
        if self.peek() == Some(&Tok::LParen) {
            self.next()?;
            let (inner, d) = self.group(Self::condition)?;
            self.expect(&Tok::RParen, "')'")?;
            return Ok((inner, within(d + 1)?));
        }
        let l = self.operand()?;
        let op = match self.next()? {
            Tok::Op(op) => op,
            other => {
                return Err(CoreError::Invalid(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let r = self.operand()?;
        Ok((Condition::Cmp(l, op, r), 1))
    }

    fn operand(&mut self) -> CoreResult<RaTerm> {
        match self.next()? {
            Tok::Ident(a) => Ok(RaTerm::Attr(a)),
            Tok::Int(n) => Ok(RaTerm::Const(Value::int(n))),
            Tok::Str(s) => Ok(RaTerm::Const(Value::str(s))),
            other => Err(CoreError::Invalid(format!(
                "expected condition operand, found {other:?}"
            ))),
        }
    }
}

/// Parses an RA expression and validates its schema against `catalog`.
pub fn parse(input: &str, catalog: &Catalog) -> CoreResult<RaExpr> {
    let e = parse_unchecked(input)?;
    e.schema(catalog)?;
    Ok(e)
}

/// Parses without schema validation.
pub fn parse_unchecked(input: &str) -> CoreResult<RaExpr> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        open: 0,
    };
    let (e, _) = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(CoreError::Invalid(format!(
            "trailing tokens after RA expression: {:?}",
            &p.toks[p.pos..]
        )));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::to_ascii;
    use rd_core::TableSchema;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
        ])
        .unwrap()
    }

    #[test]
    fn parses_division() {
        let e = parse("pi[A](R) - pi[A]((pi[A](R) x S) - R)", &catalog()).unwrap();
        assert_eq!(e.signature(), vec!["R", "R", "S", "R"]);
    }

    #[test]
    fn roundtrips_through_printer() {
        let inputs = [
            "pi[A](R) - pi[A]((pi[A](R) x S) - R)",
            "sigma[B>5](R) join[A=A2] rho[A->A2](T)",
            "R antijoin[B=B] S",
            "R antijoin S",
            "pi[B](R) union S",
            "sigma[A=1 or B=2](R)",
        ];
        for text in inputs {
            let e = parse_unchecked(text).unwrap();
            let printed = to_ascii(&e);
            let e2 = parse_unchecked(&printed).unwrap();
            assert_eq!(e, e2, "round-trip failed for {text}: printed {printed}");
        }
    }

    #[test]
    fn validates_schema() {
        assert!(parse("pi[Z](R)", &catalog()).is_err());
        assert!(parse("R x R", &catalog()).is_err());
        assert!(parse("R - S", &catalog()).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_unchecked("pi[A](R").is_err());
        assert!(parse_unchecked("R ??? S").is_err());
        assert!(parse_unchecked("R - ").is_err());
    }

    #[test]
    fn parses_string_constants_in_selections() {
        let cat = Catalog::from_schemas([TableSchema::new("Boat", ["bid", "color"])]).unwrap();
        let e = parse("sigma[color='red'](Boat)", &cat).unwrap();
        assert_eq!(to_ascii(&e), "sigma[color='red'](Boat)");
    }

    /// Runs `f` on a thread with the 2 MiB stack a server compute
    /// worker gets.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_and_chains_past_the_depth_cap_are_errors() {
        // Each helper builds a tree exactly `n` levels deep.
        let nest = |n: usize| format!("{}R{}", "pi[A](".repeat(n - 1), ")".repeat(n - 1));
        let chain = |n: usize| format!("R{}", " - R".repeat(n - 1));
        let antijoins = |n: usize| format!("R{}", " antijoin[A=A] R".repeat(n - 1));
        let parens = |n: usize| format!("{}R{}", "(".repeat(n - 1), ")".repeat(n - 1));
        let cond = |n: usize| format!("sigma[{}A=1{}](R)", "(".repeat(n - 2), ")".repeat(n - 2));
        on_small_stack(move || {
            for shape in [nest, chain, antijoins, parens, cond] {
                assert!(parse_unchecked(&shape(MAX_DEPTH)).is_ok());
                for n in [MAX_DEPTH + 1, 3_000, 100_000] {
                    let err = parse_unchecked(&shape(n)).unwrap_err();
                    assert!(err.to_string().contains("deeper than 128"), "{err}");
                }
            }
        });
    }
}
