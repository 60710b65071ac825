//! Parser for the ASCII TRC surface syntax.
//!
//! Grammar (whitespace-insensitive; keywords case-insensitive):
//!
//! ```text
//! union    := query { 'union' query }
//! query    := '{' IDENT '(' IDENT {',' IDENT} ')' '|' formula '}'
//!           | formula                                   (Boolean sentence)
//! formula  := disj
//! disj     := conj { 'or' conj }
//! conj     := factor { 'and' factor }
//! factor   := 'not' '(' formula ')'
//!           | 'exists' binding {',' binding} '[' formula ']'
//!           | '(' formula ')'
//!           | predicate
//! binding  := IDENT 'in' IDENT
//! predicate:= term OP term
//! term     := IDENT '.' IDENT | INT | STRING
//! OP       := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//! ```
//!
//! Every later pass over a formula (checking, canonicalization, the
//! translations, the diagram, dropping it) recurses once per nesting
//! level, so the parser refuses formulas nested deeper than
//! [`MAX_DEPTH`] `not (…)`, `exists […]` and `(…)` groups before
//! recursing into the next one. `and`/`or`/`union` chains are flat lists
//! and add no depth.
//!
//! The catalog is consulted only to *resolve unqualified output attributes*
//! — e.g. `{ q(A) | … }` names its columns directly — and is re-validated
//! by [`crate::check`]; parsing itself is schema-independent.

use crate::ast::{Binding, Formula, OutputSpec, Predicate, Term, TrcQuery, TrcUnion};
use rd_core::{Catalog, CmpOp, CoreError, CoreResult, Value};

/// Tokens of the surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Op(CmpOp),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Pipe,
    Dot,
    Comma,
    KwExists,
    KwIn,
    KwAnd,
    KwOr,
    KwNot,
    KwUnion,
    KwTrue,
}

fn lex(input: &str) -> CoreResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
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
            '|' => {
                toks.push(Tok::Pipe);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
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
                        // '' is an escaped quote
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
                    return Err(CoreError::Invalid(format!("unexpected character '{c}'")));
                }
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n: i64 = text
                    .parse()
                    .map_err(|_| CoreError::Invalid(format!("bad integer literal '{text}'")))?;
                toks.push(Tok::Int(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                toks.push(match word.to_ascii_lowercase().as_str() {
                    "exists" => Tok::KwExists,
                    "in" => Tok::KwIn,
                    "and" => Tok::KwAnd,
                    "or" => Tok::KwOr,
                    "not" => Tok::KwNot,
                    "union" => Tok::KwUnion,
                    "true" => Tok::KwTrue,
                    _ => Tok::Ident(word),
                });
            }
            other => {
                return Err(CoreError::Invalid(format!(
                    "unexpected character '{other}' in TRC input"
                )))
            }
        }
    }
    Ok(toks)
}

/// The deepest nesting of formula groups the parser accepts: far beyond
/// any hand-written query, and shallow enough that a query this deep
/// runs through evaluation, translations and diagram rendering on a
/// 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Formula groups open around the current position.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> CoreResult<Parser> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Parses `f` one nesting level deeper, refused past [`MAX_DEPTH`]
    /// before recursing.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> CoreResult<T>) -> CoreResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(CoreError::Invalid(format!(
                "TRC formula nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> CoreResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| CoreError::Invalid("unexpected end of TRC input".into()))?;
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

    fn parse_union(&mut self) -> CoreResult<TrcUnion> {
        let mut branches = vec![self.parse_query()?];
        while self.peek() == Some(&Tok::KwUnion) {
            self.next()?;
            branches.push(self.parse_query()?);
        }
        TrcUnion::new(branches)
    }

    fn parse_query(&mut self) -> CoreResult<TrcQuery> {
        if self.peek() == Some(&Tok::LBrace) {
            self.next()?;
            let name = self.ident("output table name")?;
            self.expect(&Tok::LParen, "'('")?;
            let mut attrs = vec![self.ident("output attribute")?];
            while self.peek() == Some(&Tok::Comma) {
                self.next()?;
                attrs.push(self.ident("output attribute")?);
            }
            self.expect(&Tok::RParen, "')'")?;
            self.expect(&Tok::Pipe, "'|'")?;
            let formula = self.parse_formula()?;
            self.expect(&Tok::RBrace, "'}'")?;
            Ok(TrcQuery::query(OutputSpec::new(name, attrs), formula))
        } else {
            let formula = self.parse_formula()?;
            Ok(TrcQuery::sentence(formula))
        }
    }

    fn parse_formula(&mut self) -> CoreResult<Formula> {
        let mut parts = vec![self.parse_conj()?];
        while self.peek() == Some(&Tok::KwOr) {
            self.next()?;
            parts.push(self.parse_conj()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Formula::Or(parts)
        })
    }

    fn parse_conj(&mut self) -> CoreResult<Formula> {
        let mut parts = vec![self.parse_factor()?];
        while self.peek() == Some(&Tok::KwAnd) {
            self.next()?;
            parts.push(self.parse_factor()?);
        }
        Ok(Formula::and(parts))
    }

    fn parse_factor(&mut self) -> CoreResult<Formula> {
        match self.peek() {
            Some(Tok::KwNot) => {
                self.next()?;
                self.expect(&Tok::LParen, "'(' after not")?;
                let inner = self.nested(Self::parse_formula)?;
                self.expect(&Tok::RParen, "')' closing not")?;
                Ok(Formula::not(inner))
            }
            Some(Tok::KwExists) => {
                self.next()?;
                let mut bindings = vec![self.parse_binding()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.next()?;
                    bindings.push(self.parse_binding()?);
                }
                self.expect(&Tok::LBracket, "'[' opening exists body")?;
                // An empty body `[ ]` means the constant true.
                let body = if self.peek() == Some(&Tok::RBracket) {
                    Formula::truth()
                } else {
                    self.nested(Self::parse_formula)?
                };
                self.expect(&Tok::RBracket, "']' closing exists body")?;
                Ok(Formula::exists(bindings, body))
            }
            Some(Tok::LParen) => {
                self.next()?;
                let inner = self.nested(Self::parse_formula)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::KwTrue) => {
                self.next()?;
                Ok(Formula::truth())
            }
            _ => {
                let left = self.parse_term()?;
                let op = match self.next()? {
                    Tok::Op(op) => op,
                    other => {
                        return Err(CoreError::Invalid(format!(
                            "expected comparison operator, found {other:?}"
                        )))
                    }
                };
                let right = self.parse_term()?;
                Ok(Formula::Pred(Predicate::new(left, op, right)))
            }
        }
    }

    fn parse_binding(&mut self) -> CoreResult<Binding> {
        let var = self.ident("tuple variable")?;
        self.expect(&Tok::KwIn, "'in'")?;
        let table = self.ident("table name")?;
        Ok(Binding::new(var, table))
    }

    fn parse_term(&mut self) -> CoreResult<Term> {
        match self.next()? {
            Tok::Int(n) => Ok(Term::Const(Value::int(n))),
            Tok::Str(s) => Ok(Term::Const(Value::str(s))),
            Tok::Ident(var) => {
                self.expect(&Tok::Dot, "'.' after tuple variable")?;
                let attr = self.ident("attribute name")?;
                Ok(Term::attr(var, attr))
            }
            other => Err(CoreError::Invalid(format!(
                "expected term, found {other:?}"
            ))),
        }
    }

    fn finish(&self) -> CoreResult<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(CoreError::Invalid(format!(
                "trailing tokens after TRC query: {:?}",
                &self.toks[self.pos..]
            )))
        }
    }
}

/// Parses a single TRC query or Boolean sentence and validates it against
/// `catalog` (well-formedness, safety, guard analysis is separate — see
/// [`crate::check`]).
pub fn parse_query(input: &str, catalog: &Catalog) -> CoreResult<TrcQuery> {
    let mut p = Parser::new(input)?;
    let q = p.parse_query()?;
    p.finish()?;
    crate::check::check_query(&q, catalog)?;
    Ok(q)
}

/// Parses a union of TRC queries (`{…} union {…}`), validating each branch.
pub fn parse_union(input: &str, catalog: &Catalog) -> CoreResult<TrcUnion> {
    let mut p = Parser::new(input)?;
    let u = p.parse_union()?;
    p.finish()?;
    for q in &u.branches {
        crate::check::check_query(q, catalog)?;
    }
    Ok(u)
}

/// Parses without catalog validation. Useful for tests of the checker
/// itself and for queries over dissociated (not-yet-registered) schemas.
pub fn parse_query_unchecked(input: &str) -> CoreResult<TrcQuery> {
    let mut p = Parser::new(input)?;
    let q = p.parse_query()?;
    p.finish()?;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::TableSchema;

    fn rs_catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap()
    }

    #[test]
    fn parses_division() {
        let q = parse_query(
            "{ q(A) | exists r in R [ q.A = r.A and not (exists s in S [ \
             not (exists r2 in R [ r2.B = s.B and r2.A = r.A ]) ]) ] }",
            &rs_catalog(),
        )
        .unwrap();
        assert_eq!(q.signature(), vec!["R", "S", "R"]);
        assert_eq!(q.formula.negation_depth(), 2);
    }

    #[test]
    fn parses_sentence_without_head() {
        let q = parse_query("exists r in R [ r.A = 1 ]", &rs_catalog()).unwrap();
        assert!(q.is_sentence());
    }

    #[test]
    fn parses_disjunction_and_string_literals() {
        let cat = Catalog::from_schemas([TableSchema::new("Boat", ["bid", "color"])]).unwrap();
        let q = parse_query(
            "exists b in Boat [ b.color = 'red' or b.color = 'blue' ]",
            &cat,
        )
        .unwrap();
        assert!(q.formula.contains_or());
    }

    #[test]
    fn parses_union() {
        let cat =
            Catalog::from_schemas([TableSchema::new("R", ["A"]), TableSchema::new("S", ["A"])])
                .unwrap();
        let u = parse_union(
            "{ q(A) | exists r in R [ q.A = r.A ] } union { q(A) | exists s in S [ q.A = s.A ] }",
            &cat,
        )
        .unwrap();
        assert_eq!(u.branches.len(), 2);
        assert_eq!(u.signature(), vec!["R", "S"]);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let cat = rs_catalog();
        assert!(parse_query("{ q(A) | ", &cat).is_err());
        assert!(parse_query("{ q() | exists r in R [ q.A = r.A ] }", &cat).is_err());
        assert!(parse_query("exists r in R [ r.A & 1 ]", &cat).is_err());
        assert!(parse_query("exists r in R [ r.A = 1 ] garbage", &cat).is_err());
    }

    #[test]
    fn lexes_quoted_strings_with_escapes() {
        let cat = Catalog::from_schemas([TableSchema::new("T", ["N"])]).unwrap();
        let q = parse_query("exists t in T [ t.N = 'o''brien' ]", &cat).unwrap();
        let mut found = false;
        q.formula.visit_predicates(&mut |p| {
            if let Term::Const(Value::Str(s)) = &p.right {
                assert_eq!(s, "o'brien");
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn empty_exists_body_is_truth() {
        let cat = rs_catalog();
        let q = parse_query("exists r in R [ ]", &cat).unwrap();
        match &q.formula {
            Formula::Exists(_, body) => assert_eq!(**body, Formula::truth()),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn operators_all_spellings() {
        let cat = rs_catalog();
        for op in ["=", "!=", "<>", "<", "<=", ">", ">="] {
            let q = parse_query(&format!("exists r in R [ r.A {op} 1 ]"), &cat).unwrap();
            assert!(!q.signature().is_empty());
        }
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error() {
        // Each helper nests exactly `n` formula groups.
        let not = |n: usize| {
            format!(
                "{}exists r in R [ r.A = 1 ]{}",
                "not (".repeat(n - 1),
                ")".repeat(n - 1)
            )
        };
        let exists =
            |n: usize| format!("{}r.A = 1{}", "exists r in R [ ".repeat(n), " ]".repeat(n));
        let parens = |n: usize| {
            format!(
                "{}exists r in R [ r.A = 1 ]{}",
                "(".repeat(n - 1),
                ")".repeat(n - 1)
            )
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for shape in [not, exists, parens] {
                    assert!(parse_query_unchecked(&shape(MAX_DEPTH)).is_ok());
                    for n in [MAX_DEPTH + 1, 2_000, 100_000] {
                        let err = parse_query_unchecked(&shape(n)).unwrap_err();
                        assert!(err.to_string().contains("deeper than 128"), "{err}");
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
