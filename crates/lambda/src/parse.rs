//! Lexer and parser for the source language.
//!
//! Surface syntax (ML-flavoured):
//!
//! ```text
//! fun sum (p : int * int) : int = fst p + snd p
//!
//! let x = (1, 2) in sum x
//! ```
//!
//! * Programs are zero or more `fun f (x : τ) : τ' = e` definitions
//!   (mutually recursive) followed by one main expression.
//! * Application is juxtaposition and binds tighter than arithmetic.
//! * `*` is both type product and multiplication; the two parsers never
//!   overlap.
//!
//! # Examples
//!
//! ```
//! let p = ps_lambda::parse::parse_program("let x = 2 in x * 21").unwrap();
//! assert!(p.defs.is_empty());
//! ```

use std::fmt;

use ps_ir::Symbol;

use crate::syntax::{BinOp, Expr, FunDef, SrcProgram, SrcTy};

/// A parse error with a byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Int(i64),
    Ident(String),
    KwFun,
    KwLet,
    KwIn,
    KwIf0,
    KwThen,
    KwElse,
    KwFn,
    KwFst,
    KwSnd,
    KwInt,
    LParen,
    RParen,
    Comma,
    Colon,
    Star,
    Plus,
    Minus,
    Arrow,
    FatArrow,
    Eq,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    /// Newlines before `pos`. Tokens never contain one, so `skip_ws` is
    /// the only place that counts them.
    line: usize,
}

impl<'a> Lexer<'a> {
    fn lex(src: &'a str) -> PResult<Vec<(usize, usize, Tok)>> {
        let mut l = Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 0,
        };
        let mut toks = Vec::new();
        loop {
            l.skip_ws();
            if l.pos >= l.src.len() {
                return Ok(toks);
            }
            let start = l.pos;
            let tok = l.next_tok()?;
            toks.push((start, l.line, tok));
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.line += usize::from(self.src[self.pos] == b'\n');
                self.pos += 1;
            }
            // Line comments: `-- ...`.
            if self.pos + 1 < self.src.len() && &self.src[self.pos..self.pos + 2] == b"--" {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn next_tok(&mut self) -> PResult<Tok> {
        let c = self.src[self.pos];
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b':' => {
                self.pos += 1;
                Ok(Tok::Colon)
            }
            b'*' => {
                self.pos += 1;
                Ok(Tok::Star)
            }
            b'+' => {
                self.pos += 1;
                Ok(Tok::Plus)
            }
            b'-' => {
                if self.peek(1) == Some(b'>') {
                    self.pos += 2;
                    Ok(Tok::Arrow)
                } else {
                    self.pos += 1;
                    Ok(Tok::Minus)
                }
            }
            b'=' => {
                if self.peek(1) == Some(b'>') {
                    self.pos += 2;
                    Ok(Tok::FatArrow)
                } else {
                    self.pos += 1;
                    Ok(Tok::Eq)
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
                text.parse::<i64>().map(Tok::Int).map_err(|_| ParseError {
                    pos: start,
                    msg: format!("integer literal {text} out of range"),
                })
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'\'')
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
                Ok(match text {
                    "fun" => Tok::KwFun,
                    "let" => Tok::KwLet,
                    "in" => Tok::KwIn,
                    "if0" => Tok::KwIf0,
                    "then" => Tok::KwThen,
                    "else" => Tok::KwElse,
                    "fn" => Tok::KwFn,
                    "fst" => Tok::KwFst,
                    "snd" => Tok::KwSnd,
                    "int" => Tok::KwInt,
                    _ => Tok::Ident(text.to_owned()),
                })
            }
            other => Err(ParseError {
                pos: self.pos,
                msg: format!("unexpected character {:?}", other as char),
            }),
        }
    }

    fn peek(&self, k: usize) -> Option<u8> {
        self.src.get(self.pos + k).copied()
    }
}

/// How deep parenthesized expressions and types may nest. Each level
/// recurses through five parser frames (`atom`, `expr`, `add_expr`,
/// `mul_expr`, `app_expr`), so without a budget deep nesting overflows the
/// stack and aborts the process instead of failing to parse.
///
/// Measured on x86-64 without the budget, by bisecting `psgc check` over
/// `((…(1)…))`: the debug `psgc` (what `cargo test` runs) overflows its
/// 8 MiB main thread at about 1 010 levels, some 8 KiB of stack a level,
/// and a release build between 5 000 and 10 000. The deepest nesting the
/// repository's tests, examples and benchmark workloads parse is 16
/// (counted by an instrumented run of all three). 128 levels take about
/// 1 MiB in a debug build, so the budget trips first even on a 2 MiB
/// spawned or test thread.
const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<(usize, usize, Tok)>,
    idx: usize,
    /// Parenthesized groups currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<(usize, usize, Tok)>) -> Parser {
        Parser {
            toks,
            idx: 0,
            depth: 0,
        }
    }

    /// Runs `f` one parenthesized group deeper, failing once more than
    /// [`MAX_NESTING`] groups are open.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Parser) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_NESTING {
            return Err(ParseError {
                pos: self.pos(),
                msg: format!("parentheses nested more than {MAX_NESTING} deep"),
            });
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|(_, _, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks
            .get(self.idx)
            .or_else(|| self.toks.last())
            .map(|(p, _, _)| *p)
            .unwrap_or(0)
    }

    fn line(&self, idx: usize) -> usize {
        self.toks.get(idx).map(|(_, l, _)| *l).unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.idx).map(|(_, _, t)| t.clone());
        self.idx += 1;
        t
    }

    fn expect(&mut self, want: Tok, what: &str) -> PResult<()> {
        match self.peek() {
            Some(t) if *t == want => {
                self.idx += 1;
                Ok(())
            }
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn ident(&mut self) -> PResult<Symbol> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(Symbol::intern(&s)),
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    // ----- types ---------------------------------------------------------

    fn ty(&mut self) -> PResult<SrcTy> {
        let lhs = self.ty_prod()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.idx += 1;
            let rhs = self.ty()?;
            Ok(SrcTy::arrow(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> PResult<SrcTy> {
        let lhs = self.ty_atom()?;
        if self.peek() == Some(&Tok::Star) {
            self.idx += 1;
            let rhs = self.ty_prod()?;
            Ok(SrcTy::prod(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_atom(&mut self) -> PResult<SrcTy> {
        match self.bump() {
            Some(Tok::KwInt) => Ok(SrcTy::Int),
            Some(Tok::LParen) => self.nested(|p| {
                let t = p.ty()?;
                p.expect(Tok::RParen, ")")?;
                Ok(t)
            }),
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected a type, found {other:?}"),
            }),
        }
    }

    // ----- expressions -----------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Tok::KwLet) => {
                self.idx += 1;
                let x = self.ident()?;
                self.expect(Tok::Eq, "=")?;
                let rhs = self.expr()?;
                self.expect(Tok::KwIn, "in")?;
                let body = self.expr()?;
                Ok(Expr::let_(x, rhs, body))
            }
            Some(Tok::KwIf0) => {
                self.idx += 1;
                let c = self.expr()?;
                self.expect(Tok::KwThen, "then")?;
                let t = self.expr()?;
                self.expect(Tok::KwElse, "else")?;
                let e = self.expr()?;
                Ok(Expr::If0(c.into(), t.into(), e.into()))
            }
            Some(Tok::KwFn) => {
                self.idx += 1;
                self.expect(Tok::LParen, "(")?;
                let param = self.ident()?;
                self.expect(Tok::Colon, ":")?;
                let param_ty = self.ty()?;
                self.expect(Tok::RParen, ")")?;
                self.expect(Tok::FatArrow, "=>")?;
                let body = self.expr()?;
                Ok(Expr::Lam {
                    param,
                    param_ty,
                    body: body.into(),
                })
            }
            _ => self.add_expr(),
        }
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.idx += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.app_expr()?;
        while self.peek() == Some(&Tok::Star) {
            self.idx += 1;
            let rhs = self.app_expr()?;
            lhs = Expr::Bin(BinOp::Mul, lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Int(_))
                | Some(Tok::Ident(_))
                | Some(Tok::LParen)
                | Some(Tok::KwFst)
                | Some(Tok::KwSnd)
        )
    }

    fn app_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.atom()?;
        // Layout rule: an application chain only continues on the same
        // line, so a definition body does not swallow the next top-level
        // item. Operator-led continuations (`+`, `*`, ...) still span
        // lines; wrap multi-line arguments in parentheses.
        while self.starts_atom() && self.line(self.idx) == self.line(self.idx - 1) {
            let arg = self.atom()?;
            lhs = Expr::app(lhs, arg);
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> PResult<Expr> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Expr::Int(n)),
            Some(Tok::Ident(s)) => Ok(Expr::Var(Symbol::intern(&s))),
            Some(Tok::KwFst) => Ok(Expr::Proj(1, self.atom()?.into())),
            Some(Tok::KwSnd) => Ok(Expr::Proj(2, self.atom()?.into())),
            Some(Tok::LParen) => self.nested(|p| {
                let first = p.expr()?;
                match p.peek() {
                    Some(Tok::Comma) => {
                        p.idx += 1;
                        let second = p.expr()?;
                        p.expect(Tok::RParen, ")")?;
                        Ok(Expr::pair(first, second))
                    }
                    _ => {
                        p.expect(Tok::RParen, ")")?;
                        Ok(first)
                    }
                }
            }),
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected an expression, found {other:?}"),
            }),
        }
    }

    // ----- programs --------------------------------------------------------

    fn fundef(&mut self) -> PResult<FunDef> {
        self.expect(Tok::KwFun, "fun")?;
        let name = self.ident()?;
        self.expect(Tok::LParen, "(")?;
        let param = self.ident()?;
        self.expect(Tok::Colon, ":")?;
        let param_ty = self.ty()?;
        self.expect(Tok::RParen, ")")?;
        self.expect(Tok::Colon, ":")?;
        let ret_ty = self.ty()?;
        self.expect(Tok::Eq, "=")?;
        let body = self.expr()?;
        Ok(FunDef {
            name,
            param,
            param_ty,
            ret_ty,
            body,
        })
    }

    fn program(&mut self) -> PResult<SrcProgram> {
        let mut defs = Vec::new();
        while self.peek() == Some(&Tok::KwFun) {
            defs.push(self.fundef()?);
        }
        let main = self.expr()?;
        if self.idx != self.toks.len() {
            return Err(ParseError {
                pos: self.pos(),
                msg: format!("trailing input: {:?}", self.peek()),
            });
        }
        Ok(SrcProgram { defs, main })
    }
}

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte position of the first problem.
pub fn parse_program(src: &str) -> PResult<SrcProgram> {
    Parser::new(Lexer::lex(src)?).program()
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed or trailing input.
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = Parser::new(Lexer::lex(src)?);
    let e = p.expr()?;
    if p.idx != p.toks.len() {
        return Err(ParseError {
            pos: p.pos(),
            msg: "trailing input".to_string(),
        });
    }
    Ok(e)
}

/// Parses a type.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed or trailing input.
pub fn parse_ty(src: &str) -> PResult<SrcTy> {
    let mut p = Parser::new(Lexer::lex(src)?);
    let t = p.ty()?;
    if p.idx != p.toks.len() {
        return Err(ParseError {
            pos: p.pos(),
            msg: "trailing input".to_string(),
        });
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn literals_and_vars() {
        assert_eq!(parse_expr("42").unwrap(), Expr::Int(42));
        assert_eq!(parse_expr("x").unwrap(), Expr::Var(s("x")));
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Bin(BinOp::Add, _, rhs) => {
                assert!(matches!(&*rhs, Expr::Bin(BinOp::Mul, _, _)))
            }
            other => panic!("bad parse {other:?}"),
        }
    }

    #[test]
    fn application_binds_tighter_than_arithmetic() {
        // f 1 + 2 parses as (f 1) + 2.
        let e = parse_expr("f 1 + 2").unwrap();
        match e {
            Expr::Bin(BinOp::Add, lhs, _) => assert!(matches!(&*lhs, Expr::App(..))),
            other => panic!("bad parse {other:?}"),
        }
    }

    #[test]
    fn application_is_left_associative() {
        let e = parse_expr("f x y").unwrap();
        match e {
            Expr::App(fx, _) => assert!(matches!(&*fx, Expr::App(..))),
            other => panic!("bad parse {other:?}"),
        }
    }

    #[test]
    fn pairs_and_projections() {
        let e = parse_expr("fst (1, 2)").unwrap();
        assert!(matches!(e, Expr::Proj(1, _)));
        let e = parse_expr("snd (1, (2, 3))").unwrap();
        assert!(matches!(e, Expr::Proj(2, _)));
    }

    #[test]
    fn parenthesized_expr_is_not_a_pair() {
        assert_eq!(parse_expr("(5)").unwrap(), Expr::Int(5));
    }

    #[test]
    fn let_and_if0() {
        let e = parse_expr("let x = 1 in if0 x then 2 else 3").unwrap();
        assert!(matches!(e, Expr::Let { .. }));
    }

    #[test]
    fn lambda() {
        let e = parse_expr("fn (x : int) => x + 1").unwrap();
        match e {
            Expr::Lam { param_ty, .. } => assert_eq!(param_ty, SrcTy::Int),
            other => panic!("bad parse {other:?}"),
        }
    }

    #[test]
    fn types_parse() {
        assert_eq!(parse_ty("int").unwrap(), SrcTy::Int);
        assert_eq!(
            parse_ty("int * int -> int").unwrap(),
            SrcTy::arrow(SrcTy::prod(SrcTy::Int, SrcTy::Int), SrcTy::Int)
        );
        // Arrows are right associative.
        assert_eq!(
            parse_ty("int -> int -> int").unwrap(),
            SrcTy::arrow(SrcTy::Int, SrcTy::arrow(SrcTy::Int, SrcTy::Int))
        );
    }

    #[test]
    fn programs_with_definitions() {
        let p = parse_program(
            "fun double (x : int) : int = x + x\n\
             fun quad (x : int) : int = double (double x)\n\
             quad 4",
        )
        .unwrap();
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.defs[1].name, s("quad"));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("-- a comment\n1 + 1 -- trailing").unwrap();
        assert!(p.defs.is_empty());
    }

    #[test]
    fn error_positions() {
        let err = parse_expr("1 + ").unwrap_err();
        assert!(err.msg.contains("expected an expression"));
        let err = parse_program("fun f (x : int) = x  1").unwrap_err();
        assert!(err.msg.contains("expected"));
    }

    #[test]
    fn nesting_past_the_budget_is_a_parse_error() {
        let nest = |n: usize, inner: &str| format!("{}{inner}{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_expr(&nest(MAX_NESTING, "1")).unwrap(), Expr::Int(1));
        assert!(parse_ty(&nest(MAX_NESTING, "int")).is_ok());
        for err in [
            parse_expr(&nest(MAX_NESTING + 1, "1")).unwrap_err(),
            parse_ty(&nest(MAX_NESTING + 1, "int")).unwrap_err(),
        ] {
            assert!(err.msg.contains("nested more than 128"), "{err}");
        }
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_expr("1 2").is_err() || matches!(parse_expr("1 2"), Ok(Expr::App(..))));
        assert!(parse_expr("1 )").is_err());
    }
}
