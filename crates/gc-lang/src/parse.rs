//! A concrete syntax for λGC, matching [`crate::pretty`]'s output.
//!
//! The grammar follows the paper's notation (`∀[t:Ω][r](σ)→0`, `Mρ(τ)`
//! written `M[ρ](τ)`, `⟨t:Ω = τ, v : σ⟩`, `typecase τ of …`), so that
//! collectors can be written, stored and read back as text; the round-trip
//! `parse ∘ print` is tested on the certified collectors themselves.
//!
//! Two notational deviations from the paper, forced by parsability:
//!
//! * the three `open` forms are keyword-distinguished (`open` for tag
//!   existentials, `openα` for type existentials, `openρ` for region
//!   existentials) — the paper overloads one keyword and disambiguates by
//!   type;
//! * `typecase` arms containing another `typecase` must be parenthesized
//!   (`(… )` is a term).

use std::fmt;

use ps_ir::Symbol;

use crate::syntax::{CodeDef, Kind, Op, PrimOp, Region, RegionName, Tag, Term, Ty, Value, CD};

/// A λGC parse error with a token position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcParseError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for GcParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λGC parse error at token {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for GcParseError {}

type PResult<T> = Result<T, GcParseError>;

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Nu(u32),
    LBrack,
    RBrack,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LAngle,
    RAngle,
    LDblBrack,
    RDblBrack,
    Comma,
    Dot,
    Colon,
    Semi,
    Eq,
    Times,
    Arrow,
    DArrow,
    Forall,
    Exists,
    Lambda,
    MemberOf,
    Omega,
    Plus,
    Minus,
    Assign,
    Pi(u8),
}

fn lex(src: &str) -> PResult<Vec<Tok>> {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut out = Vec::new();
    let is_ident = |c: char| c.is_alphanumeric() || matches!(c, '_' | '!' | '%' | '\'');
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < chars.len() && chars[i + 1] == '-' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '[' => {
                out.push(Tok::LBrack);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBrack);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '{' => {
                out.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Tok::RBrace);
                i += 1;
            }
            '⟨' => {
                out.push(Tok::LAngle);
                i += 1;
            }
            '⟩' => {
                out.push(Tok::RAngle);
                i += 1;
            }
            '⟦' => {
                out.push(Tok::LDblBrack);
                i += 1;
            }
            '⟧' => {
                out.push(Tok::RDblBrack);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '×' => {
                out.push(Tok::Times);
                i += 1;
            }
            '→' => {
                out.push(Tok::Arrow);
                i += 1;
            }
            '⇒' => {
                out.push(Tok::DArrow);
                i += 1;
            }
            '∀' => {
                out.push(Tok::Forall);
                i += 1;
            }
            '∃' => {
                out.push(Tok::Exists);
                i += 1;
            }
            'λ' => {
                out.push(Tok::Lambda);
                i += 1;
            }
            '∈' => {
                out.push(Tok::MemberOf);
                i += 1;
            }
            'Ω' => {
                out.push(Tok::Omega);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Times);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            ':' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Assign);
                    i += 2;
                } else {
                    out.push(Tok::Colon);
                    i += 1;
                }
            }
            'π' => {
                let idx = match chars.get(i + 1) {
                    Some('1') => 1,
                    Some('2') => 2,
                    other => {
                        return Err(GcParseError {
                            pos: out.len(),
                            msg: format!("π must be followed by 1 or 2, found {other:?}"),
                        })
                    }
                };
                out.push(Tok::Pi(idx));
                i += 2;
            }
            'ν' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    // ν with no digits: treat as identifier start.
                    let mut j2 = i;
                    while j2 < chars.len() && is_ident(chars[j2]) {
                        j2 += 1;
                    }
                    out.push(Tok::Ident(chars[i..j2].iter().collect()));
                    i = j2;
                } else {
                    let n: String = chars[start..j].iter().collect();
                    out.push(Tok::Nu(n.parse().map_err(|_| GcParseError {
                        pos: out.len(),
                        msg: format!("region number {n} out of range"),
                    })?));
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.push(Tok::Int(text.parse().map_err(|_| GcParseError {
                    pos: out.len(),
                    msg: format!("integer {text} out of range"),
                })?));
            }
            c if is_ident(c) => {
                let start = i;
                while i < chars.len() && is_ident(chars[i]) {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(GcParseError {
                    pos: out.len(),
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    i: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.i + 1)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).cloned();
        self.i += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(GcParseError {
            pos: self.i,
            msg: msg.into(),
        })
    }

    fn expect(&mut self, tok: Tok, what: &str) -> PResult<()> {
        match self.peek() {
            Some(t) if *t == tok => {
                self.i += 1;
                Ok(())
            }
            other => {
                let other = other.cloned();
                self.err(format!("expected {what}, found {other:?}"))
            }
        }
    }

    fn kw(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == word) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn at_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w == word)
    }

    fn ident(&mut self) -> PResult<Symbol> {
        match self.bump() {
            Some(Tok::Ident(w)) => Ok(Symbol::intern(&w)),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn int(&mut self) -> PResult<i64> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(n),
            Some(Tok::Minus) => match self.bump() {
                Some(Tok::Int(n)) => Ok(-n),
                other => self.err(format!("expected integer after -, found {other:?}")),
            },
            other => self.err(format!("expected integer, found {other:?}")),
        }
    }

    // ---- regions ---------------------------------------------------------

    fn region(&mut self) -> PResult<Region> {
        match self.bump() {
            Some(Tok::Ident(w)) if w == "cd" => Ok(Region::cd()),
            Some(Tok::Ident(w)) => Ok(Region::Var(Symbol::intern(&w))),
            Some(Tok::Nu(n)) => Ok(Region::Name(RegionName(n))),
            other => self.err(format!("expected region, found {other:?}")),
        }
    }

    fn region_set(&mut self) -> PResult<Vec<Region>> {
        self.expect(Tok::LBrace, "{")?;
        let mut out = Vec::new();
        if self.peek() != Some(&Tok::RBrace) {
            loop {
                out.push(self.region()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace, "}")?;
        Ok(out)
    }

    fn kind(&mut self) -> PResult<Kind> {
        self.expect(Tok::Omega, "Ω")?;
        if self.peek() == Some(&Tok::Arrow) && self.peek2() == Some(&Tok::Omega) {
            self.i += 2;
            Ok(Kind::Arrow)
        } else {
            Ok(Kind::Omega)
        }
    }

    // ---- tags --------------------------------------------------------------

    fn tag(&mut self) -> PResult<Tag> {
        let lhs = self.tag_app()?;
        if self.peek() == Some(&Tok::Times) {
            self.i += 1;
            let rhs = self.tag()?;
            Ok(Tag::prod(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn starts_tag_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Ident(_)) | Some(Tok::LParen) | Some(Tok::Exists) | Some(Tok::Lambda)
        )
    }

    fn tag_app(&mut self) -> PResult<Tag> {
        let mut lhs = self.tag_atom()?;
        while self.starts_tag_atom() {
            // Do not swallow keywords that end a tag context.
            if let Some(Tok::Ident(w)) = self.peek() {
                if matches!(
                    w.as_str(),
                    "of" | "at" | "in" | "then" | "else" | "left" | "right"
                ) {
                    break;
                }
            }
            let rhs = self.tag_atom()?;
            lhs = Tag::app(lhs, rhs);
        }
        Ok(lhs)
    }

    fn tag_atom(&mut self) -> PResult<Tag> {
        match self.peek().cloned() {
            Some(Tok::Ident(w)) if w == "Int" => {
                self.i += 1;
                Ok(Tag::Int)
            }
            Some(Tok::Ident(w)) if w == "arrow" => {
                // The internal AnyArrow refinement, printed `arrow(t)`.
                self.i += 1;
                self.expect(Tok::LParen, "(")?;
                let t = self.ident()?;
                self.expect(Tok::RParen, ")")?;
                Ok(Tag::AnyArrow(t))
            }
            Some(Tok::Ident(w)) => {
                self.i += 1;
                Ok(Tag::Var(Symbol::intern(&w)))
            }
            Some(Tok::Exists) => {
                self.i += 1;
                let t = self.ident()?;
                self.expect(Tok::Dot, ".")?;
                Ok(Tag::exist(t, self.tag()?))
            }
            Some(Tok::Lambda) => {
                self.i += 1;
                let t = self.ident()?;
                self.expect(Tok::Dot, ".")?;
                Ok(Tag::lam(t, self.tag()?))
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let mut items = vec![self.tag()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                    items.push(self.tag()?);
                }
                self.expect(Tok::RParen, ")")?;
                if self.peek() == Some(&Tok::Arrow) {
                    self.i += 1;
                    match self.bump() {
                        Some(Tok::Int(0)) => Ok(Tag::arrow(items)),
                        other => self.err(format!("expected 0 after →, found {other:?}")),
                    }
                } else if let [item] = items.as_slice() {
                    Ok(item.clone())
                } else {
                    self.err("tag tuple without → 0")
                }
            }
            other => self.err(format!("expected tag, found {other:?}")),
        }
    }

    // ---- types -------------------------------------------------------------

    fn ty(&mut self) -> PResult<Ty> {
        let mut lhs = self.ty_prod()?;
        while self.at_kw("at") {
            self.i += 1;
            let rho = self.region()?;
            lhs = lhs.at(rho);
        }
        Ok(lhs)
    }

    fn ty_prod(&mut self) -> PResult<Ty> {
        let lhs = self.ty_pre()?;
        if self.peek() == Some(&Tok::Times) {
            self.i += 1;
            let rhs = self.ty_prod()?;
            Ok(Ty::prod(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_pre(&mut self) -> PResult<Ty> {
        if self.at_kw("left") {
            self.i += 1;
            let a = self.ty_atom()?;
            if self.peek() == Some(&Tok::Plus) {
                self.i += 1;
                if !self.kw("right") {
                    return self.err("expected `right` after +");
                }
                let b = self.ty_atom()?;
                return Ok(Ty::sum(a, b));
            }
            return Ok(Ty::Left(a.id()));
        }
        if self.at_kw("right") {
            self.i += 1;
            let a = self.ty_atom()?;
            return Ok(Ty::Right(a.id()));
        }
        self.ty_atom()
    }

    fn ty_atom(&mut self) -> PResult<Ty> {
        match self.peek().cloned() {
            Some(Tok::Ident(w)) if w == "int" => {
                self.i += 1;
                Ok(Ty::Int)
            }
            Some(Tok::Ident(w)) if w == "M" || w == "C" => {
                self.i += 1;
                self.expect(Tok::LBrack, "[")?;
                let r1 = self.region()?;
                let r2 = if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                    Some(self.region()?)
                } else {
                    None
                };
                self.expect(Tok::RBrack, "]")?;
                self.expect(Tok::LParen, "(")?;
                let tag = self.tag()?;
                self.expect(Tok::RParen, ")")?;
                match (w.as_str(), r2) {
                    ("M", None) => Ok(Ty::m(r1, tag)),
                    ("M", Some(r2)) => Ok(Ty::mgen(r1, r2, tag)),
                    ("C", Some(r2)) => Ok(Ty::c(r1, r2, tag)),
                    ("C", None) => self.err("C needs two regions"),
                    _ => unreachable!(),
                }
            }
            Some(Tok::Ident(w)) => {
                self.i += 1;
                Ok(Ty::Alpha(Symbol::intern(&w)))
            }
            Some(Tok::Forall) => {
                self.i += 1;
                match self.peek() {
                    Some(Tok::LBrack) => {
                        // ∀[t:κ,…][r,…](σ,…) → 0
                        self.i += 1;
                        let mut tvars = Vec::new();
                        if self.peek() != Some(&Tok::RBrack) {
                            loop {
                                let t = self.ident()?;
                                self.expect(Tok::Colon, ":")?;
                                let k = self.kind()?;
                                tvars.push((t, k));
                                if self.peek() == Some(&Tok::Comma) {
                                    self.i += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RBrack, "]")?;
                        let rvars = self.rvar_list()?;
                        let args = self.ty_list()?;
                        self.expect(Tok::Arrow, "→")?;
                        match self.bump() {
                            Some(Tok::Int(0)) => Ok(Ty::code(tvars, rvars, args)),
                            other => self.err(format!("expected 0, found {other:?}")),
                        }
                    }
                    Some(Tok::LDblBrack) => {
                        // ∀⟦τ,…⟧[ρ,…](σ,…) →ρ 0
                        self.i += 1;
                        let mut tags = Vec::new();
                        if self.peek() != Some(&Tok::RDblBrack) {
                            loop {
                                tags.push(self.tag()?);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.i += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RDblBrack, "⟧")?;
                        self.expect(Tok::LBrack, "[")?;
                        let mut regions = Vec::new();
                        if self.peek() != Some(&Tok::RBrack) {
                            loop {
                                regions.push(self.region()?);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.i += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RBrack, "]")?;
                        let args = self.ty_list()?;
                        self.expect(Tok::Arrow, "→")?;
                        let rho = self.region()?;
                        match self.bump() {
                            Some(Tok::Int(0)) => Ok(Ty::Trans {
                                tags: tags.iter().map(|t| t.id()).collect(),
                                regions: regions.into(),
                                args: args.iter().map(|a| a.id()).collect(),
                                rho,
                            }),
                            other => self.err(format!("expected 0, found {other:?}")),
                        }
                    }
                    other => {
                        let other = other.cloned();
                        self.err(format!("expected [ or ⟦ after ∀, found {other:?}"))
                    }
                }
            }
            Some(Tok::Exists) => {
                self.i += 1;
                let v = self.ident()?;
                match self.peek() {
                    Some(Tok::Colon) => {
                        self.i += 1;
                        if self.peek() == Some(&Tok::LBrace) {
                            // ∃α:{Δ}.σ
                            let regions = self.region_set()?;
                            self.expect(Tok::Dot, ".")?;
                            // ∃-bodies print at low precedence: products and
                            // `at` extend to the right without parentheses.
                            Ok(Ty::exist_alpha(v, regions, self.ty()?))
                        } else {
                            // ∃t:κ.σ
                            let k = self.kind()?;
                            self.expect(Tok::Dot, ".")?;
                            Ok(Ty::exist_tag(v, k, self.ty()?))
                        }
                    }
                    Some(Tok::MemberOf) => {
                        // ∃r∈{Δ}.(σ at r)
                        self.i += 1;
                        let bound = self.region_set()?;
                        self.expect(Tok::Dot, ".")?;
                        self.expect(Tok::LParen, "(")?;
                        let body = self.ty()?;
                        // The printer renders the body as `σ at r`; `at r`
                        // was consumed by `ty`, so strip it back off.
                        let (body, at) = match body {
                            Ty::At(inner, Region::Var(r)) if r == v => ((*inner).clone(), true),
                            other => (other, false),
                        };
                        if !at {
                            return self.err("region existential body must end in `at <binder>`");
                        }
                        self.expect(Tok::RParen, ")")?;
                        Ok(Ty::exist_rgn(v, bound, body))
                    }
                    other => {
                        let other = other.cloned();
                        self.err(format!("expected : or ∈ after ∃{v}, found {other:?}"))
                    }
                }
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let t = self.ty()?;
                self.expect(Tok::RParen, ")")?;
                Ok(t)
            }
            other => self.err(format!("expected type, found {other:?}")),
        }
    }

    fn rvar_list(&mut self) -> PResult<Vec<Symbol>> {
        self.expect(Tok::LBrack, "[")?;
        let mut out = Vec::new();
        if self.peek() != Some(&Tok::RBrack) {
            loop {
                out.push(self.ident()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrack, "]")?;
        Ok(out)
    }

    fn ty_list(&mut self) -> PResult<Vec<Ty>> {
        self.expect(Tok::LParen, "(")?;
        let mut out = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                out.push(self.ty()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, ")")?;
        Ok(out)
    }

    // ---- values ------------------------------------------------------------

    fn value(&mut self) -> PResult<Value> {
        if self.at_kw("inl") {
            self.i += 1;
            return Ok(Value::inl(self.value()?));
        }
        if self.at_kw("inr") {
            self.i += 1;
            return Ok(Value::inr(self.value()?));
        }
        let mut v = self.value_atom()?;
        while self.peek() == Some(&Tok::LDblBrack) {
            self.i += 1;
            let mut tags = Vec::new();
            if self.peek() != Some(&Tok::Semi) {
                loop {
                    tags.push(self.tag()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.i += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::Semi, ";")?;
            let mut regions = Vec::new();
            if self.peek() != Some(&Tok::RDblBrack) {
                loop {
                    regions.push(self.region()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.i += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RDblBrack, "⟧")?;
            v = Value::tag_app(v, tags, regions);
        }
        Ok(v)
    }

    fn value_atom(&mut self) -> PResult<Value> {
        match self.peek().cloned() {
            Some(Tok::Int(_)) | Some(Tok::Minus) => Ok(Value::Int(self.int()?)),
            Some(Tok::Nu(n)) => {
                self.i += 1;
                self.expect(Tok::Dot, ".")?;
                let loc = self.int()?;
                Ok(Value::Addr(RegionName(n), loc as u32))
            }
            Some(Tok::Ident(w)) if w == "cd" && self.peek2() == Some(&Tok::Dot) => {
                self.i += 2;
                let loc = self.int()?;
                Ok(Value::Addr(CD, loc as u32))
            }
            Some(Tok::Ident(w)) => {
                self.i += 1;
                Ok(Value::Var(Symbol::intern(&w)))
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let a = self.value()?;
                self.expect(Tok::Comma, ",")?;
                let b = self.value()?;
                self.expect(Tok::RParen, ")")?;
                Ok(Value::pair(a, b))
            }
            Some(Tok::LAngle) => {
                self.i += 1;
                let v = self.ident()?;
                match self.peek() {
                    Some(Tok::Colon) => {
                        self.i += 1;
                        if self.peek() == Some(&Tok::LBrace) {
                            // ⟨α:{Δ} = σ, v : σ⟩
                            let regions = self.region_set()?;
                            self.expect(Tok::Eq, "=")?;
                            let witness = self.ty()?;
                            self.expect(Tok::Comma, ",")?;
                            let val = self.value()?;
                            self.expect(Tok::Colon, ":")?;
                            let body_ty = self.ty()?;
                            self.expect(Tok::RAngle, "⟩")?;
                            Ok(Value::PackAlpha {
                                avar: v,
                                regions: regions.into(),
                                witness: witness.into(),
                                val: val.id(),
                                body_ty: body_ty.into(),
                            })
                        } else {
                            // ⟨t:κ = τ, v : σ⟩
                            let kind = self.kind()?;
                            self.expect(Tok::Eq, "=")?;
                            let tag = self.tag()?;
                            self.expect(Tok::Comma, ",")?;
                            let val = self.value()?;
                            self.expect(Tok::Colon, ":")?;
                            let body_ty = self.ty()?;
                            self.expect(Tok::RAngle, "⟩")?;
                            Ok(Value::PackTag {
                                tvar: v,
                                kind,
                                tag: tag.into(),
                                val: val.id(),
                                body_ty: body_ty.into(),
                            })
                        }
                    }
                    Some(Tok::MemberOf) => {
                        // ⟨r∈{Δ} = ρ, v : σ⟩
                        self.i += 1;
                        let bound = self.region_set()?;
                        self.expect(Tok::Eq, "=")?;
                        let witness = self.region()?;
                        self.expect(Tok::Comma, ",")?;
                        let val = self.value()?;
                        self.expect(Tok::Colon, ":")?;
                        let body_ty = self.ty()?;
                        self.expect(Tok::RAngle, "⟩")?;
                        Ok(Value::PackRgn {
                            rvar: v,
                            bound: bound.into(),
                            witness,
                            val: val.id(),
                            body_ty: body_ty.into(),
                        })
                    }
                    other => {
                        let other = other.cloned();
                        self.err(format!("expected : or ∈ in package, found {other:?}"))
                    }
                }
            }
            other => self.err(format!("expected value, found {other:?}")),
        }
    }

    // ---- operations / terms -------------------------------------------------

    fn op(&mut self) -> PResult<Op> {
        if let Some(Tok::Pi(i)) = self.peek() {
            let i = *i;
            self.i += 1;
            return Ok(Op::Proj(i, self.value()?));
        }
        if self.at_kw("put") {
            self.i += 1;
            self.expect(Tok::LBrack, "[")?;
            let rho = self.region()?;
            self.expect(Tok::RBrack, "]")?;
            return Ok(Op::Put(rho, self.value()?));
        }
        if self.at_kw("get") {
            self.i += 1;
            return Ok(Op::Get(self.value()?));
        }
        if self.at_kw("strip") {
            self.i += 1;
            return Ok(Op::Strip(self.value()?));
        }
        let a = self.value()?;
        let prim = match self.peek() {
            Some(Tok::Plus) => Some(PrimOp::Add),
            Some(Tok::Minus) => Some(PrimOp::Sub),
            Some(Tok::Times) => Some(PrimOp::Mul),
            _ => None,
        };
        if let Some(p) = prim {
            self.i += 1;
            let b = self.value()?;
            Ok(Op::Prim(p, a, b))
        } else {
            Ok(Op::Val(a))
        }
    }

    fn term(&mut self) -> PResult<Term> {
        if self.at_kw("let") {
            self.i += 1;
            if self.at_kw("region") {
                self.i += 1;
                let r = self.ident()?;
                if !self.kw("in") {
                    return self.err("expected in");
                }
                return Ok(Term::LetRegion {
                    rvar: r,
                    body: self.term()?.id(),
                });
            }
            let x = self.ident()?;
            self.expect(Tok::Eq, "=")?;
            if self.at_kw("widen") {
                self.i += 1;
                self.expect(Tok::LBrack, "[")?;
                let from = self.region()?;
                self.expect(Tok::Arrow, "→")?;
                let to = self.region()?;
                self.expect(Tok::RBrack, "]")?;
                self.expect(Tok::LBrack, "[")?;
                let tag = self.tag()?;
                self.expect(Tok::RBrack, "]")?;
                self.expect(Tok::LParen, "(")?;
                let v = self.value()?;
                self.expect(Tok::RParen, ")")?;
                if !self.kw("in") {
                    return self.err("expected in");
                }
                return Ok(Term::Widen {
                    x,
                    from,
                    to,
                    tag: tag.into(),
                    v,
                    body: self.term()?.id(),
                });
            }
            let op = self.op()?;
            if !self.kw("in") {
                return self.err("expected in");
            }
            return Ok(Term::let_(x, op, self.term()?));
        }
        if self.at_kw("halt") {
            self.i += 1;
            return Ok(Term::Halt(self.value()?));
        }
        if self.at_kw("ifgc") {
            self.i += 1;
            let rho = self.region()?;
            self.expect(Tok::LParen, "(")?;
            let full = self.term()?;
            self.expect(Tok::RParen, ")")?;
            let cont = self.term()?;
            return Ok(Term::IfGc {
                rho,
                full: full.id(),
                cont: cont.id(),
            });
        }
        if self.at_kw("only") {
            self.i += 1;
            let regions = self.region_set()?;
            if !self.kw("in") {
                return self.err("expected in");
            }
            return Ok(Term::Only {
                regions,
                body: self.term()?.id(),
            });
        }
        if self.at_kw("open") || self.at_kw("openα") || self.at_kw("openρ") {
            let which = match self.peek() {
                Some(Tok::Ident(w)) => w.clone(),
                _ => unreachable!(),
            };
            self.i += 1;
            let pkg = self.value()?;
            if !self.kw("as") {
                return self.err("expected as");
            }
            self.expect(Tok::LAngle, "⟨")?;
            let a = self.ident()?;
            self.expect(Tok::Comma, ",")?;
            let x = self.ident()?;
            self.expect(Tok::RAngle, "⟩")?;
            if !self.kw("in") {
                return self.err("expected in");
            }
            let body = self.term()?.id();
            return Ok(match which.as_str() {
                "open" => Term::OpenTag {
                    pkg,
                    tvar: a,
                    x,
                    body,
                },
                "openα" => Term::OpenAlpha {
                    pkg,
                    avar: a,
                    x,
                    body,
                },
                _ => Term::OpenRgn {
                    pkg,
                    rvar: a,
                    x,
                    body,
                },
            });
        }
        if self.at_kw("typecase") {
            self.i += 1;
            let tag = self.tag()?;
            if !self.kw("of") {
                return self.err("expected of");
            }
            if !self.kw("int") {
                return self.err("expected int arm");
            }
            self.expect(Tok::DArrow, "⇒")?;
            let int_arm = self.term()?;
            self.expect(Tok::Lambda, "λ")?;
            self.expect(Tok::DArrow, "⇒")?;
            let arrow_arm = self.term()?;
            let t1 = self.ident()?;
            self.expect(Tok::Times, "×")?;
            let t2 = self.ident()?;
            self.expect(Tok::DArrow, "⇒")?;
            let prod = self.term()?;
            self.expect(Tok::Exists, "∃")?;
            let te = self.ident()?;
            self.expect(Tok::DArrow, "⇒")?;
            let exist = self.term()?;
            return Ok(Term::Typecase {
                tag: tag.into(),
                int_arm: int_arm.id(),
                arrow_arm: arrow_arm.id(),
                prod_arm: (t1, t2, prod.id()),
                exist_arm: (te, exist.id()),
            });
        }
        if self.at_kw("ifleft") {
            self.i += 1;
            let x = self.ident()?;
            self.expect(Tok::Eq, "=")?;
            let scrut = self.value()?;
            if !self.kw("then") {
                return self.err("expected then");
            }
            let left = self.term()?;
            if !self.kw("else") {
                return self.err("expected else");
            }
            let right = self.term()?;
            return Ok(Term::IfLeft {
                x,
                scrut,
                left: left.id(),
                right: right.id(),
            });
        }
        if self.at_kw("set") {
            self.i += 1;
            let dst = self.value()?;
            self.expect(Tok::Assign, ":=")?;
            let src = self.value()?;
            self.expect(Tok::Semi, ";")?;
            return Ok(Term::Set {
                dst,
                src,
                body: self.term()?.id(),
            });
        }
        if self.at_kw("ifreg") {
            self.i += 1;
            self.expect(Tok::LParen, "(")?;
            let r1 = self.region()?;
            self.expect(Tok::Eq, "=")?;
            let r2 = self.region()?;
            self.expect(Tok::RParen, ")")?;
            if !self.kw("then") {
                return self.err("expected then");
            }
            let eq = self.term()?;
            if !self.kw("else") {
                return self.err("expected else");
            }
            let ne = self.term()?;
            return Ok(Term::IfReg {
                r1,
                r2,
                eq: eq.id(),
                ne: ne.id(),
            });
        }
        if self.at_kw("if0") {
            self.i += 1;
            let scrut = self.value()?;
            if !self.kw("then") {
                return self.err("expected then");
            }
            let zero = self.term()?;
            if !self.kw("else") {
                return self.err("expected else");
            }
            let nonzero = self.term()?;
            return Ok(Term::If0 {
                scrut,
                zero: zero.id(),
                nonzero: nonzero.id(),
            });
        }
        // A parenthesized term (needed for nested typecase arms).
        if self.peek() == Some(&Tok::LParen) {
            // Could also be the start of a pair value in an application…
            // applications start with a value, and `(v, v)[…]` is legal, so
            // try a term first and fall back.
            let save = self.i;
            self.i += 1;
            if let Ok(t) = self.term() {
                if self.peek() == Some(&Tok::RParen) {
                    self.i += 1;
                    return Ok(t);
                }
            }
            self.i = save;
        }
        // Application: v[tags][regions](args).
        let f = self.value()?;
        self.expect(Tok::LBrack, "[")?;
        let mut tags = Vec::new();
        if self.peek() != Some(&Tok::RBrack) {
            loop {
                tags.push(self.tag()?.id());
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrack, "]")?;
        self.expect(Tok::LBrack, "[")?;
        let mut regions = Vec::new();
        if self.peek() != Some(&Tok::RBrack) {
            loop {
                regions.push(self.region()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrack, "]")?;
        self.expect(Tok::LParen, "(")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.value()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, ")")?;
        Ok(Term::App {
            f,
            tags: tags.into(),
            regions,
            args,
        })
    }

    // ---- code definitions -----------------------------------------------

    fn code_def(&mut self) -> PResult<CodeDef> {
        if !self.kw("fix") {
            return self.err("expected fix");
        }
        let name = self.ident()?;
        self.expect(Tok::LBrack, "[")?;
        let mut tvars = Vec::new();
        if self.peek() != Some(&Tok::RBrack) {
            loop {
                let t = self.ident()?;
                self.expect(Tok::Colon, ":")?;
                let k = self.kind()?;
                tvars.push((t, k));
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrack, "]")?;
        let rvars = self.rvar_list()?;
        self.expect(Tok::LParen, "(")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let x = self.ident()?;
                self.expect(Tok::Colon, ":")?;
                let t = self.ty()?;
                params.push((x, t.id()));
                if self.peek() == Some(&Tok::Comma) {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, ")")?;
        self.expect(Tok::Dot, ".")?;
        let body = self.term()?;
        Ok(CodeDef {
            name,
            tvars,
            rvars,
            params,
            body,
        })
    }
}

/// Parses a term.
///
/// # Errors
///
/// Returns a [`GcParseError`] on malformed or trailing input.
pub fn parse_term(src: &str) -> PResult<Term> {
    let mut p = P {
        toks: lex(src)?,
        i: 0,
    };
    let t = p.term()?;
    if p.i != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(t)
}

/// Parses a type.
///
/// # Errors
///
/// Returns a [`GcParseError`] on malformed or trailing input.
pub fn parse_ty(src: &str) -> PResult<Ty> {
    let mut p = P {
        toks: lex(src)?,
        i: 0,
    };
    let t = p.ty()?;
    if p.i != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(t)
}

/// Parses a tag.
///
/// # Errors
///
/// Returns a [`GcParseError`] on malformed or trailing input.
pub fn parse_tag(src: &str) -> PResult<Tag> {
    let mut p = P {
        toks: lex(src)?,
        i: 0,
    };
    let t = p.tag()?;
    if p.i != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(t)
}

/// Parses a `fix …` code definition (the rendering of
/// [`crate::pretty::code_def`]).
///
/// # Errors
///
/// Returns a [`GcParseError`] on malformed or trailing input.
pub fn parse_code_def(src: &str) -> PResult<CodeDef> {
    let mut p = P {
        toks: lex(src)?,
        i: 0,
    };
    let d = p.code_def()?;
    if p.i != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(d)
}

/// Parses a sequence of `fix` definitions (a collector image listing).
///
/// # Errors
///
/// Returns a [`GcParseError`] on malformed input.
pub fn parse_code_defs(src: &str) -> PResult<Vec<CodeDef>> {
    let mut p = P {
        toks: lex(src)?,
        i: 0,
    };
    let mut out = Vec::new();
    while p.i < p.toks.len() {
        out.push(p.code_def()?);
    }
    Ok(out)
}
