//! The λCLOS → λGC translation of Fig. 3 (basic dialect).
//!
//! The translation is directed by the type translation `M_ρ`: every λCLOS
//! function `f = λ(x : τ).e` becomes a λGC code block
//!
//! ```text
//! λ[][r](x : M_r(τ)). ifgc r (gc[τ][r](cd.ℓ_f, x)) e′
//! ```
//!
//! — it takes the current region, checks whether a collection is needed
//! (passing *itself* as the return continuation, so the check is simply
//! redone after the collection, §5), and otherwise runs the translated
//! body, in which pairs and packages are `put` into the region and reads go
//! through `get`.
//!
//! Notice that "the garbage collector receives the tags as they were in
//! λCLOS rather than as they are translated" (§5): λCLOS types embed
//! directly into λGC tags via [`tag_of`].

use ps_ir::symbol::gensym;
use ps_ir::Symbol;

use ps_clos::syntax::{CExp, CProgram, CTy, CVal};
use ps_collectors::CollectorImage;
use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, PrimOp, Region, Tag, Term, Ty, Value, CD};

use crate::TransError;

/// Embeds a λCLOS type as a λGC tag (they share a grammar; §4.2).
pub fn tag_of(ty: &CTy) -> Tag {
    match ty {
        CTy::Int => Tag::Int,
        CTy::Var(t) => Tag::Var(*t),
        CTy::Prod(a, b) => Tag::prod(tag_of(a), tag_of(b)),
        CTy::Arrow(a) => Tag::arrow([tag_of(a)]),
        CTy::Exist(t, body) => Tag::exist(*t, tag_of(body)),
    }
}

/// Converts a λCLOS binary operator into a λGC primitive.
pub fn prim_of(op: ps_lambda::syntax::BinOp) -> PrimOp {
    match op {
        ps_lambda::syntax::BinOp::Add => PrimOp::Add,
        ps_lambda::syntax::BinOp::Sub => PrimOp::Sub,
        ps_lambda::syntax::BinOp::Mul => PrimOp::Mul,
    }
}

struct Trans<'a> {
    /// Function name → cd offset.
    labels: std::collections::HashMap<Symbol, u32>,
    /// The collector's `gc` entry offset.
    gc_entry: u32,
    /// The current region variable `r`.
    r: Symbol,
    program: &'a CProgram,
}

type TResult<T> = Result<T, TransError>;

impl<'a> Trans<'a> {
    fn rv(&self) -> Region {
        Region::Var(self.r)
    }

    /// Translates a λCLOS value. Compound values need allocation, so the
    /// result is a λGC value together with prefix bindings (§5's "turning
    /// such code back into the strict λGC is immediate").
    fn value(&self, v: &CVal, binds: &mut Vec<(Symbol, Op)>) -> TResult<Value> {
        match v {
            CVal::Int(n) => Ok(Value::Int(*n)),
            CVal::Var(x) => Ok(Value::Var(*x)),
            CVal::FnName(f) => {
                let off = self
                    .labels
                    .get(f)
                    .ok_or_else(|| TransError(format!("unknown function {f}")))?;
                Ok(Value::Addr(CD, *off))
            }
            CVal::Pair(a, b) => {
                let av = self.value(a, binds)?;
                let bv = self.value(b, binds)?;
                let x = gensym("p");
                binds.push((x, Op::Put(self.rv(), Value::pair(av, bv))));
                Ok(Value::Var(x))
            }
            CVal::Pack {
                tvar,
                witness,
                val,
                body_ty,
            } => {
                let pv = self.value(val, binds)?;
                let x = gensym("pk");
                let pack = Value::PackTag {
                    tvar: *tvar,
                    kind: Kind::Omega,
                    tag: tag_of(witness).into(),
                    val: (pv).into(),
                    body_ty: Ty::m(self.rv(), tag_of(body_ty)).into(),
                };
                binds.push((x, Op::Put(self.rv(), pack)));
                Ok(Value::Var(x))
            }
        }
    }

    fn wrap(binds: Vec<(Symbol, Op)>, body: Term) -> Term {
        binds
            .into_iter()
            .rev()
            .fold(body, |acc, (x, op)| Term::let_(x, op, acc))
    }

    fn exp(&self, e: &CExp) -> TResult<Term> {
        match e {
            CExp::Let { x, v, body } => {
                let mut binds = Vec::new();
                let gv = self.value(v, &mut binds)?;
                let rest = Term::let_(*x, Op::Val(gv), self.exp(body)?);
                Ok(Self::wrap(binds, rest))
            }
            CExp::LetProj { x, i, v, body } => {
                // let x = πᵢ (get v) in e
                let mut binds = Vec::new();
                let gv = self.value(v, &mut binds)?;
                let tmp = gensym("g");
                let rest = Term::let_(
                    tmp,
                    Op::Get(gv),
                    Term::let_(*x, Op::Proj(*i, Value::Var(tmp)), self.exp(body)?),
                );
                Ok(Self::wrap(binds, rest))
            }
            CExp::LetPrim { x, op, a, b, body } => {
                let mut binds = Vec::new();
                let av = self.value(a, &mut binds)?;
                let bv = self.value(b, &mut binds)?;
                let rest = Term::let_(*x, Op::Prim(prim_of(*op), av, bv), self.exp(body)?);
                Ok(Self::wrap(binds, rest))
            }
            CExp::App(f, a) => {
                // v₁(v₂) ⇒ v₁′[][r](v₂′)
                let mut binds = Vec::new();
                let fv = self.value(f, &mut binds)?;
                let av = self.value(a, &mut binds)?;
                Ok(Self::wrap(binds, Term::app(fv, [], [self.rv()], [av])))
            }
            CExp::Open { pkg, tvar, x, body } => {
                // open (get v′) as ⟨t, x⟩ in e′
                let mut binds = Vec::new();
                let pv = self.value(pkg, &mut binds)?;
                let tmp = gensym("g");
                let rest = Term::let_(
                    tmp,
                    Op::Get(pv),
                    Term::OpenTag {
                        pkg: Value::Var(tmp),
                        tvar: *tvar,
                        x: *x,
                        body: (self.exp(body)?).into(),
                    },
                );
                Ok(Self::wrap(binds, rest))
            }
            CExp::Halt(v) => {
                let mut binds = Vec::new();
                let gv = self.value(v, &mut binds)?;
                Ok(Self::wrap(binds, Term::Halt(gv)))
            }
            CExp::If0 { v, zero, nonzero } => {
                let mut binds = Vec::new();
                let gv = self.value(v, &mut binds)?;
                Ok(Self::wrap(
                    binds,
                    Term::If0 {
                        scrut: gv,
                        zero: (self.exp(zero)?).into(),
                        nonzero: (self.exp(nonzero)?).into(),
                    },
                ))
            }
        }
    }

    fn function(&self, f: &ps_clos::syntax::CFun) -> TResult<CodeDef> {
        let off = self.labels[&f.name];
        let tag = tag_of(&f.param_ty);
        let body = self.exp(&f.body)?;
        // ifgc r (gc[τ][r](cd.ℓ_f, x)) e′
        let guarded = Term::IfGc {
            rho: self.rv(),
            full: (Term::app(
                Value::Addr(CD, self.gc_entry),
                [tag.clone()],
                [self.rv()],
                [Value::Addr(CD, off), Value::Var(f.param)],
            ))
            .into(),
            cont: (body).into(),
        };
        Ok(CodeDef {
            name: f.name,
            tvars: vec![],
            rvars: vec![self.r],
            params: vec![(f.param, Ty::m(self.rv(), tag))],
            body: guarded,
        })
    }
}

/// Translates a λCLOS program into a λGC program linked with the given
/// collector (Fig. 3).
///
/// The collector's blocks occupy cd offsets `0..collector.code.len()`;
/// translated functions follow.
///
/// # Errors
///
/// Fails on references to unknown functions (ill-formed input).
pub fn translate(p: &CProgram, collector: &CollectorImage) -> TResult<Program> {
    let base = collector.code.len() as u32;
    let labels: std::collections::HashMap<Symbol, u32> = p
        .funs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name, base + i as u32))
        .collect();
    let tr = Trans {
        labels,
        gc_entry: collector.gc_entry,
        r: gensym("r"),
        program: p,
    };
    let _ = tr.program;
    let mut code = collector.code.clone();
    for f in &p.funs {
        code.push(tr.function(f)?);
    }
    // The main term allocates the initial region (Fig. 3's program rule).
    let main = Term::LetRegion {
        rvar: tr.r,
        body: (tr.exp(&p.main)?).into(),
    };
    Ok(Program {
        dialect: Dialect::Basic,
        code,
        main,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_embed_types() {
        let t = Symbol::intern("t");
        let ty = CTy::exist(
            t,
            CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), CTy::Int)), CTy::Var(t)),
        );
        let tag = tag_of(&ty);
        match tag {
            Tag::Exist(_, body) => match &*body {
                Tag::Prod(code, env) => {
                    assert!(matches!(**code, Tag::Arrow(_)));
                    assert!(matches!(**env, Tag::Var(_)));
                }
                other => panic!("bad embedding {other:?}"),
            },
            other => panic!("bad embedding {other:?}"),
        }
    }
}
