//! The λCLOS → λGCforw translation (§7's variant of Fig. 3).
//!
//! Identical to the basic translation except that the mutator maintains the
//! forwarding invariant the `M` operator of §7 imposes: every heap object
//! carries the spare tag bit, so allocations wrap their payload in `inl`
//! and reads `strip` it. The mutator never checks the bit — `strip` works
//! directly on `left σ` ("without the `right σ` alternative, to avoid the
//! need for checks"); only the collector's `ifleft` ever branches on it.

use ps_ir::symbol::gensym;
use ps_ir::Symbol;

use ps_clos::syntax::{CExp, CProgram, CVal};
use ps_collectors::CollectorImage;
use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, Region, Term, Ty, Value, CD};

use crate::basic::tag_of;
use crate::TransError;

type TResult<T> = Result<T, TransError>;

struct Trans {
    labels: std::collections::HashMap<Symbol, u32>,
    gc_entry: u32,
    r: Symbol,
}

impl Trans {
    fn rv(&self) -> Region {
        Region::Var(self.r)
    }

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
                // put[r](inl (a, b)) — the mutator provides the tag bit.
                binds.push((x, Op::Put(self.rv(), Value::inl(Value::pair(av, bv)))));
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
                binds.push((x, Op::Put(self.rv(), Value::inl(pack))));
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

    /// `get` then `strip` — the mutator's read path.
    fn read(&self, v: Value, k: impl FnOnce(Symbol) -> Term) -> Term {
        let g = gensym("g");
        let sv = gensym("sv");
        Term::let_(
            g,
            Op::Get(v),
            Term::let_(sv, Op::Strip(Value::Var(g)), k(sv)),
        )
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
                let mut binds = Vec::new();
                let gv = self.value(v, &mut binds)?;
                let body = self.exp(body)?;
                let i = *i;
                let x = *x;
                let rest = self.read(gv, |sv| Term::let_(x, Op::Proj(i, Value::Var(sv)), body));
                Ok(Self::wrap(binds, rest))
            }
            CExp::LetPrim { x, op, a, b, body } => {
                let mut binds = Vec::new();
                let av = self.value(a, &mut binds)?;
                let bv = self.value(b, &mut binds)?;
                let rest = Term::let_(
                    *x,
                    Op::Prim(crate::basic::prim_of(*op), av, bv),
                    self.exp(body)?,
                );
                Ok(Self::wrap(binds, rest))
            }
            CExp::App(f, a) => {
                let mut binds = Vec::new();
                let fv = self.value(f, &mut binds)?;
                let av = self.value(a, &mut binds)?;
                Ok(Self::wrap(binds, Term::app(fv, [], [self.rv()], [av])))
            }
            CExp::Open { pkg, tvar, x, body } => {
                let mut binds = Vec::new();
                let pv = self.value(pkg, &mut binds)?;
                let body = self.exp(body)?;
                let tvar = *tvar;
                let x = *x;
                let rest = self.read(pv, |sv| Term::OpenTag {
                    pkg: Value::Var(sv),
                    tvar,
                    x,
                    body: (body).into(),
                });
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

/// Translates a λCLOS program into λGCforw, linked with the forwarding
/// collector.
///
/// # Errors
///
/// Fails on references to unknown functions (ill-formed input).
pub fn translate(p: &CProgram, collector: &CollectorImage) -> TResult<Program> {
    let base = collector.code.len() as u32;
    let labels = p
        .funs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name, base + i as u32))
        .collect();
    let tr = Trans {
        labels,
        gc_entry: collector.gc_entry,
        r: gensym("r"),
    };
    let mut code = collector.code.clone();
    for f in &p.funs {
        code.push(tr.function(f)?);
    }
    let main = Term::LetRegion {
        rvar: tr.r,
        body: (tr.exp(&p.main)?).into(),
    };
    Ok(Program {
        dialect: Dialect::Forwarding,
        code,
        main,
    })
}
