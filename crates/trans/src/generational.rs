//! The λCLOS → λGCgen translation (§8's variant of Fig. 3).
//!
//! Functions take the region pair `[ry, ro]`; allocations go to the young
//! region and are wrapped in region packages
//! `⟨r ∈ {ry,ro} = ry, addr⟩ : ∃r∈{ry,ro}.(… at r)` so the mutator "does
//! not need to care whether an object is allocated in the young or the old
//! region" (§8); reads open the package first. The invariant that old
//! objects never point young holds trivially: the mutator only ever
//! allocates young.
//!
//! The region-package annotations need the component types of every
//! allocation, so this translation tracks λCLOS types as it goes (via
//! [`ps_clos::tyck`]'s value inference), in one [`ClosCtx`] that each
//! binder extends in place and restores on the way out.

use ps_ir::symbol::gensym;
use ps_ir::{Scope, Symbol};

use ps_clos::syntax::{CExp, CProgram, CTy, CVal};
use ps_clos::tyck::{infer_val, ClosCtx};
use ps_collectors::CollectorImage;
use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, Region, Tag, Term, Ty, Value, CD};

use crate::basic::{prim_of, tag_of};
use crate::TransError;

type TResult<T> = Result<T, TransError>;

struct Trans {
    labels: std::collections::HashMap<Symbol, u32>,
    gc_entry: u32,
    ry: Symbol,
    ro: Symbol,
}

impl Trans {
    fn ryv(&self) -> Region {
        Region::Var(self.ry)
    }
    fn rov(&self) -> Region {
        Region::Var(self.ro)
    }
    fn bound(&self) -> Vec<Region> {
        vec![self.ryv(), self.rov()]
    }

    /// `M_{r, ro}(τ)` with `r` a bound region-package variable.
    fn mg_at(&self, r: Symbol, tag: Tag) -> Ty {
        Ty::mgen(Region::Var(r), self.rov(), tag)
    }

    /// The mutator-view type of a λCLOS value: `M_{ry,ro}(τ)`.
    fn mg(&self, tag: Tag) -> Ty {
        Ty::mgen(self.ryv(), self.rov(), tag)
    }

    fn value(&self, ctx: &mut ClosCtx, v: &CVal, binds: &mut Vec<(Symbol, Op)>) -> TResult<Value> {
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
                let aty = infer_val(ctx, a).map_err(|e| TransError(e.0))?;
                let bty = infer_val(ctx, b).map_err(|e| TransError(e.0))?;
                let av = self.value(ctx, a, binds)?;
                let bv = self.value(ctx, b, binds)?;
                let x = gensym("p");
                let rp = gensym("rp");
                binds.push((x, Op::Put(self.ryv(), Value::pair(av, bv))));
                let body = Ty::prod(self.mg_at(rp, tag_of(&aty)), self.mg_at(rp, tag_of(&bty)));
                let pkg = Value::PackRgn {
                    rvar: rp,
                    bound: (self.bound()).into(),
                    witness: self.ryv(),
                    val: (Value::Var(x)).into(),
                    body_ty: body.into(),
                };
                let y = gensym("pg");
                binds.push((y, Op::Val(pkg)));
                Ok(Value::Var(y))
            }
            CVal::Pack {
                tvar,
                witness,
                val,
                body_ty,
            } => {
                let pv = self.value(ctx, val, binds)?;
                let inner = Value::PackTag {
                    tvar: *tvar,
                    kind: Kind::Omega,
                    tag: tag_of(witness).into(),
                    val: (pv).into(),
                    body_ty: self.mg(tag_of(body_ty)).into(),
                };
                let x = gensym("pk");
                binds.push((x, Op::Put(self.ryv(), inner)));
                let rp = gensym("rp");
                let pkg = Value::PackRgn {
                    rvar: rp,
                    bound: (self.bound()).into(),
                    witness: self.ryv(),
                    val: (Value::Var(x)).into(),
                    body_ty: Ty::exist_tag(*tvar, Kind::Omega, self.mg_at(rp, tag_of(body_ty)))
                        .into(),
                };
                let y = gensym("pkg");
                binds.push((y, Op::Val(pkg)));
                Ok(Value::Var(y))
            }
        }
    }

    fn wrap(binds: Vec<(Symbol, Op)>, body: Term) -> Term {
        binds
            .into_iter()
            .rev()
            .fold(body, |acc, (x, op)| Term::let_(x, op, acc))
    }

    fn exp(&self, ctx: &mut ClosCtx, e: &CExp) -> TResult<Term> {
        match e {
            CExp::Let { x, v, body } => {
                let ty = infer_val(ctx, v).map_err(|e| TransError(e.0))?;
                let mut binds = Vec::new();
                let gv = self.value(ctx, v, &mut binds)?;
                let body = self.exp_in(ctx, *x, ty, body)?;
                let rest = Term::let_(*x, Op::Val(gv), body);
                Ok(Self::wrap(binds, rest))
            }
            CExp::LetProj { x, i, v, body } => {
                let vty = infer_val(ctx, v).map_err(|e| TransError(e.0))?;
                let comp = match &vty {
                    CTy::Prod(a, b) => {
                        if *i == 1 {
                            (**a).clone()
                        } else {
                            (**b).clone()
                        }
                    }
                    other => return Err(TransError(format!("projection of non-pair {other}"))),
                };
                let mut binds = Vec::new();
                let gv = self.value(ctx, v, &mut binds)?;
                let body = self.exp_in(ctx, *x, comp, body)?;
                // open v as ⟨r, a⟩ in let y = get a in let x = πᵢ y in …
                let rp = gensym("ro");
                let a = gensym("a");
                let y = gensym("y");
                let rest = Term::OpenRgn {
                    pkg: gv,
                    rvar: rp,
                    x: a,
                    body: (Term::let_(
                        y,
                        Op::Get(Value::Var(a)),
                        Term::let_(*x, Op::Proj(*i, Value::Var(y)), body),
                    ))
                    .into(),
                };
                Ok(Self::wrap(binds, rest))
            }
            CExp::LetPrim { x, op, a, b, body } => {
                let mut binds = Vec::new();
                let av = self.value(ctx, a, &mut binds)?;
                let bv = self.value(ctx, b, &mut binds)?;
                let body = self.exp_in(ctx, *x, CTy::Int, body)?;
                let rest = Term::let_(*x, Op::Prim(prim_of(*op), av, bv), body);
                Ok(Self::wrap(binds, rest))
            }
            CExp::App(f, a) => {
                let mut binds = Vec::new();
                let fv = self.value(ctx, f, &mut binds)?;
                let av = self.value(ctx, a, &mut binds)?;
                Ok(Self::wrap(
                    binds,
                    Term::app(fv, [], [self.ryv(), self.rov()], [av]),
                ))
            }
            CExp::Open { pkg, tvar, x, body } => {
                let pty = infer_val(ctx, pkg).map_err(|e| TransError(e.0))?;
                let inner_ty = match &pty {
                    CTy::Exist(t0, b) => b.subst(*t0, &CTy::Var(*tvar)),
                    other => return Err(TransError(format!("open of non-existential {other}"))),
                };
                let mut binds = Vec::new();
                let pv = self.value(ctx, pkg, &mut binds)?;
                let shadowed = ctx.theta.bind(*tvar, ());
                let body = self.exp_in(ctx, *x, inner_ty, body);
                ctx.theta.unbind(*tvar, shadowed);
                let body = body?;
                let rp = gensym("ro");
                let a = gensym("a");
                let y = gensym("y");
                let rest = Term::OpenRgn {
                    pkg: pv,
                    rvar: rp,
                    x: a,
                    body: (Term::let_(
                        y,
                        Op::Get(Value::Var(a)),
                        Term::OpenTag {
                            pkg: Value::Var(y),
                            tvar: *tvar,
                            x: *x,
                            body: (body).into(),
                        },
                    ))
                    .into(),
                };
                Ok(Self::wrap(binds, rest))
            }
            CExp::Halt(v) => {
                let mut binds = Vec::new();
                let gv = self.value(ctx, v, &mut binds)?;
                Ok(Self::wrap(binds, Term::Halt(gv)))
            }
            CExp::If0 { v, zero, nonzero } => {
                let mut binds = Vec::new();
                let gv = self.value(ctx, v, &mut binds)?;
                Ok(Self::wrap(
                    binds,
                    Term::If0 {
                        scrut: gv,
                        zero: (self.exp(ctx, zero)?).into(),
                        nonzero: (self.exp(ctx, nonzero)?).into(),
                    },
                ))
            }
        }
    }

    /// Translates `body` with `x : ty` in `Γ`, then takes the binding back.
    fn exp_in(&self, ctx: &mut ClosCtx, x: Symbol, ty: CTy, body: &CExp) -> TResult<Term> {
        let shadowed = ctx.gamma.bind(x, ty);
        let term = self.exp(ctx, body);
        ctx.gamma.unbind(x, shadowed);
        term
    }

    fn function(&self, ctx: &mut ClosCtx, f: &ps_clos::syntax::CFun) -> TResult<CodeDef> {
        let off = self.labels[&f.name];
        let tag = tag_of(&f.param_ty);
        let body = self.exp_in(ctx, f.param, f.param_ty.clone(), &f.body)?;
        let guarded = Term::IfGc {
            rho: self.ryv(),
            full: (Term::app(
                Value::Addr(CD, self.gc_entry),
                [tag.clone()],
                [self.ryv(), self.rov()],
                [Value::Addr(CD, off), Value::Var(f.param)],
            ))
            .into(),
            cont: (body).into(),
        };
        Ok(CodeDef {
            name: f.name,
            tvars: vec![],
            rvars: vec![self.ry, self.ro],
            params: vec![(f.param, self.mg(tag))],
            body: guarded,
        })
    }
}

/// Translates a λCLOS program into λGCgen, linked with the generational
/// collector.
///
/// # Errors
///
/// Fails on ill-formed λCLOS input (typecheck it first).
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
        ry: gensym("ry"),
        ro: gensym("ro"),
    };
    let mut top = ClosCtx {
        funs: p.funs.iter().map(|f| (f.name, f.ty())).collect(),
        ..ClosCtx::default()
    };
    let mut code = collector.code.clone();
    for f in &p.funs {
        code.push(tr.function(&mut top, f)?);
    }
    // let region ro in let region ry in e′ — the old region outlives minor
    // collections; the young one is recreated by each gc.
    let main = Term::LetRegion {
        rvar: tr.ro,
        body: (Term::LetRegion {
            rvar: tr.ry,
            body: (tr.exp(&mut top, &p.main)?).into(),
        })
        .into(),
    };
    Ok(Program {
        dialect: Dialect::Generational,
        code,
        main,
    })
}
