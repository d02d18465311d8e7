//! # ps-trans — the λCLOS → λGC translation (Fig. 3)
//!
//! Links mutator programs with the type-safe collectors of
//! [`ps_collectors`]. The translation is directed by the type translation
//! `M_ρ`: every λCLOS function `f = λ(x : τ).e` becomes a λGC code block
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
//! One walker translates for all three collectors. The dialect of the
//! collector image decides the paper's three changes to Fig. 3, and
//! nothing else:
//!
//! | dialect | regions | allocation | read |
//! |---|---|---|---|
//! | λGC (Fig. 3) | `[r]`, `M_r(τ)` | `put v` | `get` |
//! | λGCforw (§7) | `[r]`, `M_r(τ)` | `put (inl v)` | `get; strip` |
//! | λGCgen (§8) | `[ry, ro]`, `M_{ry,ro}(τ)` | `put[ry] v`, then a region package | `open ⟨r, a⟩; get` |
//!
//! §7's mutator provides the forwarding tag bit at every allocation and
//! `strip`s it at every read without checking it; only the collector's
//! `ifleft` branches on it. §8's mutator allocates young and wraps each
//! object in a region package `⟨r ∈ {ry,ro} = ry, a⟩`, so it "does not
//! need to care whether an object is allocated in the young or the old
//! region"; old objects never point young because the mutator never
//! allocates old. The region packages need the component types of every
//! allocation, so under that convention the walker tracks λCLOS types as
//! it goes (via [`ps_clos::tyck`]'s value inference), in one [`ClosCtx`]
//! that each binder extends in place and restores on the way out.
//!
//! "The garbage collector receives the tags as they were in λCLOS rather
//! than as they are translated" (§5): λCLOS types embed directly into λGC
//! tags via [`tag_of`].

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

use ps_clos::syntax::{CExp, CFun, CProgram, CTy, CVal};
use ps_clos::tyck::{infer_val, ClosCtx};
use ps_collectors::CollectorImage;
use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, PrimOp, Region, Tag, Term, Ty, Value, CD};
use ps_ir::symbol::gensym;
use ps_ir::{Scope, Symbol};

/// The dialect-named path to [`translate`]; the collector image picks the
/// dialect.
pub mod basic {
    pub use crate::translate;
}

/// The dialect-named path to [`translate`]; the collector image picks the
/// dialect.
pub mod forwarding {
    pub use crate::translate;
}

/// The dialect-named path to [`translate`]; the collector image picks the
/// dialect.
pub mod generational {
    pub use crate::translate;
}

/// An error raised by a translation (only on ill-formed λCLOS input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransError(pub String);

impl fmt::Display for TransError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.0)
    }
}

impl std::error::Error for TransError {}

type TResult<T> = Result<T, TransError>;

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

fn prim_of(op: ps_lambda::syntax::BinOp) -> PrimOp {
    match op {
        ps_lambda::syntax::BinOp::Add => PrimOp::Add,
        ps_lambda::syntax::BinOp::Sub => PrimOp::Sub,
        ps_lambda::syntax::BinOp::Mul => PrimOp::Mul,
    }
}

/// Prefix bindings that allocate a translated value's parts (§5's
/// "turning such code back into the strict λGC is immediate").
type Binds = Vec<(Symbol, Op)>;

struct Trans {
    dialect: Dialect,
    /// Function name → cd offset.
    labels: HashMap<Symbol, u32>,
    /// The collector's `gc` entry offset.
    gc_entry: u32,
    /// The region the mutator allocates in: `r`, or `ry`.
    r: Symbol,
    /// The old region `ro` of the generational convention.
    ro: Option<Symbol>,
    /// `Γ` and `Θ` at the current point, tracked only when `ro` is set.
    types: ClosCtx,
}

impl Trans {
    /// The region parameters of every translated function: `[r]`, or
    /// `[ry, ro]`.
    fn region_params(&self) -> impl Iterator<Item = Symbol> {
        std::iter::once(self.r).chain(self.ro)
    }

    fn regions(&self) -> impl Iterator<Item = Region> {
        self.region_params().map(Region::Var)
    }

    /// `M_r(τ)`, or `M_{r,ro}(τ)` under the generational convention.
    fn m(&self, r: Symbol, tag: Tag) -> Ty {
        match self.ro {
            Some(ro) => Ty::mgen(Region::Var(r), Region::Var(ro), tag),
            None => Ty::m(Region::Var(r), tag),
        }
    }

    /// The λCLOS type of `v` (types are tracked only under the
    /// generational convention).
    fn infer(&mut self, v: &CVal) -> TResult<CTy> {
        infer_val(&mut self.types, v).map_err(|e| TransError(e.0))
    }

    fn value(&mut self, v: &CVal, binds: &mut Binds) -> TResult<Value> {
        match v {
            CVal::Int(n) => Ok(Value::Int(*n)),
            CVal::Var(x) => Ok(Value::Var(*x)),
            CVal::FnName(f) => self
                .labels
                .get(f)
                .map(|&off| Value::Addr(CD, off))
                .ok_or_else(|| TransError(format!("unknown function {f}"))),
            CVal::Pair(a, b) => {
                let av = self.value(a, binds)?;
                let bv = self.value(b, binds)?;
                self.alloc(Value::pair(av, bv), ["p", "pg"], binds, |tr, rp| {
                    let (ta, tb) = (tr.infer(a)?, tr.infer(b)?);
                    Ok(Ty::prod(tr.m(rp, tag_of(&ta)), tr.m(rp, tag_of(&tb))))
                })
            }
            CVal::Pack {
                tvar,
                witness,
                val,
                body_ty,
            } => {
                let pv = self.value(val, binds)?;
                let pack = Value::PackTag {
                    tvar: *tvar,
                    kind: Kind::Omega,
                    tag: tag_of(witness).into(),
                    val: pv.into(),
                    body_ty: self.m(self.r, tag_of(body_ty)).into(),
                };
                self.alloc(pack, ["pk", "pkg"], binds, |tr, rp| {
                    Ok(Ty::exist_tag(*tvar, Kind::Omega, tr.m(rp, tag_of(body_ty))))
                })
            }
        }
    }

    /// Allocates the pair or package `obj` and returns the mutator's handle
    /// on it: `put[r] obj`, `put[r] (inl obj)`, or `put[ry] obj` wrapped in
    /// the region package `⟨rp ∈ {ry,ro} = ry, x⟩`, whose body
    /// `body_ty(rp)` types `obj` at `rp`. `names` are the bindings' stems.
    fn alloc(
        &mut self,
        obj: Value,
        names: [&str; 2],
        binds: &mut Binds,
        body_ty: impl FnOnce(&mut Self, Symbol) -> TResult<Ty>,
    ) -> TResult<Value> {
        let x = gensym(names[0]);
        let obj = match self.dialect {
            Dialect::Forwarding => Value::inl(obj),
            Dialect::Basic | Dialect::Generational => obj,
        };
        binds.push((x, Op::Put(Region::Var(self.r), obj)));
        if self.ro.is_none() {
            return Ok(Value::Var(x));
        }
        let rp = gensym("rp");
        let body_ty = body_ty(self, rp)?;
        let pkg = Value::PackRgn {
            rvar: rp,
            bound: self.regions().collect(),
            witness: Region::Var(self.r),
            val: Value::Var(x).into(),
            body_ty: body_ty.into(),
        };
        let y = gensym(names[1]);
        binds.push((y, Op::Val(pkg)));
        Ok(Value::Var(y))
    }

    /// Reads the object `v` points to, then continues with
    /// `k(object, body)`: `let g = get v`, `let g = get v; let sv = strip g`,
    /// or `open v as ⟨rp, a⟩ in let y = get a`. `body` translates the rest.
    fn read(
        &mut self,
        v: Value,
        body: impl FnOnce(&mut Self) -> TResult<Term>,
        k: impl FnOnce(Value, Term) -> Term,
    ) -> TResult<Term> {
        // λGC names its temporary before the body is translated, the other
        // dialects after; each keeps the gensym numbering it always had.
        Ok(match self.dialect {
            Dialect::Basic => {
                let g = gensym("g");
                let body = body(self)?;
                Term::let_(g, Op::Get(v), k(Value::Var(g), body))
            }
            Dialect::Forwarding => {
                let body = body(self)?;
                let (g, sv) = (gensym("g"), gensym("sv"));
                let stripped = Term::let_(sv, Op::Strip(Value::Var(g)), k(Value::Var(sv), body));
                Term::let_(g, Op::Get(v), stripped)
            }
            Dialect::Generational => {
                let body = body(self)?;
                let (rp, a, y) = (gensym("ro"), gensym("a"), gensym("y"));
                Term::OpenRgn {
                    pkg: v,
                    rvar: rp,
                    x: a,
                    body: Term::let_(y, Op::Get(Value::Var(a)), k(Value::Var(y), body)).into(),
                }
            }
        })
    }

    fn exp(&mut self, e: &CExp) -> TResult<Term> {
        let mut binds = Binds::new();
        let term = match e {
            CExp::Let { x, v, body } => {
                let gv = self.value(v, &mut binds)?;
                let body = self.exp_in(*x, None, |tr| tr.infer(v), body)?;
                Term::let_(*x, Op::Val(gv), body)
            }
            CExp::LetProj { x, i, v, body } => {
                // let x = πᵢ (get v) in e
                let gv = self.value(v, &mut binds)?;
                let ty = |tr: &mut Self| match tr.infer(v)? {
                    CTy::Prod(a, b) => Ok(CTy::clone(if *i == 1 { &a } else { &b })),
                    other => Err(TransError(format!("projection of non-pair {other}"))),
                };
                self.read(
                    gv,
                    |tr| tr.exp_in(*x, None, ty, body),
                    |obj, body| Term::let_(*x, Op::Proj(*i, obj), body),
                )?
            }
            CExp::LetPrim { x, op, a, b, body } => {
                let av = self.value(a, &mut binds)?;
                let bv = self.value(b, &mut binds)?;
                let body = self.exp_in(*x, None, |_| Ok(CTy::Int), body)?;
                Term::let_(*x, Op::Prim(prim_of(*op), av, bv), body)
            }
            CExp::App(f, a) => {
                // v₁(v₂) ⇒ v₁′[][r](v₂′)
                let fv = self.value(f, &mut binds)?;
                let av = self.value(a, &mut binds)?;
                Term::app(fv, [], self.regions(), [av])
            }
            CExp::Open { pkg, tvar, x, body } => {
                // open (get v′) as ⟨t, x⟩ in e′
                let pv = self.value(pkg, &mut binds)?;
                let ty = |tr: &mut Self| match tr.infer(pkg)? {
                    CTy::Exist(t0, b) => Ok(b.subst(t0, &CTy::Var(*tvar))),
                    other => Err(TransError(format!("open of non-existential {other}"))),
                };
                self.read(
                    pv,
                    |tr| tr.exp_in(*x, Some(*tvar), ty, body),
                    |obj, body| Term::OpenTag {
                        pkg: obj,
                        tvar: *tvar,
                        x: *x,
                        body: body.into(),
                    },
                )?
            }
            CExp::Halt(v) => Term::Halt(self.value(v, &mut binds)?),
            CExp::If0 { v, zero, nonzero } => Term::If0 {
                scrut: self.value(v, &mut binds)?,
                zero: self.exp(zero)?.into(),
                nonzero: self.exp(nonzero)?.into(),
            },
        };
        Ok(binds
            .into_iter()
            .rev()
            .fold(term, |acc, (x, op)| Term::let_(x, op, acc)))
    }

    /// Translates `body` with `x : ty` in `Γ` (and `tvar` in `Θ`), then
    /// takes the bindings back. `ty` runs, in the outer `Θ`, only when
    /// types are tracked.
    fn exp_in(
        &mut self,
        x: Symbol,
        tvar: Option<Symbol>,
        ty: impl FnOnce(&mut Self) -> TResult<CTy>,
        body: &CExp,
    ) -> TResult<Term> {
        if self.ro.is_none() {
            return self.exp(body);
        }
        let ty = ty(self)?;
        let theta = tvar.map(|t| (t, self.types.theta.bind(t, ())));
        let gamma = self.types.gamma.bind(x, ty);
        let term = self.exp(body);
        self.types.gamma.unbind(x, gamma);
        if let Some((t, shadowed)) = theta {
            self.types.theta.unbind(t, shadowed);
        }
        term
    }

    fn function(&mut self, f: &CFun) -> TResult<CodeDef> {
        let off = self.labels[&f.name];
        let tag = tag_of(&f.param_ty);
        let body = self.exp_in(f.param, None, |_| Ok(f.param_ty.clone()), &f.body)?;
        // ifgc r (gc[τ][r](cd.ℓ_f, x)) e′
        let guarded = Term::IfGc {
            rho: Region::Var(self.r),
            full: Term::app(
                Value::Addr(CD, self.gc_entry),
                [tag.clone()],
                self.regions(),
                [Value::Addr(CD, off), Value::Var(f.param)],
            )
            .into(),
            cont: body.into(),
        };
        Ok(CodeDef {
            name: f.name,
            tvars: vec![],
            rvars: self.region_params().collect(),
            params: vec![(f.param, self.m(self.r, tag).id())],
            body: guarded,
        })
    }
}

/// Translates a λCLOS program into the dialect of `collector` and links it
/// with that collector (Fig. 3, or its §7/§8 variant).
///
/// The collector's blocks occupy cd offsets `0..collector.code.len()`;
/// translated functions follow.
///
/// # Errors
///
/// Fails on ill-formed λCLOS input, such as a reference to an unknown
/// function (typecheck it first).
pub fn translate(p: &CProgram, collector: &CollectorImage) -> TResult<Program> {
    let dialect = collector.dialect;
    let base = collector.code.len() as u32;
    let labels = p
        .funs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name, base + i as u32))
        .collect();
    let (r, ro) = match dialect {
        Dialect::Generational => (gensym("ry"), Some(gensym("ro"))),
        Dialect::Basic | Dialect::Forwarding => (gensym("r"), None),
    };
    let types = ClosCtx {
        funs: ro.map_or_else(HashMap::new, |_| {
            p.funs.iter().map(|f| (f.name, f.ty())).collect()
        }),
        ..ClosCtx::default()
    };
    let mut tr = Trans {
        dialect,
        labels,
        gc_entry: collector.gc_entry,
        r,
        ro,
        types,
    };
    let mut code = collector.code.clone();
    for f in &p.funs {
        code.push(tr.function(f)?);
    }
    // The main term allocates the initial region (Fig. 3's program rule).
    // Under the generational convention the old region encloses the young
    // one: it outlives minor collections, and each gc recreates `ry`.
    let mut main = Term::LetRegion {
        rvar: r,
        body: tr.exp(&p.main)?.into(),
    };
    if let Some(ro) = ro {
        main = Term::LetRegion {
            rvar: ro,
            body: main.into(),
        };
    }
    Ok(Program {
        dialect,
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
