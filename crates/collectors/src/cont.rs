//! The continuation machinery shared by the CPS-converted collectors.
//!
//! §6.1 explains that the direct-style `copy` of Fig. 4 hides a stack; the
//! executable collector (Fig. 12) is its CPS and closure conversion, whose
//! continuations are closed with a form of *translucent type*:
//!
//! ```text
//! tc[τ] ≡ ∀⟦t₁,t₂,tₑ⟧[r₁,r₂,r₃](M_{r₂}(τ), αc) →cd 0 × αc
//! tk[τ] ≡ (∃t₁:Ω.∃t₂:Ω.∃tₑ:Ω→Ω.∃αc:{r₁,r₂,r₃}.tc[τ]) at r₃
//! ```
//!
//! A continuation is a pair of a code pointer already specialized to the
//! three tags it closed over (`v⟦t₁,t₂,tₑ⟧`) and its environment, hidden
//! behind `∃αc`. "Since some continuations require t₁,t₂ of kind Ω,Ω while
//! others only need t₁,tₑ, we unify the two into t₁,t₂,tₑ where some of the
//! arguments are simply left unused" (Appendix B).
//!
//! This module builds the types (`tc`, `tk`), the four-deep packing of a
//! continuation value, and the "invoke k" code sequence, parameterized so
//! the basic, forwarding and generational collectors can all reuse them.

use ps_ir::Symbol;

use ps_gc_lang::subst::Subst;
use ps_gc_lang::syntax::{Kind, Op, Region, Tag, Term, Ty, Value};

/// Fixed binder names for the continuation existentials (they live in their
/// own scopes, so fixed names are fine and match Fig. 12's).
pub fn t1g() -> Symbol {
    Symbol::intern("t1!k")
}
pub fn t2g() -> Symbol {
    Symbol::intern("t2!k")
}
pub fn teg() -> Symbol {
    Symbol::intern("te!k")
}
pub fn acg() -> Symbol {
    Symbol::intern("ac!k")
}

/// Shared parameters of the continuation types: the region binders the
/// collector's blocks take (from-space, to-space, …, continuation region —
/// the continuation region is always last) and the type of the value a
/// continuation at target tag `τ` receives.
#[derive(Clone)]
pub struct ContShape {
    /// The collector's region parameters, in order; the last one is the
    /// continuation region.
    pub regions: Vec<Symbol>,
    /// Builds the type of the value handed to a continuation at target tag
    /// `τ` — `M_{r₂}(τ)` for the basic and forwarding collectors,
    /// `M_{ro,ro}(τ)` for the generational one.
    pub recv_ty: fn(&ContShape, &Tag) -> Ty,
}

impl ContShape {
    /// The continuation region (where `tk` packages are allocated). Every
    /// shape is built with at least one region; an empty list falls back to
    /// `cd`, which the typechecker then rejects.
    pub fn cont_region(&self) -> Region {
        self.regions
            .last()
            .map_or(Region::Name(ps_gc_lang::syntax::CD), |r| Region::Var(*r))
    }

    /// The region set confining continuation environments.
    pub fn delta(&self) -> Vec<Region> {
        self.regions.iter().map(|r| Region::Var(*r)).collect()
    }

    /// The type `tc[target]` — the unpacked continuation pair. The Trans
    /// component records the (generic) tag variables; its region binders
    /// deliberately reuse `r₁,r₂,r₃`, exactly as Fig. 12 writes it, so that
    /// `αc`'s confinement set is in scope inside the translucent type.
    pub fn tc(&self, target: &Tag) -> Ty {
        let recv = (self.recv_ty)(self, target);
        Ty::prod(
            Ty::Trans {
                tags: [Tag::Var(t1g()), Tag::Var(t2g()), Tag::Var(teg())]
                    .into_iter()
                    .map(|t| t.id())
                    .collect(),
                regions: self.delta().into(),
                args: [recv, Ty::Alpha(acg())]
                    .into_iter()
                    .map(|a| a.id())
                    .collect(),
                rho: Region::cd(),
            },
            Ty::Alpha(acg()),
        )
    }

    /// The type `tk[target]` — the packed continuation, allocated in the
    /// continuation region.
    pub fn tk(&self, target: &Tag) -> Ty {
        self.tk_body(target).at(self.cont_region())
    }

    /// `tk[target]` without the outer `at r₃` (the stored-value type).
    pub fn tk_body(&self, target: &Tag) -> Ty {
        Ty::exist_tag(
            t1g(),
            Kind::Omega,
            Ty::exist_tag(
                t2g(),
                Kind::Omega,
                Ty::exist_tag(
                    teg(),
                    Kind::Arrow,
                    Ty::exist_alpha(acg(), self.delta(), self.tc(target)),
                ),
            ),
        )
    }

    /// Builds the four-deep continuation package
    /// `⟨t₁=w₁, ⟨t₂=w₂, ⟨tₑ=wₑ, ⟨αc:{r̄}=σ_env, (code⟦w̄⟧, env) : tc[target]⟩⟩⟩⟩`.
    ///
    /// `code` must be a `cd` address whose block has exactly the binders
    /// `[t₁:Ω, t₂:Ω, tₑ:Ω→Ω][r₁,r₂,r₃]` and parameters
    /// `(recv : …, env : …)` matching `tc[target]` at the witnesses.
    pub fn pack(
        &self,
        code: Value,
        witnesses: [Tag; 3],
        env_ty: Ty,
        env_val: Value,
        target: &Tag,
    ) -> Value {
        let [w1, w2, we] = witnesses;
        let tc_generic = self.tc(target);
        let sub1 = Subst::one_tag(t1g(), w1.clone());
        let sub12 = sub1.clone().with_tag(t2g(), w2.clone());
        let sub123 = sub12.clone().with_tag(teg(), we.clone());

        let payload = Value::pair(
            Value::tag_app(code, [w1.clone(), w2.clone(), we.clone()], self.delta()),
            env_val,
        );
        let pack_alpha = Value::PackAlpha {
            avar: acg(),
            regions: (self.delta()).into(),
            witness: env_ty.into(),
            val: (payload).into(),
            body_ty: sub123.ty(&tc_generic).into(),
        };
        let pack_te = Value::PackTag {
            tvar: teg(),
            kind: Kind::Arrow,
            tag: we.into(),
            val: (pack_alpha).into(),
            body_ty: Ty::exist_alpha(acg(), self.delta(), sub12.ty(&tc_generic)).into(),
        };
        let pack_t2 = Value::PackTag {
            tvar: t2g(),
            kind: Kind::Omega,
            tag: w2.into(),
            val: (pack_te).into(),
            body_ty: Ty::exist_tag(
                teg(),
                Kind::Arrow,
                Ty::exist_alpha(acg(), self.delta(), sub1.ty(&tc_generic)),
            )
            .into(),
        };
        Value::PackTag {
            tvar: t1g(),
            kind: Kind::Omega,
            tag: w1.into(),
            val: (pack_t2).into(),
            // The body *under* the ∃t₁ binder (t₁ free in the generic tc).
            body_ty: Ty::exist_tag(
                t2g(),
                Kind::Omega,
                Ty::exist_tag(
                    teg(),
                    Kind::Arrow,
                    Ty::exist_alpha(acg(), self.delta(), tc_generic.clone()),
                ),
            )
            .into(),
        }
    }

    /// Emits the "invoke continuation" sequence of Fig. 12:
    ///
    /// ```text
    /// open (get k) as ⟨t₁,t₂,tₑ,αc,c⟩ in (π₁ c)[t₁,t₂,tₑ][r₁,r₂,r₃](v, π₂ c)
    /// ```
    pub fn invoke(&self, k: Value, v: Value) -> Term {
        let kv = Symbol::intern("kv!c");
        let p1 = Symbol::intern("kp1!c");
        let p2 = Symbol::intern("kp2!c");
        let c = Symbol::intern("kc!c");
        let code = Symbol::intern("kcode!c");
        let envv = Symbol::intern("kenv!c");
        let t1o = Symbol::intern("t1o!c");
        let t2o = Symbol::intern("t2o!c");
        let teo = Symbol::intern("teo!c");
        let aco = Symbol::intern("aco!c");
        Term::let_(
            kv,
            Op::Get(k),
            Term::OpenTag {
                pkg: Value::Var(kv),
                tvar: t1o,
                x: p1,
                body: (Term::OpenTag {
                    pkg: Value::Var(p1),
                    tvar: t2o,
                    x: p2,
                    body: (Term::OpenTag {
                        pkg: Value::Var(p2),
                        tvar: teo,
                        x: Symbol::intern("kp3!c"),
                        body: (Term::OpenAlpha {
                            pkg: Value::Var(Symbol::intern("kp3!c")),
                            avar: aco,
                            x: c,
                            body: (Term::let_(
                                code,
                                Op::Proj(1, Value::Var(c)),
                                Term::let_(
                                    envv,
                                    Op::Proj(2, Value::Var(c)),
                                    Term::app(
                                        Value::Var(code),
                                        [Tag::Var(t1o), Tag::Var(t2o), Tag::Var(teo)],
                                        self.delta(),
                                        [v, Value::Var(envv)],
                                    ),
                                ),
                            ))
                            .into(),
                        })
                        .into(),
                    })
                    .into(),
                })
                .into(),
            },
        )
    }
}

/// The standard shape for the basic and forwarding collectors: the
/// continuation receives `M_{r₂}(τ)`.
pub fn to_space_shape(r1: Symbol, r2: Symbol, r3: Symbol) -> ContShape {
    ContShape {
        regions: vec![r1, r2, r3],
        recv_ty: |s, tag| Ty::m(Region::Var(s.regions[1]), tag.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ContShape {
        to_space_shape(
            Symbol::intern("r1"),
            Symbol::intern("r2"),
            Symbol::intern("r3"),
        )
    }

    #[test]
    fn tk_is_a_reference_into_r3() {
        let s = shape();
        match s.tk(&Tag::Int) {
            Ty::At(_, Region::Var(r)) => assert_eq!(r, Symbol::intern("r3")),
            other => panic!("expected at r3, got {other:?}"),
        }
    }

    #[test]
    fn tc_is_a_pair_of_code_and_env() {
        let s = shape();
        match s.tc(&Tag::Int) {
            Ty::Prod(code, env) => {
                assert!(matches!(&*code, Ty::Trans { .. }));
                assert_eq!(*env, Ty::Alpha(acg()));
            }
            other => panic!("expected pair, got {other:?}"),
        }
    }

    #[test]
    fn pack_is_four_deep() {
        let s = shape();
        let v = s.pack(
            Value::Addr(ps_gc_lang::syntax::CD, 0),
            [Tag::Int, Tag::Int, Tag::id_fn()],
            Ty::Int,
            Value::Int(0),
            &Tag::Int,
        );
        // ⟨t1, ⟨t2, ⟨te, ⟨αc, (code⟦…⟧, env)⟩⟩⟩⟩
        let mut depth = 0;
        let mut cur = v;
        loop {
            match cur {
                Value::PackTag { val, .. } => {
                    depth += 1;
                    cur = (*val).clone();
                }
                Value::PackAlpha { val, .. } => {
                    depth += 1;
                    cur = (*val).clone();
                }
                Value::Pair(code, _) => {
                    assert!(matches!(&*code, Value::TagApp(..)));
                    break;
                }
                other => panic!("unexpected layer {other:?}"),
            }
        }
        assert_eq!(depth, 4);
    }
}
