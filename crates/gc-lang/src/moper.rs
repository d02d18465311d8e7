//! The hard-wired Typerec operators and type normalization.
//!
//! `Mρ(τ)` (§4.2) maps a tag to the type of its runtime representation with
//! every object confined to region `ρ`; it is "a Typerec that has been
//! hard-wired into the language" (§6.3). The forwarding dialect replaces it
//! with the mutator-view `M` and collector-view `Cρ,ρ′` of §7; the
//! generational dialect uses the two-index `Mρy,ρo` of §8.
//!
//! [`normalize_ty_id`] expands these operators wherever the underlying tag
//! has reduced to a constructor, and leaves them stuck on neutral tags
//! (`Mρ(t)` cannot reduce until `t` is instantiated — the crux of §2.2.1).
//! [`ty_eq_id`] compares types by normalizing and then testing
//! α-equivalence.
//!
//! Binder names introduced by expansion contain `!`, which no surface syntax
//! can produce, so fixed names are safe (substitution still renames them if
//! a capture would otherwise occur).

use std::sync::Arc;

use ps_ir::Symbol;

use crate::intern::{self, intern_ty, TagId, TyId};
use crate::syntax::{Dialect, Kind, Region, Tag, Ty};
use crate::tags;

fn r_m() -> Symbol {
    Symbol::intern("r!m")
}
fn ry_m() -> Symbol {
    Symbol::intern("ry!m")
}
fn ro_m() -> Symbol {
    Symbol::intern("ro!m")
}

/// Expands one layer of `Mρ(τ)` for the given dialect, assuming `tag` is
/// already in normal form. Returns `None` when the tag is neutral (variable
/// or neutral application), i.e. the operator is stuck.
fn expand_m(dialect: Dialect, rho: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        // `AnyArrow` is handled (canonicalized) by `normalize_ty` directly.
        Tag::AnyArrow(_) => None,
        Tag::Arrow(args) => Some(code_rep(dialect, args)),
        Tag::Prod(a, b) => {
            let inner = Ty::Prod(intern_ty(Ty::M(rho, *a)), intern_ty(Ty::M(rho, *b)));
            Some(match dialect {
                // Mρ(τ₁×τ₂) ⇒ (Mρ(τ₁) × Mρ(τ₂)) at ρ
                Dialect::Basic => inner.at(rho),
                // §7: the mutator must provide the forwarding tag bit.
                Dialect::Forwarding => Ty::Left(intern_ty(inner)).at(rho),
                // §8: ∃r ∈ {ρy,ρo}.((M_{r,ρo}(τ₁) × M_{r,ρo}(τ₂)) at r) —
                // handled by expand_mgen; plain M is not part of λGCgen.
                Dialect::Generational => inner.at(rho),
            })
        }
        Tag::Exist(t, body) => {
            let inner = Ty::ExistTag {
                tvar: *t,
                kind: Kind::Omega,
                body: intern_ty(Ty::M(rho, *body)),
            };
            Some(match dialect {
                Dialect::Basic | Dialect::Generational => inner.at(rho),
                Dialect::Forwarding => Ty::Left(intern_ty(inner)).at(rho),
            })
        }
        Tag::Var(_) | Tag::App(..) => None,
        // Ill-kinded at Ω; leave stuck (the kind checker rejects it first).
        Tag::Lam(..) => None,
    }
}

/// The code-type representation `∀[][r](M_r(~τ)) → 0 at cd`
/// (or the two-region variant in the generational dialect).
fn code_rep(dialect: Dialect, args: &[TagId]) -> Ty {
    match dialect {
        Dialect::Basic | Dialect::Forwarding => {
            let r = r_m();
            Ty::Code {
                tvars: Arc::from(vec![]),
                rvars: Arc::from(vec![r]),
                args: args
                    .iter()
                    .map(|a| intern_ty(Ty::M(Region::Var(r), *a)))
                    .collect(),
            }
            .at(Region::cd())
        }
        Dialect::Generational => {
            let ry = ry_m();
            let ro = ro_m();
            Ty::Code {
                tvars: Arc::from(vec![]),
                rvars: Arc::from(vec![ry, ro]),
                args: args
                    .iter()
                    .map(|a| intern_ty(Ty::MGen(Region::Var(ry), Region::Var(ro), *a)))
                    .collect(),
            }
            .at(Region::cd())
        }
    }
}

/// Expands one layer of `Cρ,ρ′(τ)` (§7), assuming normal-form `tag`.
fn expand_c(from: Region, to: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        Tag::AnyArrow(_) => None,
        // Cρ,ρ′(τ→0) ⇒ Mρ(τ→0): code is shared, not forwarded.
        Tag::Arrow(args) => Some(code_rep(Dialect::Forwarding, args)),
        Tag::Prod(a, b) => {
            let left = Ty::Prod(
                intern_ty(Ty::C(from, to, *a)),
                intern_ty(Ty::C(from, to, *b)),
            );
            let right = Ty::M(to, tag.id());
            Some(Ty::sum(left, right).at(from))
        }
        Tag::Exist(t, body) => {
            let left = Ty::ExistTag {
                tvar: *t,
                kind: Kind::Omega,
                body: intern_ty(Ty::C(from, to, *body)),
            };
            let right = Ty::M(to, tag.id());
            Some(Ty::sum(left, right).at(from))
        }
        Tag::Var(_) | Tag::App(..) | Tag::Lam(..) => None,
    }
}

/// Expands one layer of `Mρy,ρo(τ)` (§8), assuming normal-form `tag`.
fn expand_mgen(young: Region, old: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        Tag::AnyArrow(_) => None,
        Tag::Arrow(args) => Some(code_rep(Dialect::Generational, args)),
        Tag::Prod(a, b) => {
            let r = r_m();
            // By using the set {r, ρo} for the children we make sure that if
            // r is the old generation, pointers underneath cannot point back
            // to the new generation (§8).
            let body = Ty::Prod(
                intern_ty(Ty::MGen(Region::Var(r), old, *a)),
                intern_ty(Ty::MGen(Region::Var(r), old, *b)),
            );
            Some(Ty::ExistRgn {
                rvar: r,
                bound: region_set(&[young, old]),
                body: intern_ty(body),
            })
        }
        Tag::Exist(t, body) => {
            let r = r_m();
            let inner = Ty::ExistTag {
                tvar: *t,
                kind: Kind::Omega,
                body: intern_ty(Ty::MGen(Region::Var(r), old, *body)),
            };
            Some(Ty::ExistRgn {
                rvar: r,
                bound: region_set(&[young, old]),
                body: intern_ty(inner),
            })
        }
        Tag::Var(_) | Tag::App(..) | Tag::Lam(..) => None,
    }
}

/// Deduplicated region set, preserving first-occurrence order.
pub fn region_set(rs: &[Region]) -> Arc<[Region]> {
    let mut out: Vec<Region> = Vec::with_capacity(rs.len());
    for r in rs {
        if !out.contains(r) {
            out.push(*r);
        }
    }
    out.into()
}

/// Deeply normalizes a type: normalizes embedded tags and expands the
/// M/C/M_gen operators wherever their tag argument is a constructor.
///
/// Memoized per `(node, dialect)`: shared subtrees — and, under
/// `track_types`, the Ψ entries re-normalized on every machine step — are
/// normalized exactly once.
pub fn normalize_ty_id(id: TyId, dialect: Dialect) -> TyId {
    if let Some(hit) = intern::ty_norm_lookup(id, dialect) {
        return hit;
    }
    let nf = match id.node() {
        Ty::Int | Ty::Alpha(_) => id,
        Ty::Prod(a, b) => intern_ty(Ty::Prod(
            normalize_ty_id(*a, dialect),
            normalize_ty_id(*b, dialect),
        )),
        Ty::Sum(a, b) => intern_ty(Ty::Sum(
            normalize_ty_id(*a, dialect),
            normalize_ty_id(*b, dialect),
        )),
        Ty::Left(a) => intern_ty(Ty::Left(normalize_ty_id(*a, dialect))),
        Ty::Right(a) => intern_ty(Ty::Right(normalize_ty_id(*a, dialect))),
        Ty::Code { tvars, rvars, args } => intern_ty(Ty::Code {
            tvars: tvars.clone(),
            rvars: rvars.clone(),
            args: args.iter().map(|a| normalize_ty_id(*a, dialect)).collect(),
        }),
        Ty::ExistTag { tvar, kind, body } => intern_ty(Ty::ExistTag {
            tvar: *tvar,
            kind: *kind,
            body: normalize_ty_id(*body, dialect),
        }),
        Ty::At(inner, rho) => intern_ty(Ty::At(normalize_ty_id(*inner, dialect), *rho)),
        Ty::M(rho, tag) => {
            let nf = tags::normalize_id(*tag).0;
            // paper: `AnyArrow` canonicalizes to `M_cd` — the M-image of any
            // arrow lives at cd and is independent of the region index, so
            // making that independence syntactic lets Fig. 4's `λ ⇒ x` arm
            // typecheck (see the `Tag::AnyArrow` docs).
            if let Tag::AnyArrow(_) = nf.node() {
                intern_ty(Ty::M(Region::cd(), nf))
            } else {
                match expand_m(dialect, *rho, nf.node()) {
                    Some(t) => normalize_ty_id(t.id(), dialect),
                    None => intern_ty(Ty::M(*rho, nf)),
                }
            }
        }
        Ty::C(from, to, tag) => {
            let nf = tags::normalize_id(*tag).0;
            if let Tag::AnyArrow(_) = nf.node() {
                intern_ty(Ty::M(Region::cd(), nf))
            } else {
                match expand_c(*from, *to, nf.node()) {
                    Some(t) => normalize_ty_id(t.id(), dialect),
                    None => intern_ty(Ty::C(*from, *to, nf)),
                }
            }
        }
        Ty::MGen(y, o, tag) => {
            let nf = tags::normalize_id(*tag).0;
            if let Tag::AnyArrow(_) = nf.node() {
                intern_ty(Ty::M(Region::cd(), nf))
            } else {
                match expand_mgen(*y, *o, nf.node()) {
                    Some(t) => normalize_ty_id(t.id(), dialect),
                    None => intern_ty(Ty::MGen(*y, *o, nf)),
                }
            }
        }
        Ty::ExistAlpha {
            avar,
            regions,
            body,
        } => intern_ty(Ty::ExistAlpha {
            avar: *avar,
            regions: region_set(regions),
            body: normalize_ty_id(*body, dialect),
        }),
        Ty::Trans {
            tags: ts,
            regions,
            args,
            rho,
        } => intern_ty(Ty::Trans {
            tags: ts.iter().map(|t| tags::normalize_id(*t).0).collect(),
            regions: regions.clone(),
            args: args.iter().map(|a| normalize_ty_id(*a, dialect)).collect(),
            rho: *rho,
        }),
        Ty::ExistRgn { rvar, bound, body } => intern_ty(Ty::ExistRgn {
            rvar: *rvar,
            bound: region_set(bound),
            body: normalize_ty_id(*body, dialect),
        }),
    };
    intern::ty_norm_insert(id, dialect, nf);
    nf
}

/// Type equality: two memoized normalizations and an id compare of their
/// α-canonical forms ([`crate::intern::canon_ty`]), so region sets
/// (`∃α:∆` / `∃r∈∆` bounds) compare as sets and binders up to renaming.
pub fn ty_eq_id(a: TyId, b: TyId, dialect: Dialect) -> bool {
    if a == b {
        return true;
    }
    intern::ty_alpha_eq(normalize_ty_id(a, dialect), normalize_ty_id(b, dialect))
}

/// The size of a type (number of constructors).
pub fn ty_size(sigma: &Ty) -> usize {
    match sigma {
        Ty::Int | Ty::Alpha(_) => 1,
        Ty::Prod(a, b) | Ty::Sum(a, b) => 1 + ty_size(a) + ty_size(b),
        Ty::Left(a) | Ty::Right(a) | Ty::At(a, _) => 1 + ty_size(a),
        Ty::Code { args, .. } => 1 + args.iter().map(|a| ty_size(a)).sum::<usize>(),
        Ty::ExistTag { body, .. } | Ty::ExistAlpha { body, .. } | Ty::ExistRgn { body, .. } => {
            1 + ty_size(body)
        }
        Ty::M(_, t) => 1 + tags::tag_size(t),
        Ty::C(_, _, t) | Ty::MGen(_, _, t) => 1 + tags::tag_size(t),
        Ty::Trans { tags: ts, args, .. } => {
            1 + ts.iter().map(|t| tags::tag_size(t)).sum::<usize>()
                + args.iter().map(|a| ty_size(a)).sum::<usize>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    /// The normal form of `t`, as a node to match on.
    fn nf(t: &Ty, dialect: Dialect) -> Ty {
        normalize_ty_id(t.id(), dialect).node().clone()
    }

    fn eq(a: &Ty, b: &Ty, dialect: Dialect) -> bool {
        ty_eq_id(a.id(), b.id(), dialect)
    }

    #[test]
    fn m_int_is_int() {
        let t = Ty::m(Region::cd(), Tag::Int);
        assert_eq!(nf(&t, Dialect::Basic), Ty::Int);
    }

    #[test]
    fn m_pair_expands_to_at() {
        let rho = Region::Var(s("r1"));
        let t = Ty::m(rho, Tag::prod(Tag::Int, Tag::Int));
        match nf(&t, Dialect::Basic) {
            Ty::At(inner, r) => {
                assert_eq!(r, rho);
                assert_eq!(*inner, Ty::prod(Ty::Int, Ty::Int));
            }
            other => panic!("expected at-type, got {other:?}"),
        }
    }

    #[test]
    fn m_arrow_lives_at_cd() {
        let rho = Region::Var(s("r1"));
        let t = Ty::m(rho, Tag::arrow([Tag::Int]));
        match nf(&t, Dialect::Basic) {
            Ty::At(inner, r) => {
                assert!(r.is_cd());
                assert!(matches!(*inner, Ty::Code { .. }));
            }
            other => panic!("expected code at cd, got {other:?}"),
        }
    }

    #[test]
    fn m_is_rho_independent_on_arrows() {
        let a = Ty::m(Region::Var(s("r1")), Tag::arrow([Tag::Int]));
        let b = Ty::m(Region::Var(s("r2")), Tag::arrow([Tag::Int]));
        assert!(eq(&a, &b, Dialect::Basic));
    }

    #[test]
    fn m_stuck_on_variables() {
        let t = Ty::m(Region::cd(), Tag::Var(s("t")));
        assert_eq!(nf(&t, Dialect::Basic), t);
        // §2.2.1: Mρ(t) with different ρ must NOT be equal.
        let a = Ty::m(Region::Var(s("r1")), Tag::Var(s("t")));
        let b = Ty::m(Region::Var(s("r2")), Tag::Var(s("t")));
        assert!(!eq(&a, &b, Dialect::Basic));
    }

    #[test]
    fn anyarrow_is_rho_independent() {
        let a = Ty::m(Region::Var(s("r1")), Tag::AnyArrow(s("t")));
        let b = Ty::m(Region::Var(s("r2")), Tag::AnyArrow(s("t")));
        assert!(eq(&a, &b, Dialect::Basic));
        // ... and across M and C in the forwarding dialect.
        let c = Ty::c(
            Region::Var(s("r1")),
            Region::Var(s("r2")),
            Tag::AnyArrow(s("t")),
        );
        assert!(eq(&a, &c, Dialect::Forwarding));
    }

    #[test]
    fn forwarding_m_adds_left() {
        let rho = Region::Var(s("r1"));
        let t = Ty::m(rho, Tag::prod(Tag::Int, Tag::Int));
        match nf(&t, Dialect::Forwarding) {
            Ty::At(inner, _) => assert!(matches!(*inner, Ty::Left(_))),
            other => panic!("expected left at ρ, got {other:?}"),
        }
    }

    #[test]
    fn c_pair_is_a_sum() {
        let from = Region::Var(s("r1"));
        let to = Region::Var(s("r2"));
        let t = Ty::c(from, to, Tag::prod(Tag::Int, Tag::Int));
        match nf(&t, Dialect::Forwarding) {
            Ty::At(inner, r) => {
                assert_eq!(r, from);
                match &*inner {
                    Ty::Sum(l, rgt) => {
                        assert_eq!(**l, Ty::prod(Ty::Int, Ty::Int));
                        // right component is M_{to}(τ₁×τ₂), itself expanded.
                        assert!(matches!(**rgt, Ty::At(..)));
                    }
                    other => panic!("expected sum, got {other:?}"),
                }
            }
            other => panic!("expected at-type, got {other:?}"),
        }
    }

    #[test]
    fn c_arrow_is_m_arrow() {
        let from = Region::Var(s("r1"));
        let to = Region::Var(s("r2"));
        let c = Ty::c(from, to, Tag::arrow([Tag::Int]));
        let m = Ty::m(from, Tag::arrow([Tag::Int]));
        assert!(eq(&c, &m, Dialect::Forwarding));
    }

    #[test]
    fn mgen_pair_is_region_existential() {
        let y = Region::Var(s("ry"));
        let o = Region::Var(s("ro"));
        let t = Ty::mgen(y, o, Tag::prod(Tag::Int, Tag::Int));
        match nf(&t, Dialect::Generational) {
            Ty::ExistRgn { bound, .. } => {
                assert_eq!(bound.len(), 2);
            }
            other => panic!("expected region existential, got {other:?}"),
        }
    }

    #[test]
    fn mgen_collapsed_indices_singleton_bound() {
        let o = Region::Var(s("ro"));
        let t = Ty::mgen(o, o, Tag::prod(Tag::Int, Tag::Int));
        match nf(&t, Dialect::Generational) {
            Ty::ExistRgn { bound, .. } => assert_eq!(bound.len(), 1),
            other => panic!("expected region existential, got {other:?}"),
        }
    }

    #[test]
    fn ty_eq_alpha_renames_binders() {
        let a = Ty::exist_tag(s("u"), Kind::Omega, Ty::m(Region::cd(), Tag::Var(s("u"))));
        let b = Ty::exist_tag(s("v"), Kind::Omega, Ty::m(Region::cd(), Tag::Var(s("v"))));
        assert!(eq(&a, &b, Dialect::Basic));
    }

    #[test]
    fn ty_eq_region_sets_as_sets() {
        let r1 = Region::Var(s("ra"));
        let r2 = Region::Var(s("rb"));
        let a = Ty::exist_rgn(s("r"), [r1, r2], Ty::Int);
        let b = Ty::exist_rgn(s("r"), [r2, r1], Ty::Int);
        assert!(eq(&a, &b, Dialect::Generational));
        let c = Ty::exist_rgn(s("r"), [r1], Ty::Int);
        assert!(!eq(&a, &c, Dialect::Generational));
    }

    #[test]
    fn m_exist_expands_under_binder() {
        let rho = Region::Var(s("r1"));
        let u = s("u");
        let t = Ty::m(rho, Tag::exist(u, Tag::prod(Tag::Var(u), Tag::Int)));
        match nf(&t, Dialect::Basic) {
            Ty::At(inner, _) => match &*inner {
                Ty::ExistTag { body, .. } => {
                    // Body is M_ρ(u × Int), expanded one more level with the
                    // stuck M_ρ(u) inside.
                    assert!(matches!(**body, Ty::At(..)));
                }
                other => panic!("expected ∃t, got {other:?}"),
            },
            other => panic!("expected at, got {other:?}"),
        }
    }

    #[test]
    fn normalization_reduces_tag_redexes_first() {
        let rho = Region::cd();
        let t = Ty::m(rho, Tag::app(Tag::id_fn(), Tag::Int));
        assert_eq!(nf(&t, Dialect::Basic), Ty::Int);
    }

    #[test]
    fn ty_size_counts() {
        assert_eq!(ty_size(&Ty::Int), 1);
        assert_eq!(ty_size(&Ty::prod(Ty::Int, Ty::Int)), 3);
    }
}
