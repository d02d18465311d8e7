//! Row-by-row tests of the hard-wired Typerec definitions: the `M` table of
//! §4.2, the forwarding `M`/`C` tables of §7, and the generational
//! `M_{ρy,ρo}` table of §8. Each test checks one displayed equation.

use ps_gc_lang::moper::{normalize_ty_id, ty_eq_id};
use ps_gc_lang::syntax::{Dialect, Kind, Region, Tag, Ty};
use ps_ir::Symbol;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn r(x: &str) -> Region {
    Region::Var(s(x))
}

fn ty_eq(a: &Ty, b: &Ty, dialect: Dialect) -> bool {
    ty_eq_id(a.id(), b.id(), dialect)
}

// ===== §4.2: Mρ(τ), basic dialect =========================================

#[test]
fn m_int() {
    // Mρ(Int) ⇒ int
    assert!(ty_eq(&Ty::m(r("p"), Tag::Int), &Ty::Int, Dialect::Basic));
}

#[test]
fn m_prod() {
    // Mρ(τ1 × τ2) ⇒ (Mρ(τ1) × Mρ(τ2)) at ρ
    let lhs = Ty::m(r("p"), Tag::prod(Tag::Int, Tag::prod(Tag::Int, Tag::Int)));
    let rhs = Ty::prod(
        Ty::m(r("p"), Tag::Int),
        Ty::m(r("p"), Tag::prod(Tag::Int, Tag::Int)),
    )
    .at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Basic));
}

#[test]
fn m_exist() {
    // Mρ(∃t.τ) ⇒ (∃t:Ω.Mρ(τ)) at ρ
    let t = s("t");
    let lhs = Ty::m(r("p"), Tag::exist(t, Tag::prod(Tag::Var(t), Tag::Int)));
    let rhs = Ty::exist_tag(
        t,
        Kind::Omega,
        Ty::m(r("p"), Tag::prod(Tag::Var(t), Tag::Int)),
    )
    .at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Basic));
}

#[test]
fn m_arrow() {
    // Mρ(τ → 0) ⇒ ∀[][r](M_r(τ)) → 0 at cd
    let rr = s("rfresh");
    let lhs = Ty::m(r("p"), Tag::arrow([Tag::Int]));
    let rhs = Ty::code([], [rr], [Ty::m(Region::Var(rr), Tag::Int)]).at(Region::cd());
    assert!(ty_eq(&lhs, &rhs, Dialect::Basic));
}

// ===== §7: forwarding M and C =============================================

#[test]
fn fwd_m_prod_has_the_tag_bit() {
    // Mρ(τ1×τ2) ⇒ (left(Mρ(τ1) × Mρ(τ2))) at ρ
    let lhs = Ty::m(r("p"), Tag::prod(Tag::Int, Tag::Int));
    let rhs = Ty::Left(Ty::prod(Ty::m(r("p"), Tag::Int), Ty::m(r("p"), Tag::Int)).id()).at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Forwarding));
}

#[test]
fn fwd_m_exist_has_the_tag_bit() {
    let t = s("t");
    let lhs = Ty::m(r("p"), Tag::exist(t, Tag::Var(t)));
    let rhs = Ty::Left(Ty::exist_tag(t, Kind::Omega, Ty::m(r("p"), Tag::Var(t))).id()).at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Forwarding));
}

#[test]
fn fwd_m_arrow_is_unchanged() {
    // Code is never forwarded; Mρ(τ→0) is the same as in the basic dialect.
    let rr = s("rfresh2");
    let lhs = Ty::m(r("p"), Tag::arrow([Tag::Int]));
    let rhs = Ty::code([], [rr], [Ty::m(Region::Var(rr), Tag::Int)]).at(Region::cd());
    assert!(ty_eq(&lhs, &rhs, Dialect::Forwarding));
}

#[test]
fn c_int_and_arrow() {
    // Cρ,ρ′(Int) ⇒ int; Cρ,ρ′(τ→0) ⇒ Mρ(τ→0)
    assert!(ty_eq(
        &Ty::c(r("p"), r("q"), Tag::Int),
        &Ty::Int,
        Dialect::Forwarding
    ));
    assert!(ty_eq(
        &Ty::c(r("p"), r("q"), Tag::arrow([Tag::Int])),
        &Ty::m(r("p"), Tag::arrow([Tag::Int])),
        Dialect::Forwarding
    ));
}

#[test]
fn c_prod_is_the_displayed_sum() {
    // Cρ,ρ′(τ1×τ2) ⇒ (left(C τ1 × C τ2) + right(Mρ′(τ1×τ2))) at ρ
    let tau = Tag::prod(Tag::Int, Tag::Int);
    let lhs = Ty::c(r("p"), r("q"), tau.clone());
    let rhs = Ty::sum(
        Ty::prod(
            Ty::c(r("p"), r("q"), Tag::Int),
            Ty::c(r("p"), r("q"), Tag::Int),
        ),
        Ty::m(r("q"), tau),
    )
    .at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Forwarding));
}

#[test]
fn c_exist_is_the_displayed_sum() {
    // Cρ,ρ′(∃t.τ) ⇒ (left(∃t.C τ) + right(Mρ′(∃t.τ))) at ρ
    let t = s("t");
    let tau = Tag::exist(t, Tag::Var(t));
    let lhs = Ty::c(r("p"), r("q"), tau.clone());
    let rhs = Ty::sum(
        Ty::exist_tag(t, Kind::Omega, Ty::c(r("p"), r("q"), Tag::Var(t))),
        Ty::m(r("q"), tau),
    )
    .at(r("p"));
    assert!(ty_eq(&lhs, &rhs, Dialect::Forwarding));
}

// ===== §8: generational M_{ρy,ρo} =========================================

#[test]
fn mgen_int_and_arrow() {
    assert!(ty_eq(
        &Ty::mgen(r("y"), r("o"), Tag::Int),
        &Ty::Int,
        Dialect::Generational
    ));
    // M_{ρy,ρo}(τ→0) ⇒ ∀[][ry,ro](M_{ry,ro}(τ)) → 0 at cd
    let ry = s("gy");
    let ro = s("go");
    let lhs = Ty::mgen(r("y"), r("o"), Tag::arrow([Tag::Int]));
    let rhs = Ty::code(
        [],
        [ry, ro],
        [Ty::mgen(Region::Var(ry), Region::Var(ro), Tag::Int)],
    )
    .at(Region::cd());
    assert!(ty_eq(&lhs, &rhs, Dialect::Generational));
}

#[test]
fn mgen_prod_is_the_displayed_region_existential() {
    // M_{ρy,ρo}(τ1×τ2) ⇒ ∃r∈{ρy,ρo}.((M_{r,ρo}(τ1) × M_{r,ρo}(τ2)) at r)
    let rv = s("gr");
    let lhs = Ty::mgen(r("y"), r("o"), Tag::prod(Tag::Int, Tag::Int));
    let rhs = Ty::exist_rgn(
        rv,
        [r("y"), r("o")],
        Ty::prod(
            Ty::mgen(Region::Var(rv), r("o"), Tag::Int),
            Ty::mgen(Region::Var(rv), r("o"), Tag::Int),
        ),
    );
    assert!(ty_eq(&lhs, &rhs, Dialect::Generational));
}

#[test]
fn mgen_exist_is_the_displayed_region_existential() {
    // M_{ρy,ρo}(∃t.τ) ⇒ ∃r∈{ρy,ρo}.((∃t.M_{r,ρo}(τ)) at r)
    let rv = s("gr2");
    let t = s("gt");
    let lhs = Ty::mgen(r("y"), r("o"), Tag::exist(t, Tag::Var(t)));
    let rhs = Ty::exist_rgn(
        rv,
        [r("y"), r("o")],
        Ty::exist_tag(
            t,
            Kind::Omega,
            Ty::mgen(Region::Var(rv), r("o"), Tag::Var(t)),
        ),
    );
    assert!(ty_eq(&lhs, &rhs, Dialect::Generational));
}

#[test]
fn mgen_children_keep_the_old_index() {
    // "By using the set {r, ρo} we make sure that if r is the old
    // generation, pointers underneath it cannot point back to the new
    // generation" — the children's old index stays ρo, not r.
    let lhs = normalize_ty_id(
        Ty::mgen(
            r("y"),
            r("o"),
            Tag::prod(Tag::prod(Tag::Int, Tag::Int), Tag::Int),
        )
        .id(),
        Dialect::Generational,
    );
    match lhs.node() {
        Ty::ExistRgn { body, .. } => match body.node() {
            Ty::Prod(first, _) => match first.node() {
                Ty::ExistRgn { bound, .. } => {
                    // the inner pair's bound is {r, ρo}, with ρo free.
                    assert!(bound.contains(&r("o")), "{bound:?}");
                    assert_eq!(bound.len(), 2);
                }
                other => panic!("expected nested region existential, got {other:?}"),
            },
            other => panic!("expected product, got {other:?}"),
        },
        other => panic!("expected region existential, got {other:?}"),
    }
}

// ===== operator misuse across dialects ====================================

#[test]
fn c_is_forwarding_only() {
    use ps_gc_lang::tyck::{Checker, Ctx};
    let mut ctx = Ctx::empty();
    ctx.delta.insert(r("p"));
    ctx.delta.insert(r("q"));
    let ty = Ty::c(r("p"), r("q"), Tag::Int);
    assert!(Checker::new(Dialect::Basic).ty_wf(&mut ctx, &ty).is_err());
    assert!(Checker::new(Dialect::Forwarding)
        .ty_wf(&mut ctx, &ty)
        .is_ok());
}

#[test]
fn mgen_is_generational_only() {
    use ps_gc_lang::tyck::{Checker, Ctx};
    let mut ctx = Ctx::empty();
    ctx.delta.insert(r("p"));
    ctx.delta.insert(r("q"));
    let ty = Ty::mgen(r("p"), r("q"), Tag::Int);
    assert!(Checker::new(Dialect::Basic).ty_wf(&mut ctx, &ty).is_err());
    assert!(Checker::new(Dialect::Generational)
        .ty_wf(&mut ctx, &ty)
        .is_ok());
}
