//! Negative tests: the region-safety half of the system. Every term here
//! is a would-be use-after-free or region escape; the typechecker must
//! reject it (the machine-level dynamic failures are covered in the
//! machine's own tests).

use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{Dialect, Kind, Op, Region, Tag, Term, Ty, Value};
use ps_gc_lang::tyck::{Checker, Ctx};
use ps_ir::Symbol;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn check_main(dialect: Dialect, main: Term) -> Result<(), ps_gc_lang::error::LangError> {
    Checker::check_program(&Program {
        dialect,
        code: vec![],
        main,
    })
}

/// Reading through an address whose region was reclaimed by `only`.
#[test]
fn use_after_only_rejected() {
    let e = Term::LetRegion {
        rvar: s("ra"),
        body: (Term::let_(
            s("a"),
            Op::Put(Region::Var(s("ra")), Value::Int(1)),
            Term::Only {
                regions: vec![],
                body: (Term::let_(
                    s("b"),
                    Op::Get(Value::Var(s("a"))),
                    Term::Halt(Value::Var(s("b"))),
                ))
                .into(),
            },
        ))
        .into(),
    };
    assert!(check_main(Dialect::Basic, e).is_err());
}

/// Escaping a region through a value returned… there is no return in CPS,
/// so the escape route is an α-package whose confinement set lies about
/// the regions inside.
#[test]
fn alpha_package_bound_cannot_lie() {
    // ⟨α : {} = int at ra, v⟩ — the witness mentions ra but the bound
    // set is empty.
    let e = Term::LetRegion {
        rvar: s("ra"),
        body: (Term::let_(
            s("a"),
            Op::Put(Region::Var(s("ra")), Value::Int(1)),
            Term::let_(
                s("p"),
                Op::Val(Value::PackAlpha {
                    avar: s("al"),
                    regions: (vec![]).into(),
                    witness: Ty::Int.at(Region::Var(s("ra"))).into(),
                    val: (Value::Var(s("a"))).into(),
                    body_ty: Ty::Alpha(s("al")).into(),
                }),
                Term::Halt(Value::Int(0)),
            ),
        ))
        .into(),
    };
    assert!(check_main(Dialect::Basic, e).is_err());
}

/// A region existential whose bound set is not in scope.
#[test]
fn region_package_bound_must_be_in_scope() {
    let gen = Checker::new(Dialect::Generational);
    let pkg = Value::PackRgn {
        rvar: s("r"),
        bound: (vec![Region::Var(s("ghost"))]).into(),
        witness: Region::Var(s("ghost")),
        val: (Value::Int(0)).into(),
        body_ty: Ty::Int.into(),
    };
    assert!(gen.synth_value(&Ctx::empty(), &pkg).is_err());
}

/// `put` into a region variable that is not bound.
#[test]
fn put_into_unbound_region_rejected() {
    let e = Term::let_(
        s("a"),
        Op::Put(Region::Var(s("nowhere")), Value::Int(1)),
        Term::Halt(Value::Int(0)),
    );
    assert!(check_main(Dialect::Basic, e).is_err());
}

/// `only` cannot keep a region that is not in scope.
#[test]
fn only_cannot_keep_unknown_regions() {
    let e = Term::Only {
        regions: vec![Region::Var(s("phantom"))],
        body: (Term::Halt(Value::Int(0))).into(),
    };
    assert!(check_main(Dialect::Basic, e).is_err());
}

/// The `only` restriction drops α-variables whose confinement set died.
#[test]
fn only_drops_alphas_bound_to_dead_regions() {
    // open a package confined to ra, then `only {}` and try to use the
    // opened value.
    let e = Term::LetRegion {
        rvar: s("ra"),
        body: (Term::let_(
            s("a"),
            Op::Put(Region::Var(s("ra")), Value::Int(1)),
            Term::let_(
                s("p"),
                Op::Val(Value::PackAlpha {
                    avar: s("al"),
                    regions: (vec![Region::Var(s("ra"))]).into(),
                    witness: Ty::Int.at(Region::Var(s("ra"))).into(),
                    val: (Value::Var(s("a"))).into(),
                    body_ty: Ty::Alpha(s("al")).into(),
                }),
                Term::OpenAlpha {
                    pkg: Value::Var(s("p")),
                    avar: s("b"),
                    x: s("xb"),
                    body: (Term::Only {
                        regions: vec![],
                        body: (Term::let_(
                            // xb : β, β confined to the reclaimed ra — the
                            // binding must be gone.
                            s("y"),
                            Op::Val(Value::Var(s("xb"))),
                            Term::Halt(Value::Int(0)),
                        ))
                        .into(),
                    })
                    .into(),
                },
            ),
        ))
        .into(),
    };
    assert!(check_main(Dialect::Basic, e).is_err());
}

/// The widen body cannot smuggle values other than the widened one
/// (Fig. 8 types it under Γ = {x} only) — this is what forces Fig. 9 to
/// bundle (f, x) before casting.
#[test]
fn widen_body_cannot_use_outer_bindings() {
    let e = Term::LetRegion {
        rvar: s("r1"),
        body: (Term::LetRegion {
            rvar: s("r2"),
            body: (Term::let_(
                s("secret"),
                Op::Val(Value::Int(5)),
                Term::Widen {
                    x: s("w"),
                    from: Region::Var(s("r1")),
                    to: Region::Var(s("r2")),
                    tag: Tag::Int.into(),
                    v: Value::Int(0),
                    body: (Term::Halt(Value::Var(s("secret")))).into(),
                },
            ))
            .into(),
        })
        .into(),
    };
    assert!(check_main(Dialect::Forwarding, e).is_err());
}

/// Code blocks cannot capture regions: a block whose parameter type
/// mentions a free (unbound) region variable is ill formed.
#[test]
fn code_cannot_capture_regions() {
    let def = ps_gc_lang::syntax::CodeDef {
        name: s("leak"),
        tvars: vec![],
        rvars: vec![],
        params: vec![(s("x"), Ty::Int.at(Region::Var(s("outer"))).id())],
        body: Term::Halt(Value::Int(0)),
    };
    assert!(Checker::new(Dialect::Basic).check_code(&def).is_err());
}

/// Tag-bit subsumption does not let arbitrary values pretend to be sums.
#[test]
fn ints_are_not_sums() {
    let fw = Checker::new(Dialect::Forwarding);
    let mut ctx = Ctx::empty();
    ctx.gamma.insert(s("v"), Ty::Int.into());
    let e = Term::IfLeft {
        x: s("x"),
        scrut: Value::Var(s("v")),
        left: (Term::Halt(Value::Int(0))).into(),
        right: (Term::Halt(Value::Int(0))).into(),
    };
    assert!(fw.check_term(&mut ctx, &e).is_err());
}

/// Applying code at the wrong number of regions is rejected.
#[test]
fn region_arity_mismatch_rejected() {
    let def = ps_gc_lang::syntax::CodeDef {
        name: s("two"),
        tvars: vec![],
        rvars: vec![s("ra"), s("rb")],
        params: vec![],
        body: Term::Halt(Value::Int(0)),
    };
    let main = Term::LetRegion {
        rvar: s("r0"),
        body: (Term::app(
            Value::Addr(ps_gc_lang::syntax::CD, 0),
            [],
            [Region::Var(s("r0"))],
            [],
        ))
        .into(),
    };
    let p = Program {
        dialect: Dialect::Basic,
        code: vec![def],
        main,
    };
    assert!(Checker::check_program(&p).is_err());
}

/// The tag argument of an application must match the declared kind.
#[test]
fn tag_kind_mismatch_rejected() {
    let def = ps_gc_lang::syntax::CodeDef {
        name: s("wantfn"),
        tvars: vec![(s("te"), Kind::Arrow)],
        rvars: vec![],
        params: vec![],
        body: Term::Halt(Value::Int(0)),
    };
    let main = Term::app(Value::Addr(ps_gc_lang::syntax::CD, 0), [Tag::Int], [], []);
    let p = Program {
        dialect: Dialect::Basic,
        code: vec![def],
        main,
    };
    assert!(Checker::check_program(&p).is_err());
    let def2 = ps_gc_lang::syntax::CodeDef {
        name: s("wantfn2"),
        tvars: vec![(s("te"), Kind::Arrow)],
        rvars: vec![],
        params: vec![],
        body: Term::Halt(Value::Int(0)),
    };
    let main2 = Term::app(
        Value::Addr(ps_gc_lang::syntax::CD, 0),
        [Tag::id_fn()],
        [],
        [],
    );
    let p2 = Program {
        dialect: Dialect::Basic,
        code: vec![def2],
        main: main2,
    };
    assert!(Checker::check_program(&p2).is_ok());
}
