//! The forwarding-pointer collector of §7 / Fig. 9, in executable
//! (CPS and closure-converted) form.
//!
//! Fig. 9 is given in direct style "for clarity of presentation"; this is
//! its Fig. 12-style conversion. The differences from the basic collector:
//!
//! * `gc` bundles `(f, x)` into a single from-space object and `widen`s it,
//!   because Fig. 8's rule types the widen body with only the widened value
//!   in scope — the cast must cover the whole live heap at once (§7.1);
//! * `copy` receives the collector view `C_{r₁,r₂}(t)` and checks the tag
//!   bit with `ifleft`: an `inr` object is already forwarded and its
//!   to-space copy is returned directly (sharing preserved — DAGs stay
//!   DAGs);
//! * after copying an object, the continuation overwrites the original
//!   with `set x := inr z` — installing the forwarding pointer costs one
//!   stolen bit per object, not an extra word (§7, fn. 1).
//!
//! Blocks: `gc`=0, `gcend`=1, `copy`=2, `fwdpair1`=3, `fwdpair2`=4,
//! `fwdexist1`=5.

use ps_ir::Symbol;

use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, Region, Tag, Term, Ty, Value, CD};

use crate::basic::mutator_fn_ty;
use crate::cont::{to_space_shape, ContShape};
use crate::CollectorImage;

/// Offset of `gc` within the image.
pub const GC: u32 = 0;
const GCEND: u32 = 1;
const COPY: u32 = 2;
const FWDPAIR1: u32 = 3;
const FWDPAIR2: u32 = 4;
const FWDEXIST1: u32 = 5;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn rv(x: &str) -> Region {
    Region::Var(s(x))
}

fn shape() -> ContShape {
    to_space_shape(s("r1"), s("r2"), s("r3"))
}

/// The collector view of a tag: `C_{r1,r2}(τ)`.
fn c_of(tag: Tag) -> Ty {
    Ty::c(rv("r1"), rv("r2"), tag)
}

/// Builds the forwarding collector.
pub fn collector() -> CollectorImage {
    CollectorImage {
        dialect: Dialect::Forwarding,
        code: vec![gc(), gcend(), copy(), fwdpair1(), fwdpair2(), fwdexist1()],
        gc_entry: GC,
    }
}

/// ```text
/// fix gc[t:Ω][r1](f, x).
///   let region r2 in
///   let w0 = put[r1](inl (f, x)) in
///   let w = widen[r1→r2][(t→0) × t](w0) in
///   let region r3 in
///   ifleft y = get w then …copy… else halt 0
/// ```
fn gc() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let f_ty = mutator_fn_ty(t.clone());
    let arrow_tag = Tag::arrow([t.clone()]);
    let bundle_tag = Tag::prod(arrow_tag, t.clone());

    // After the widen: w : C_{r1,r2}((t→0) × t).
    let after_widen = Term::LetRegion {
        rvar: s("r3"),
        body: (Term::let_(
            s("y"),
            Op::Get(Value::Var(s("w"))),
            Term::IfLeft {
                x: s("yv"),
                scrut: Value::Var(s("y")),
                left: (Term::let_(
                    s("ys"),
                    Op::Strip(Value::Var(s("yv"))),
                    Term::let_(
                        s("fv"),
                        Op::Proj(1, Value::Var(s("ys"))),
                        Term::let_(
                            s("xv"),
                            Op::Proj(2, Value::Var(s("ys"))),
                            Term::let_(
                                s("k"),
                                Op::Put(
                                    rv("r3"),
                                    sh.pack(
                                        Value::Addr(CD, GCEND),
                                        [t.clone(), Tag::Int, Tag::id_fn()],
                                        f_ty.clone(),
                                        Value::Var(s("fv")),
                                        &t,
                                    ),
                                ),
                                Term::app(
                                    Value::Addr(CD, COPY),
                                    [t.clone()],
                                    [rv("r1"), rv("r2"), rv("r3")],
                                    [Value::Var(s("xv")), Value::Var(s("k"))],
                                ),
                            ),
                        ),
                    ),
                ))
                .into(),
                // A freshly allocated bundle is always inl; this branch is
                // unreachable but must typecheck.
                right: (Term::Halt(Value::Int(0))).into(),
            },
        ))
        .into(),
    };
    let body = Term::LetRegion {
        rvar: s("r2"),
        body: (Term::let_(
            s("w0"),
            Op::Put(
                rv("r1"),
                Value::inl(Value::pair(Value::Var(s("f")), Value::Var(s("x")))),
            ),
            Term::Widen {
                x: s("w"),
                from: rv("r1"),
                to: rv("r2"),
                tag: bundle_tag.into(),
                v: Value::Var(s("w0")),
                body: (after_widen).into(),
            },
        ))
        .into(),
    };
    CodeDef {
        name: s("gc"),
        tvars: vec![(s("t"), Kind::Omega)],
        rvars: vec![s("r1")],
        params: vec![
            (s("f"), f_ty.id()),
            (s("x"), Ty::m(rv("r1"), Tag::Var(s("t"))).id()),
        ],
        body,
    }
}

/// Identical to the basic `gcend`: free everything but to-space, return.
fn gcend() -> CodeDef {
    let t1 = Tag::Var(s("t1"));
    let body = Term::Only {
        regions: vec![rv("r2")],
        body: (Term::app(Value::Var(s("f")), [], [rv("r2")], [Value::Var(s("y"))])).into(),
    };
    CodeDef {
        name: s("gcend"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("y"), Ty::m(rv("r2"), t1.clone()).id()),
            (s("f"), mutator_fn_ty(t1).id()),
        ],
        body,
    }
}

/// The forwarding `copy` (Fig. 9's, CPS'd): `ifleft` distinguishes live
/// objects (copy, then the continuation installs the forwarding pointer)
/// from forwarded ones (return the to-space copy — sharing preserved).
fn copy() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let k = Value::Var(s("k"));
    let x = Value::Var(s("x"));

    let scalar_arm = sh.invoke(k.clone(), x.clone());

    let prod_arm = {
        let ta = Tag::Var(s("ta"));
        let tb = Tag::Var(s("tb"));
        let pair_tag = Tag::prod(ta.clone(), tb.clone());
        // env : C(ta×tb) × (C(tb) × tk[ta×tb]) — the original address, the
        // second component's source, and the outer continuation.
        let env_ty = Ty::prod(
            c_of(pair_tag.clone()),
            Ty::prod(c_of(tb.clone()), sh.tk(&pair_tag)),
        );
        let pack = sh.pack(
            Value::Addr(CD, FWDPAIR1),
            [ta.clone(), tb.clone(), Tag::id_fn()],
            env_ty,
            Value::Var(s("cenv")),
            &ta,
        );
        Term::let_(
            s("y"),
            Op::Get(x.clone()),
            Term::IfLeft {
                x: s("yv"),
                scrut: Value::Var(s("y")),
                left: (Term::let_(
                    s("ys"),
                    Op::Strip(Value::Var(s("yv"))),
                    Term::let_(
                        s("x2src"),
                        Op::Proj(2, Value::Var(s("ys"))),
                        Term::let_(
                            s("cenv"),
                            Op::Val(Value::pair(
                                x.clone(),
                                Value::pair(Value::Var(s("x2src")), k.clone()),
                            )),
                            Term::let_(
                                s("kp"),
                                Op::Put(rv("r3"), pack),
                                Term::let_(
                                    s("x1src"),
                                    Op::Proj(1, Value::Var(s("ys"))),
                                    Term::app(
                                        Value::Addr(CD, COPY),
                                        [ta],
                                        [rv("r1"), rv("r2"), rv("r3")],
                                        [Value::Var(s("x1src")), Value::Var(s("kp"))],
                                    ),
                                ),
                            ),
                        ),
                    ),
                ))
                .into(),
                // Already forwarded: strip off the inr and hand the to-space
                // copy straight to the continuation.
                right: (Term::let_(
                    s("z"),
                    Op::Strip(Value::Var(s("yv"))),
                    sh.invoke(k.clone(), Value::Var(s("z"))),
                ))
                .into(),
            },
        )
    };

    let exist_arm = {
        let tep = s("tc");
        let u = s("u!e");
        let exist_tag = Tag::exist(u, Tag::app(Tag::Var(tep), Tag::Var(u)));
        let tx = s("tx");
        let target = Tag::app(Tag::Var(tep), Tag::Var(tx));
        // env : C(∃u.tc u) × tk[∃u.tc u].
        let env_ty = Ty::prod(c_of(exist_tag.clone()), sh.tk(&exist_tag));
        let pack = sh.pack(
            Value::Addr(CD, FWDEXIST1),
            [Tag::Var(tx), Tag::Int, Tag::Var(tep)],
            env_ty,
            Value::Var(s("cenv")),
            &target,
        );
        Term::let_(
            s("y"),
            Op::Get(x.clone()),
            Term::IfLeft {
                x: s("yv"),
                scrut: Value::Var(s("y")),
                left: (Term::let_(
                    s("ys"),
                    Op::Strip(Value::Var(s("yv"))),
                    Term::OpenTag {
                        pkg: Value::Var(s("ys")),
                        tvar: tx,
                        x: s("yy"),
                        body: (Term::let_(
                            s("cenv"),
                            Op::Val(Value::pair(x.clone(), k.clone())),
                            Term::let_(
                                s("kp"),
                                Op::Put(rv("r3"), pack),
                                Term::app(
                                    Value::Addr(CD, COPY),
                                    [target],
                                    [rv("r1"), rv("r2"), rv("r3")],
                                    [Value::Var(s("yy")), Value::Var(s("kp"))],
                                ),
                            ),
                        ))
                        .into(),
                    },
                ))
                .into(),
                right: (Term::let_(
                    s("z"),
                    Op::Strip(Value::Var(s("yv"))),
                    sh.invoke(k.clone(), Value::Var(s("z"))),
                ))
                .into(),
            },
        )
    };

    let body = Term::Typecase {
        tag: t.id(),
        int_arm: (scalar_arm.clone()).into(),
        arrow_arm: (scalar_arm).into(),
        prod_arm: (s("ta"), s("tb"), (prod_arm).into()),
        exist_arm: (s("tc"), (exist_arm).into()),
    };
    CodeDef {
        name: s("copy"),
        tvars: vec![(s("t"), Kind::Omega)],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![(s("x"), c_of(t.clone()).id()), (s("k"), sh.tk(&t).id())],
        body,
    }
}

/// Continuation after the first component: copy the second.
///
/// `x1 : M_{r2}(t1)`, `c : C(t1×t2) × (C(t2) × tk[t1×t2])`.
fn fwdpair1() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t1.clone(), t2.clone());
    // Next env: C(t1×t2) × (M_{r2}(t1) × tk[t1×t2]).
    let env_ty = Ty::prod(
        c_of(pair_tag.clone()),
        Ty::prod(Ty::m(rv("r2"), t1.clone()), sh.tk(&pair_tag)),
    );
    let pack = sh.pack(
        Value::Addr(CD, FWDPAIR2),
        [t2.clone(), t1.clone(), Tag::id_fn()],
        env_ty,
        Value::Var(s("cenv")),
        &t2,
    );
    let body = Term::let_(
        s("xorig"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("rest"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("x2src"),
                Op::Proj(1, Value::Var(s("rest"))),
                Term::let_(
                    s("ko"),
                    Op::Proj(2, Value::Var(s("rest"))),
                    Term::let_(
                        s("cenv"),
                        Op::Val(Value::pair(
                            Value::Var(s("xorig")),
                            Value::pair(Value::Var(s("x1")), Value::Var(s("ko"))),
                        )),
                        Term::let_(
                            s("kp"),
                            Op::Put(rv("r3"), pack),
                            Term::app(
                                Value::Addr(CD, COPY),
                                [t2.clone()],
                                [rv("r1"), rv("r2"), rv("r3")],
                                [Value::Var(s("x2src")), Value::Var(s("kp"))],
                            ),
                        ),
                    ),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("fwdpair1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("x1"), Ty::m(rv("r2"), t1.clone()).id()),
            (
                s("c"),
                Ty::prod(c_of(pair_tag.clone()), Ty::prod(c_of(t2), sh.tk(&pair_tag))).id(),
            ),
        ],
        body,
    }
}

/// Continuation after the second component: allocate the copied pair,
/// install the forwarding pointer (`set xorig := inr z`), and return.
///
/// Binders swapped as in `copypair2`: `x2 : M_{r2}(t1)` is the *second*
/// component's copy; the original pair tag is `t2 × t1`.
fn fwdpair2() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t2.clone(), t1.clone());
    let body = Term::let_(
        s("xorig"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("rest"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("x1c"),
                Op::Proj(1, Value::Var(s("rest"))),
                Term::let_(
                    s("ko"),
                    Op::Proj(2, Value::Var(s("rest"))),
                    Term::let_(
                        s("z"),
                        Op::Put(
                            rv("r2"),
                            Value::inl(Value::pair(Value::Var(s("x1c")), Value::Var(s("x2")))),
                        ),
                        Term::Set {
                            dst: Value::Var(s("xorig")),
                            src: Value::inr(Value::Var(s("z"))),
                            body: (sh.invoke(Value::Var(s("ko")), Value::Var(s("z")))).into(),
                        },
                    ),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("fwdpair2"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("x2"), Ty::m(rv("r2"), t1.clone()).id()),
            (
                s("c"),
                Ty::prod(
                    c_of(pair_tag.clone()),
                    Ty::prod(Ty::m(rv("r2"), t2), sh.tk(&pair_tag)),
                )
                .id(),
            ),
        ],
        body,
    }
}

/// Continuation after an existential's payload: re-pack with the original
/// witness, allocate in to-space, forward the original.
///
/// `z : M_{r2}(te t1)`, `c : C(∃u.te u) × tk[∃u.te u]`.
fn fwdexist1() -> CodeDef {
    let sh = shape();
    let t1 = s("t1");
    let te = s("te");
    let u = s("u!x");
    let exist_tag = Tag::exist(u, Tag::app(Tag::Var(te), Tag::Var(u)));
    let payload_tag = Tag::app(Tag::Var(te), Tag::Var(t1));
    let w = s("w!x");
    let repacked = Value::PackTag {
        tvar: w,
        kind: Kind::Omega,
        tag: Tag::Var(t1).into(),
        val: (Value::Var(s("z"))).into(),
        body_ty: Ty::m(rv("r2"), Tag::app(Tag::Var(te), Tag::Var(w))).into(),
    };
    let body = Term::let_(
        s("xorig"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("ko"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("zz"),
                Op::Put(rv("r2"), Value::inl(repacked)),
                Term::Set {
                    dst: Value::Var(s("xorig")),
                    src: Value::inr(Value::Var(s("zz"))),
                    body: (sh.invoke(Value::Var(s("ko")), Value::Var(s("zz")))).into(),
                },
            ),
        ),
    );
    CodeDef {
        name: s("fwdexist1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("z"), Ty::m(rv("r2"), payload_tag).id()),
            (
                s("c"),
                Ty::prod(c_of(exist_tag.clone()), sh.tk(&exist_tag)).id(),
            ),
        ],
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_gc_lang::machine::Program;
    use ps_gc_lang::tyck::Checker;

    /// The forwarding collector is certified by the λGCforw typechecker
    /// (Fig. 8's rules) — including the `widen` whose soundness is §7.1's
    /// central result.
    #[test]
    fn collector_typechecks() {
        let image = collector();
        let program = Program {
            dialect: Dialect::Forwarding,
            code: image.code,
            main: Term::Halt(Value::Int(0)),
        };
        Checker::check_program(&program).unwrap();
    }

    #[test]
    fn image_layout() {
        let image = collector();
        assert_eq!(image.code.len(), 6);
        assert_eq!(image.code[GC as usize].name, s("gc"));
        assert_eq!(image.code[FWDPAIR2 as usize].name, s("fwdpair2"));
    }

    #[test]
    fn copy_checks_the_tag_bit() {
        // Both compound arms must begin with get + ifleft (the read barrier
        // exists only inside the collector, §7).
        let image = collector();
        let text = ps_gc_lang::pretty::code_def_to_string(&image.code[COPY as usize]);
        assert!(text.contains("ifleft"));
        assert!(text.contains("strip"));
    }

    #[test]
    fn forwarding_continuations_install_pointers() {
        let image = collector();
        for off in [FWDPAIR2, FWDEXIST1] {
            let text = ps_gc_lang::pretty::code_def_to_string(&image.code[off as usize]);
            assert!(text.contains("set "), "{}", image.code[off as usize].name);
            assert!(text.contains(":= inr"), "{}", image.code[off as usize].name);
        }
    }
}
