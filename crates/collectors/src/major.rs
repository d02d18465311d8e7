//! Full (major) collection for the generational scheme — the companion
//! collector §8 alludes to ("another function needs to be written to
//! garbage collect the old generation") but does not show.
//!
//! When the old region fills, *everything* live — young and old — is
//! evacuated into a fresh region `rn`, which then becomes the new old
//! generation. The interesting typing fact: a single `copy` suffices for
//! both generations because a value wholly in the old region inhabits the
//! general mutator type by the generational subtyping
//! `M_{ro,ro}(τ) ≤ M_{ry,ro}(τ)` (the bounded-quantification reading of
//! §8's region existentials); the `r = ro` branch feeds old children
//! straight back into the same `copy`.
//!
//! Blocks are appended after the minor collector's six:
//! `gc`=6, `gcend`=7, `copy`=8, `mpair1`=9, `mpair2`=10, `mexist1`=11.

use ps_ir::Symbol;

use ps_gc_lang::syntax::{CodeDef, Kind, Op, Region, Tag, Term, Ty, Value, CD};

use crate::cont::ContShape;
use crate::generational::mutator_fn_ty;

/// Offset of the major `gc` within the combined generational image.
pub const GC: u32 = 6;
const GCEND: u32 = 7;
const COPY: u32 = 8;
const MPAIR1: u32 = 9;
const MPAIR2: u32 = 10;
const MEXIST1: u32 = 11;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn rv(x: &str) -> Region {
    Region::Var(s(x))
}

/// Continuations receive the evacuated value at `M_{rn,rn}(τ)`.
fn shape() -> ContShape {
    ContShape {
        regions: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        recv_ty: |sh, tag| {
            Ty::mgen(
                Region::Var(sh.regions[2]),
                Region::Var(sh.regions[2]),
                tag.clone(),
            )
        },
    }
}

fn mg(young: &str, old: &str, tag: Tag) -> Ty {
    Ty::mgen(rv(young), rv(old), tag)
}

/// The six blocks of the major collector.
pub fn blocks() -> Vec<CodeDef> {
    vec![gc(), gcend(), copy(), mpair1(), mpair2(), mexist1()]
}

/// ```text
/// fix gcmajor[t:Ω][ry,ro](f, x).
///   let region rn in let region r3 in copymajor[t][ry,ro,rn,r3](x, k₀)
/// ```
fn gc() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let f_ty = mutator_fn_ty(t.clone());
    let pack = sh.pack(
        Value::Addr(CD, GCEND),
        [t.clone(), Tag::Int, Tag::id_fn()],
        f_ty.clone(),
        Value::Var(s("f")),
        &t,
    );
    let body = Term::LetRegion {
        rvar: s("rn"),
        body: (Term::LetRegion {
            rvar: s("r3"),
            body: (Term::let_(
                s("k"),
                Op::Put(rv("r3"), pack),
                Term::app(
                    Value::Addr(CD, COPY),
                    [t.clone()],
                    [rv("ry"), rv("ro"), rv("rn"), rv("r3")],
                    [Value::Var(s("x")), Value::Var(s("k"))],
                ),
            ))
            .into(),
        })
        .into(),
    };
    CodeDef {
        name: s("gcmajor"),
        tvars: vec![(s("t"), Kind::Omega)],
        rvars: vec![s("ry"), s("ro")],
        params: vec![
            (s("f"), f_ty.id()),
            (s("x"), mg("ry", "ro", Tag::Var(s("t"))).id()),
        ],
        body,
    }
}

/// ```text
/// fix gcendmajor[…](y : M_{rn,rn}(t1), f).
///   only {rn} in let region ry' in f[][ry',rn](y)
/// ```
///
/// `rn` becomes the new old region; the coercion
/// `M_{rn,rn}(t) ≤ M_{ry',rn}(t)` is the same "free" one Fig. 11's `gc`
/// relies on.
fn gcend() -> CodeDef {
    let t1 = Tag::Var(s("t1"));
    let body = Term::Only {
        regions: vec![rv("rn")],
        body: (Term::LetRegion {
            rvar: s("ry2"),
            body: (Term::app(
                Value::Var(s("f")),
                [],
                [rv("ry2"), rv("rn")],
                [Value::Var(s("y"))],
            ))
            .into(),
        })
        .into(),
    };
    CodeDef {
        name: s("gcendmajor"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        params: vec![
            (s("y"), Ty::mgen(rv("rn"), rv("rn"), t1.clone()).id()),
            (s("f"), mutator_fn_ty(t1).id()),
        ],
        body,
    }
}

/// Repacks a value at `∃r∈{rn}.(body at r)`.
fn repack_new(val: Value, body: Ty) -> Value {
    Value::PackRgn {
        rvar: s("rp!m"),
        bound: (vec![rv("rn")]).into(),
        witness: rv("rn"),
        val: (val).into(),
        body_ty: body.into(),
    }
}

/// The major `copy`: evacuates young *and* old objects into `rn`.
///
/// Both `ifreg` branches copy; the only difference is which regions the
/// children are typed at — and thanks to the generational subtyping, both
/// feed the same recursive call.
fn copy() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let k = Value::Var(s("k"));
    let x = Value::Var(s("x"));
    let all_regions = [rv("ry"), rv("ro"), rv("rn"), rv("r3")];

    let scalar_arm = sh.invoke(k.clone(), x.clone());

    // The copy body shared by both refined branches of the pair arm (after
    // `ifreg`, `xr` has a concrete region, so `get` and the recursive calls
    // typecheck; in the old branch the children are M_{ro,ro}(·) which
    // subtype into copy's M_{ry,ro}(·) parameter).
    let pair_copy = |ta: &Tag, tb: &Tag| {
        let pair_tag = Tag::prod(ta.clone(), tb.clone());
        let env_ty = Ty::prod(mg("ry", "ro", tb.clone()), sh.tk(&pair_tag));
        let pack = sh.pack(
            Value::Addr(CD, MPAIR1),
            [ta.clone(), tb.clone(), Tag::id_fn()],
            env_ty,
            Value::Var(s("cenv")),
            ta,
        );
        Term::let_(
            s("y"),
            Op::Get(Value::Var(s("xr"))),
            Term::let_(
                s("x2src"),
                Op::Proj(2, Value::Var(s("y"))),
                Term::let_(
                    s("cenv"),
                    Op::Val(Value::pair(Value::Var(s("x2src")), k.clone())),
                    Term::let_(
                        s("kp"),
                        Op::Put(rv("r3"), pack),
                        Term::let_(
                            s("x1src"),
                            Op::Proj(1, Value::Var(s("y"))),
                            Term::app(
                                Value::Addr(CD, COPY),
                                [ta.clone()],
                                all_regions,
                                [Value::Var(s("x1src")), Value::Var(s("kp"))],
                            ),
                        ),
                    ),
                ),
            ),
        )
    };

    let prod_arm = {
        let ta = Tag::Var(s("ta"));
        let tb = Tag::Var(s("tb"));
        Term::OpenRgn {
            pkg: x.clone(),
            rvar: s("rx"),
            x: s("xr"),
            body: (Term::IfReg {
                r1: rv("rx"),
                r2: rv("ro"),
                eq: (pair_copy(&ta, &tb)).into(),
                ne: (Term::IfReg {
                    r1: rv("rx"),
                    r2: rv("ry"),
                    eq: (pair_copy(&ta, &tb)).into(),
                    ne: (Term::Halt(Value::Int(0))).into(),
                })
                .into(),
            })
            .into(),
        }
    };

    let exist_copy = |tep: Symbol, tx: Symbol| {
        let u = s("u!m");
        let exist_tag = Tag::exist(u, Tag::app(Tag::Var(tep), Tag::Var(u)));
        let target = Tag::app(Tag::Var(tep), Tag::Var(tx));
        let env_ty = sh.tk(&exist_tag);
        let pack = sh.pack(
            Value::Addr(CD, MEXIST1),
            [Tag::Var(tx), Tag::Int, Tag::Var(tep)],
            env_ty,
            k.clone(),
            &target,
        );
        Term::let_(
            s("y"),
            Op::Get(Value::Var(s("xr"))),
            Term::OpenTag {
                pkg: Value::Var(s("y")),
                tvar: tx,
                x: s("yy"),
                body: (Term::let_(
                    s("kp"),
                    Op::Put(rv("r3"), pack),
                    Term::app(
                        Value::Addr(CD, COPY),
                        [target],
                        all_regions,
                        [Value::Var(s("yy")), Value::Var(s("kp"))],
                    ),
                ))
                .into(),
            },
        )
    };

    let exist_arm = {
        let tep = s("tc");
        let tx = s("tx");
        Term::OpenRgn {
            pkg: x.clone(),
            rvar: s("rx"),
            x: s("xr"),
            body: (Term::IfReg {
                r1: rv("rx"),
                r2: rv("ro"),
                eq: (exist_copy(tep, tx)).into(),
                ne: (Term::IfReg {
                    r1: rv("rx"),
                    r2: rv("ry"),
                    eq: (exist_copy(tep, tx)).into(),
                    ne: (Term::Halt(Value::Int(0))).into(),
                })
                .into(),
            })
            .into(),
        }
    };

    let body = Term::Typecase {
        tag: t.id(),
        int_arm: (scalar_arm.clone()).into(),
        arrow_arm: (scalar_arm).into(),
        prod_arm: (s("ta"), s("tb"), (prod_arm).into()),
        exist_arm: (s("tc"), (exist_arm).into()),
    };
    CodeDef {
        name: s("copymajor"),
        tvars: vec![(s("t"), Kind::Omega)],
        rvars: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        params: vec![
            (s("x"), mg("ry", "ro", t.clone()).id()),
            (s("k"), sh.tk(&t).id()),
        ],
        body,
    }
}

/// Continuation after the first component.
fn mpair1() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t1.clone(), t2.clone());
    let env_ty = Ty::prod(Ty::mgen(rv("rn"), rv("rn"), t1.clone()), sh.tk(&pair_tag));
    let pack = sh.pack(
        Value::Addr(CD, MPAIR2),
        [t2.clone(), t1.clone(), Tag::id_fn()],
        env_ty,
        Value::Var(s("cenv")),
        &t2,
    );
    let body = Term::let_(
        s("x2src"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("ko"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("cenv"),
                Op::Val(Value::pair(Value::Var(s("x1")), Value::Var(s("ko")))),
                Term::let_(
                    s("kp"),
                    Op::Put(rv("r3"), pack),
                    Term::app(
                        Value::Addr(CD, COPY),
                        [t2.clone()],
                        [rv("ry"), rv("ro"), rv("rn"), rv("r3")],
                        [Value::Var(s("x2src")), Value::Var(s("kp"))],
                    ),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("mpair1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        params: vec![
            (s("x1"), Ty::mgen(rv("rn"), rv("rn"), t1.clone()).id()),
            (s("c"), Ty::prod(mg("ry", "ro", t2), sh.tk(&pair_tag)).id()),
        ],
        body,
    }
}

/// Continuation after the second component: allocate in `rn` and
/// region-pack.
fn mpair2() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t2.clone(), t1.clone());
    let rp = s("rp!m");
    let pair_body = Ty::prod(
        Ty::mgen(Region::Var(rp), rv("rn"), t2.clone()),
        Ty::mgen(Region::Var(rp), rv("rn"), t1.clone()),
    );
    let body = Term::let_(
        s("x1c"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("ko"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("zaddr"),
                Op::Put(
                    rv("rn"),
                    Value::pair(Value::Var(s("x1c")), Value::Var(s("x2"))),
                ),
                Term::let_(
                    s("z"),
                    Op::Val(repack_new(Value::Var(s("zaddr")), pair_body)),
                    sh.invoke(Value::Var(s("ko")), Value::Var(s("z"))),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("mpair2"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        params: vec![
            (s("x2"), Ty::mgen(rv("rn"), rv("rn"), t1.clone()).id()),
            (
                s("c"),
                Ty::prod(Ty::mgen(rv("rn"), rv("rn"), t2), sh.tk(&pair_tag)).id(),
            ),
        ],
        body,
    }
}

/// Continuation after an existential's payload.
fn mexist1() -> CodeDef {
    let sh = shape();
    let t1 = s("t1");
    let te = s("te");
    let u = s("u!n");
    let rp = s("rp!m");
    let exist_tag = Tag::exist(u, Tag::app(Tag::Var(te), Tag::Var(u)));
    let payload_tag = Tag::app(Tag::Var(te), Tag::Var(t1));
    let inner_pack = Value::PackTag {
        tvar: u,
        kind: Kind::Omega,
        tag: Tag::Var(t1).into(),
        val: (Value::Var(s("z"))).into(),
        body_ty: Ty::mgen(rv("rn"), rv("rn"), Tag::app(Tag::Var(te), Tag::Var(u))).into(),
    };
    let exist_body = Ty::exist_tag(
        u,
        Kind::Omega,
        Ty::mgen(
            Region::Var(rp),
            rv("rn"),
            Tag::app(Tag::Var(te), Tag::Var(u)),
        ),
    );
    let body = Term::let_(
        s("waddr"),
        Op::Put(rv("rn"), inner_pack),
        Term::let_(
            s("w"),
            Op::Val(repack_new(Value::Var(s("waddr")), exist_body)),
            sh.invoke(Value::Var(s("c")), Value::Var(s("w"))),
        ),
    );
    CodeDef {
        name: s("mexist1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("rn"), s("r3")],
        params: vec![
            (s("z"), Ty::mgen(rv("rn"), rv("rn"), payload_tag).id()),
            (s("c"), sh.tk(&exist_tag).id()),
        ],
        body,
    }
}
