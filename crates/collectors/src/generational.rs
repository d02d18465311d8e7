//! The generational collector of §8 / Fig. 11, in executable (CPS and
//! closure-converted) form.
//!
//! Fig. 11's `copy[t][ry,ro] : M_{ry,ro}(t) → M_{ro,ro}(t)` copies young
//! objects into the old region and *stops traversing as soon as it hits a
//! reference into the old generation* — sound because the two-index `M`
//! operator forces old objects never to point young (§8). Region
//! existentials hide which generation an object is in; the collector
//! recovers it with `ifreg`.
//!
//! Two departures from the figure, each marked `paper:` below:
//!
//! * Fig. 11's not-old branch needs the children typed `M_{ry,ro}(·)`,
//!   which requires knowing `r = ry`; we test `ifreg (r = ry)` explicitly
//!   (with an unreachable-but-well-typed fallback), since only the equal
//!   branch of `ifreg` refines.
//! * `gc` hands the copy result (`M_{ro,ro}(t)`) to the mutator expecting
//!   `M_{ry',ro}(t)` at the fresh young region — the "free" coercion §8
//!   asserts; it is the generational subtyping rule of our checker.
//!
//! Blocks: `gc`=0, `gcend`=1, `copy`=2, `gpair1`=3, `gpair2`=4,
//! `gexist1`=5.

use ps_ir::Symbol;

use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, Region, Tag, Term, Ty, Value, CD};

use crate::cont::ContShape;
use crate::CollectorImage;

/// Offset of `gc` within the image.
pub const GC: u32 = 0;
const GCEND: u32 = 1;
const COPY: u32 = 2;
const GPAIR1: u32 = 3;
const GPAIR2: u32 = 4;
const GEXIST1: u32 = 5;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn rv(x: &str) -> Region {
    Region::Var(s(x))
}

/// Continuations receive the copied value at `M_{ro,ro}(τ)`.
fn shape() -> ContShape {
    ContShape {
        regions: vec![s("ry"), s("ro"), s("r3")],
        recv_ty: |sh, tag| {
            Ty::mgen(
                Region::Var(sh.regions[1]),
                Region::Var(sh.regions[1]),
                tag.clone(),
            )
        },
    }
}

/// The mutator-view operator at the collector's regions.
fn mg(young: &str, old: &str, tag: Tag) -> Ty {
    Ty::mgen(rv(young), rv(old), tag)
}

/// The type of a translated mutator function pointer in the generational
/// dialect: `∀[][ry,ro](M_{ry,ro}(t)) → 0 at cd`.
pub fn mutator_fn_ty(tag: Tag) -> Ty {
    let ry = s("ryf");
    let ro = s("rof");
    Ty::code(
        [],
        [ry, ro],
        [Ty::mgen(Region::Var(ry), Region::Var(ro), tag)],
    )
    .at(Region::cd())
}

/// Builds the generational collector: the six minor-collection blocks of
/// Fig. 11 followed by the six major-collection blocks of
/// [`crate::major`].
pub fn collector() -> CollectorImage {
    let mut code = vec![gc(), gcend(), copy(), gpair1(), gpair2(), gexist1()];
    code.extend(crate::major::blocks());
    CollectorImage {
        dialect: Dialect::Generational,
        code,
        gc_entry: GC,
    }
}

/// ```text
/// fix gc[t:Ω][ry,ro](f, x).
///   ifgc ro (gcmajor[t][ry,ro](f, x))
///   (let region r3 in copy[t][ry,ro,r3](x, k₀))
/// ```
///
/// The old-region fullness check and the fall-through to the major
/// collector are our extension (§8 only sketches that a full collection
/// must exist).
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
    let minor = Term::LetRegion {
        rvar: s("r3"),
        body: (Term::let_(
            s("k"),
            Op::Put(rv("r3"), pack),
            Term::app(
                Value::Addr(CD, COPY),
                [t.clone()],
                [rv("ry"), rv("ro"), rv("r3")],
                [Value::Var(s("x")), Value::Var(s("k"))],
            ),
        ))
        .into(),
    };
    let body = Term::IfGc {
        rho: rv("ro"),
        full: (Term::app(
            Value::Addr(CD, crate::major::GC),
            [t.clone()],
            [rv("ry"), rv("ro")],
            [Value::Var(s("f")), Value::Var(s("x"))],
        ))
        .into(),
        cont: (minor).into(),
    };
    CodeDef {
        name: s("gc"),
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
/// fix gcend[…](y : M_{ro,ro}(t1), f).
///   only {ro} in let region ry' in f[][ry',ro](y)
/// ```
fn gcend() -> CodeDef {
    let t1 = Tag::Var(s("t1"));
    let body = Term::Only {
        regions: vec![rv("ro")],
        body: (Term::LetRegion {
            rvar: s("ry2"),
            body: (Term::app(
                Value::Var(s("f")),
                [],
                [rv("ry2"), rv("ro")],
                [Value::Var(s("y"))],
            ))
            .into(),
        })
        .into(),
    };
    CodeDef {
        name: s("gcend"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("r3")],
        params: vec![
            (s("y"), Ty::mgen(rv("ro"), rv("ro"), t1.clone()).id()),
            (s("f"), mutator_fn_ty(t1).id()),
        ],
        body,
    }
}

/// Repacks a value at `∃r∈{ro}.(body at r)` with witness `ro` — the "free"
/// repacking Fig. 11 performs "just to help the type-system".
fn repack_old(val: Value, body: Ty) -> Value {
    Value::PackRgn {
        rvar: s("rp!g"),
        bound: (vec![rv("ro")]).into(),
        witness: rv("ro"),
        val: (val).into(),
        body_ty: body.into(),
    }
}

/// The generational `copy` (Fig. 11's, CPS'd).
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
        let rp = s("rp!g");
        let pair_body = |old: &str| {
            Ty::prod(
                Ty::mgen(Region::Var(rp), rv(old), ta.clone()),
                Ty::mgen(Region::Var(rp), rv(old), tb.clone()),
            )
        };
        // Already old: repack and return.
        let old_branch = {
            let z = repack_old(Value::Var(s("xr")), pair_body("ro"));
            Term::let_(s("z"), Op::Val(z), sh.invoke(k.clone(), Value::Var(s("z"))))
        };
        // Young: copy both components via the continuation chain.
        let young_branch = {
            let env_ty = Ty::prod(mg("ry", "ro", tb.clone()), sh.tk(&pair_tag));
            let pack = sh.pack(
                Value::Addr(CD, GPAIR1),
                [ta.clone(), tb.clone(), Tag::id_fn()],
                env_ty,
                Value::Var(s("cenv")),
                &ta,
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
                                    [ta],
                                    [rv("ry"), rv("ro"), rv("r3")],
                                    [Value::Var(s("x1src")), Value::Var(s("kp"))],
                                ),
                            ),
                        ),
                    ),
                ),
            )
        };
        Term::OpenRgn {
            pkg: x.clone(),
            rvar: s("rx"),
            x: s("xr"),
            body: (Term::IfReg {
                r1: rv("rx"),
                r2: rv("ro"),
                eq: (old_branch).into(),
                ne: (Term::IfReg {
                    r1: rv("rx"),
                    r2: rv("ry"),
                    eq: (young_branch).into(),
                    // paper: unreachable — the bound is {ry, ro} — but only
                    // equal branches refine, so a well-typed fallback is
                    // needed.
                    ne: (Term::Halt(Value::Int(0))).into(),
                })
                .into(),
            })
            .into(),
        }
    };

    let exist_arm = {
        let tep = s("tc");
        let u = s("u!g");
        let tx = s("tx");
        let exist_tag = Tag::exist(u, Tag::app(Tag::Var(tep), Tag::Var(u)));
        let target = Tag::app(Tag::Var(tep), Tag::Var(tx));
        let rp = s("rp!g");
        let exist_body = Ty::exist_tag(
            u,
            Kind::Omega,
            Ty::mgen(
                Region::Var(rp),
                rv("ro"),
                Tag::app(Tag::Var(tep), Tag::Var(u)),
            ),
        );
        let old_branch = {
            let z = repack_old(Value::Var(s("xr")), exist_body.clone());
            Term::let_(s("z"), Op::Val(z), sh.invoke(k.clone(), Value::Var(s("z"))))
        };
        let young_branch = {
            let env_ty = sh.tk(&exist_tag);
            let pack = sh.pack(
                Value::Addr(CD, GEXIST1),
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
                            [rv("ry"), rv("ro"), rv("r3")],
                            [Value::Var(s("yy")), Value::Var(s("kp"))],
                        ),
                    ))
                    .into(),
                },
            )
        };
        Term::OpenRgn {
            pkg: x.clone(),
            rvar: s("rx"),
            x: s("xr"),
            body: (Term::IfReg {
                r1: rv("rx"),
                r2: rv("ro"),
                eq: (old_branch).into(),
                ne: (Term::IfReg {
                    r1: rv("rx"),
                    r2: rv("ry"),
                    eq: (young_branch).into(),
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
        name: s("copy"),
        tvars: vec![(s("t"), Kind::Omega)],
        rvars: vec![s("ry"), s("ro"), s("r3")],
        params: vec![
            (s("x"), mg("ry", "ro", t.clone()).id()),
            (s("k"), sh.tk(&t).id()),
        ],
        body,
    }
}

/// Continuation after the first component: copy the second.
fn gpair1() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t1.clone(), t2.clone());
    let env_ty = Ty::prod(Ty::mgen(rv("ro"), rv("ro"), t1.clone()), sh.tk(&pair_tag));
    let pack = sh.pack(
        Value::Addr(CD, GPAIR2),
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
                        [rv("ry"), rv("ro"), rv("r3")],
                        [Value::Var(s("x2src")), Value::Var(s("kp"))],
                    ),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("gpair1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("r3")],
        params: vec![
            (s("x1"), Ty::mgen(rv("ro"), rv("ro"), t1.clone()).id()),
            (s("c"), Ty::prod(mg("ry", "ro", t2), sh.tk(&pair_tag)).id()),
        ],
        body,
    }
}

/// Continuation after the second component: allocate the copied pair in the
/// old region and region-pack it (binders swapped as in `copypair2`).
fn gpair2() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t2.clone(), t1.clone());
    let rp = s("rp!g");
    let pair_body = Ty::prod(
        Ty::mgen(Region::Var(rp), rv("ro"), t2.clone()),
        Ty::mgen(Region::Var(rp), rv("ro"), t1.clone()),
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
                    rv("ro"),
                    Value::pair(Value::Var(s("x1c")), Value::Var(s("x2"))),
                ),
                Term::let_(
                    s("z"),
                    Op::Val(repack_old(Value::Var(s("zaddr")), pair_body)),
                    sh.invoke(Value::Var(s("ko")), Value::Var(s("z"))),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("gpair2"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("r3")],
        params: vec![
            (s("x2"), Ty::mgen(rv("ro"), rv("ro"), t1.clone()).id()),
            (
                s("c"),
                Ty::prod(Ty::mgen(rv("ro"), rv("ro"), t2), sh.tk(&pair_tag)).id(),
            ),
        ],
        body,
    }
}

/// Continuation after an existential's payload: re-pack with the original
/// witness into the old region.
fn gexist1() -> CodeDef {
    let sh = shape();
    let t1 = s("t1");
    let te = s("te");
    let u = s("u!h");
    let rp = s("rp!g");
    let exist_tag = Tag::exist(u, Tag::app(Tag::Var(te), Tag::Var(u)));
    let payload_tag = Tag::app(Tag::Var(te), Tag::Var(t1));
    let inner_pack = Value::PackTag {
        tvar: u,
        kind: Kind::Omega,
        tag: Tag::Var(t1).into(),
        val: (Value::Var(s("z"))).into(),
        body_ty: Ty::mgen(rv("ro"), rv("ro"), Tag::app(Tag::Var(te), Tag::Var(u))).into(),
    };
    let exist_body = Ty::exist_tag(
        u,
        Kind::Omega,
        Ty::mgen(
            Region::Var(rp),
            rv("ro"),
            Tag::app(Tag::Var(te), Tag::Var(u)),
        ),
    );
    let body = Term::let_(
        s("waddr"),
        Op::Put(rv("ro"), inner_pack),
        Term::let_(
            s("w"),
            Op::Val(repack_old(Value::Var(s("waddr")), exist_body)),
            sh.invoke(Value::Var(s("c")), Value::Var(s("w"))),
        ),
    );
    CodeDef {
        name: s("gexist1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("ry"), s("ro"), s("r3")],
        params: vec![
            (s("z"), Ty::mgen(rv("ro"), rv("ro"), payload_tag).id()),
            (s("c"), sh.tk(&exist_tag).id()),
        ],
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_gc_lang::machine::Program;
    use ps_gc_lang::tyck::Checker;

    /// The generational collector is certified by the λGCgen typechecker
    /// (Fig. 10's rules, plus the documented subtyping).
    #[test]
    fn collector_typechecks() {
        let image = collector();
        let program = Program {
            dialect: Dialect::Generational,
            code: image.code,
            main: Term::Halt(Value::Int(0)),
        };
        Checker::check_program(&program).unwrap();
    }

    #[test]
    fn image_layout() {
        let image = collector();
        assert_eq!(image.code.len(), 12, "six minor + six major blocks");
        assert_eq!(image.code[GC as usize].name, s("gc"));
        assert_eq!(image.code[GC as usize].rvars.len(), 2, "gc takes [ry, ro]");
        assert_eq!(image.code[crate::major::GC as usize].name, s("gcmajor"));
        assert_eq!(image.code[11].name, s("mexist1"));
    }

    #[test]
    fn minor_gc_falls_through_to_major() {
        let image = collector();
        let text = ps_gc_lang::pretty::code_def_to_string(&image.code[GC as usize]);
        assert!(
            text.contains("ifgc ro"),
            "minor gc checks the old region first"
        );
        assert!(text.contains("cd.6"), "… and calls the major collector");
    }

    #[test]
    fn copy_stops_at_old_objects() {
        // The pair and existential arms test `ifreg (rx = ro)` before
        // descending.
        let image = collector();
        let text = ps_gc_lang::pretty::code_def_to_string(&image.code[COPY as usize]);
        assert!(text.contains("ifreg (rx = ro)"));
        assert!(text.contains("ifreg (rx = ry)"));
    }

    #[test]
    fn gcend_reuses_the_old_region() {
        let image = collector();
        let text = ps_gc_lang::pretty::code_def_to_string(&image.code[GCEND as usize]);
        assert!(text.contains("only {ro} in"));
        assert!(text.contains("let region ry2 in"));
    }
}
