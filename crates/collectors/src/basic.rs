//! The basic stop-and-copy collector — Fig. 12 of the paper (the CPS and
//! closure-converted form of Fig. 4's `gc`/`copy`).
//!
//! Six code blocks, installed at the front of the `cd` region:
//!
//! | offset | block | role |
//! |---|---|---|
//! | 0 | `gc` | entry point: allocate to-space `r₂` and stack region `r₃`, pack the initial continuation, start `copy` |
//! | 1 | `gcend` | final continuation: `only {r₂}`, return to the mutator |
//! | 2 | `copy` | the type-analyzing copy: `typecase t` |
//! | 3 | `copypair1` | continuation after copying a pair's first component |
//! | 4 | `copypair2` | continuation after copying a pair's second component |
//! | 5 | `copyexist1` | continuation after copying an existential's payload |
//!
//! The contract is Fig. 1's: `copy` receives `M_{r₁}(t)` and its
//! continuation receives `M_{r₂}(t)` — the symmetric formulation of §2.2.1
//! that keeps types from growing across collections.

use ps_ir::Symbol;

use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, Region, Tag, Term, Ty, Value, CD};

use crate::cont::{to_space_shape, ContShape};
use crate::CollectorImage;

/// Offset of `gc` within the image.
pub const GC: u32 = 0;
const GCEND: u32 = 1;
const COPY: u32 = 2;
const COPYPAIR1: u32 = 3;
const COPYPAIR2: u32 = 4;
const COPYEXIST1: u32 = 5;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn rv(x: &str) -> Region {
    Region::Var(s(x))
}

/// The type of a translated mutator function pointer,
/// `∀[][r](M_r(t)) → 0 at cd` (Fig. 3 / Fig. 12's `f`).
pub fn mutator_fn_ty(tag: Tag) -> Ty {
    let r = s("rf");
    Ty::code([], [r], [Ty::m(Region::Var(r), tag)]).at(Region::cd())
}

fn shape() -> ContShape {
    to_space_shape(s("r1"), s("r2"), s("r3"))
}

/// Builds Fig. 12's collector. `base` is the cd offset where the image
/// will be installed (0 in every pipeline here; kept explicit for clarity).
pub fn collector() -> CollectorImage {
    CollectorImage {
        dialect: Dialect::Basic,
        code: vec![
            gc(),
            gcend(),
            copy(),
            copypair1(),
            copypair2(),
            copyexist1(),
        ],
        gc_entry: GC,
    }
}

/// `fix gc[t:Ω][r1](f : ∀[][r](M_r(t))→0 at cd, x : M_{r1}(t)).`
fn gc() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let f_ty = mutator_fn_ty(t.clone());
    // let region r2 in let region r3 in
    // let k = put[r3] ⟨t₁=t, t₂=Int, tₑ=λu.u, αc=f_ty, (gcend⟦…⟧, f)⟩ in
    // copy[t][r1,r2,r3](x, k)
    let pack = sh.pack(
        Value::Addr(CD, GCEND),
        [t.clone(), Tag::Int, Tag::id_fn()],
        f_ty.clone(),
        Value::Var(s("f")),
        &t,
    );
    let body = Term::LetRegion {
        rvar: s("r2"),
        body: (Term::LetRegion {
            rvar: s("r3"),
            body: (Term::let_(
                s("k"),
                Op::Put(rv("r3"), pack),
                Term::app(
                    Value::Addr(CD, COPY),
                    [t.clone()],
                    [rv("r1"), rv("r2"), rv("r3")],
                    [Value::Var(s("x")), Value::Var(s("k"))],
                ),
            ))
            .into(),
        })
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

/// `fix gcend[t1,t2,te][r1,r2,r3](y : M_{r2}(t1), f : …). only {r2} in f[][r2](y)`
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

/// The main copy entry point: `typecase t` (Fig. 12).
fn copy() -> CodeDef {
    let sh = shape();
    let t = Tag::Var(s("t"));
    let k = Value::Var(s("k"));
    let x = Value::Var(s("x"));

    // int / λ arms: invoke k with x unchanged.
    let scalar_arm = sh.invoke(k.clone(), x.clone());

    // t1' × t2' arm:
    //   let c_env = (π2 (get x), k) in
    //   let k' = put[r3] ⟨…, (copypair1⟦t1',t2',λu.u⟧, c_env)⟩ in
    //   copy[t1'][r1,r2,r3](π1 (get x), k')
    let prod_arm = {
        let t1p = Tag::Var(s("ta"));
        let t2p = Tag::Var(s("tb"));
        let pair_tag = Tag::prod(t1p.clone(), t2p.clone());
        let env_ty = Ty::prod(Ty::m(rv("r1"), t2p.clone()), sh.tk(&pair_tag));
        let pack = sh.pack(
            Value::Addr(CD, COPYPAIR1),
            [t1p.clone(), t2p.clone(), Tag::id_fn()],
            env_ty,
            Value::Var(s("cenv")),
            &t1p,
        );
        Term::let_(
            s("xv"),
            Op::Get(x.clone()),
            Term::let_(
                s("x2src"),
                Op::Proj(2, Value::Var(s("xv"))),
                Term::let_(
                    s("cenv"),
                    Op::Val(Value::pair(Value::Var(s("x2src")), k.clone())),
                    Term::let_(
                        s("kp"),
                        Op::Put(rv("r3"), pack),
                        Term::let_(
                            s("x1src"),
                            Op::Proj(1, Value::Var(s("xv"))),
                            Term::app(
                                Value::Addr(CD, COPY),
                                [t1p],
                                [rv("r1"), rv("r2"), rv("r3")],
                                [Value::Var(s("x1src")), Value::Var(s("kp"))],
                            ),
                        ),
                    ),
                ),
            ),
        )
    };

    // ∃te' arm:
    //   open (get x) as ⟨tx, y⟩ in
    //   let k' = put[r3] ⟨…, (copyexist1⟦tx,Int,te'⟧, k)⟩ in
    //   copy[te' tx][r1,r2,r3](y, k')
    let exist_arm = {
        let tep = s("tc");
        let exist_tag = Tag::exist(s("u!e"), Tag::app(Tag::Var(tep), Tag::Var(s("u!e"))));
        let tx = s("tx");
        let target = Tag::app(Tag::Var(tep), Tag::Var(tx));
        let env_ty = sh.tk(&exist_tag);
        let pack = sh.pack(
            Value::Addr(CD, COPYEXIST1),
            [Tag::Var(tx), Tag::Int, Tag::Var(tep)],
            env_ty,
            k.clone(),
            &target,
        );
        Term::let_(
            s("xv"),
            Op::Get(x.clone()),
            Term::OpenTag {
                pkg: Value::Var(s("xv")),
                tvar: tx,
                x: s("y"),
                body: (Term::let_(
                    s("kp"),
                    Op::Put(rv("r3"), pack),
                    Term::app(
                        Value::Addr(CD, COPY),
                        [target],
                        [rv("r1"), rv("r2"), rv("r3")],
                        [Value::Var(s("y")), Value::Var(s("kp"))],
                    ),
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
        params: vec![
            (s("x"), Ty::m(rv("r1"), t.clone()).id()),
            (s("k"), sh.tk(&t).id()),
        ],
        body,
    }
}

/// First continuation when copying a pair: holds the un-copied second
/// component and the outer continuation.
///
/// Binders: `x1 : M_{r2}(t1)`, `c : M_{r1}(t2) × tk[t1 × t2]`.
fn copypair1() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t1.clone(), t2.clone());
    // Continuation for the second copy: copypair2⟦t2, t1, λu.u⟧ with
    // environment (x1, outer k) : M_{r2}(t1) × tk[t1 × t2].
    let env_ty = Ty::prod(Ty::m(rv("r2"), t1.clone()), sh.tk(&pair_tag));
    let pack = sh.pack(
        Value::Addr(CD, COPYPAIR2),
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
                        [rv("r1"), rv("r2"), rv("r3")],
                        [Value::Var(s("x2src")), Value::Var(s("kp"))],
                    ),
                ),
            ),
        ),
    );
    CodeDef {
        name: s("copypair1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("x1"), Ty::m(rv("r2"), t1.clone()).id()),
            (s("c"), Ty::prod(Ty::m(rv("r1"), t2), sh.tk(&pair_tag)).id()),
        ],
        body,
    }
}

/// Second continuation when copying a pair: allocate the copied pair in
/// to-space and invoke the outer continuation.
///
/// Binders (note the swap relative to `copypair1`): `x2 : M_{r2}(t1)` is the
/// *second* component's copy (`t1` here is the pair's `t2`), and
/// `c : M_{r2}(t2) × tk[t2 × t1]` holds the first component's copy and the
/// outer continuation.
///
/// paper: Fig. 12 annotates `x2 : M_{r2}(t2)` with `c : M_{r2}(t1) ×
/// tk[t1×t2]`, which does not match its own instantiation
/// `copypair2⟦t2,t1,λt.t⟧` in `copypair1` (the received value must sit in
/// the code's *first* tag slot for the continuation calculus to line up);
/// we use the consistent assignment.
fn copypair2() -> CodeDef {
    let sh = shape();
    let t1 = Tag::Var(s("t1"));
    let t2 = Tag::Var(s("t2"));
    let pair_tag = Tag::prod(t2.clone(), t1.clone());
    let body = Term::let_(
        s("x1c"),
        Op::Proj(1, Value::Var(s("c"))),
        Term::let_(
            s("ko"),
            Op::Proj(2, Value::Var(s("c"))),
            Term::let_(
                s("z"),
                Op::Put(
                    rv("r2"),
                    Value::pair(Value::Var(s("x1c")), Value::Var(s("x2"))),
                ),
                sh.invoke(Value::Var(s("ko")), Value::Var(s("z"))),
            ),
        ),
    );
    CodeDef {
        name: s("copypair2"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("x2"), Ty::m(rv("r2"), t1.clone()).id()),
            (s("c"), Ty::prod(Ty::m(rv("r2"), t2), sh.tk(&pair_tag)).id()),
        ],
        body,
    }
}

/// Continuation when copying an existential package: re-pack the copied
/// payload with the original witness tag and allocate it in to-space.
///
/// Binders: `z : M_{r2}(te t1)` (the copied payload, `t1` being the
/// witness), `c : tk[∃u.te u]`.
fn copyexist1() -> CodeDef {
    let sh = shape();
    let t1 = s("t1");
    let te = s("te");
    let u = s("u!x");
    let exist_tag = Tag::exist(u, Tag::app(Tag::Var(te), Tag::Var(u)));
    let payload_tag = Tag::app(Tag::Var(te), Tag::Var(t1));
    // put[r2] ⟨w = t1, z : M_{r2}(te w)⟩ : M_{r2}(∃u.te u)
    let w = s("w!x");
    let repacked = Value::PackTag {
        tvar: w,
        kind: Kind::Omega,
        tag: Tag::Var(t1).into(),
        val: (Value::Var(s("z"))).into(),
        body_ty: Ty::m(rv("r2"), Tag::app(Tag::Var(te), Tag::Var(w))).into(),
    };
    let body = Term::let_(
        s("zz"),
        Op::Put(rv("r2"), repacked),
        sh.invoke(Value::Var(s("c")), Value::Var(s("zz"))),
    );
    CodeDef {
        name: s("copyexist1"),
        tvars: vec![
            (s("t1"), Kind::Omega),
            (s("t2"), Kind::Omega),
            (s("te"), Kind::Arrow),
        ],
        rvars: vec![s("r1"), s("r2"), s("r3")],
        params: vec![
            (s("z"), Ty::m(rv("r2"), payload_tag).id()),
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

    /// The headline result: our λGC typechecker certifies Fig. 12's
    /// collector, block by block, with no mutator present.
    #[test]
    fn collector_typechecks() {
        let image = collector();
        let program = Program {
            dialect: Dialect::Basic,
            code: image.code,
            main: Term::Halt(Value::Int(0)),
        };
        Checker::check_program(&program).unwrap();
    }

    #[test]
    fn image_layout() {
        let image = collector();
        assert_eq!(image.code.len(), 6);
        assert_eq!(image.gc_entry, GC);
        assert_eq!(image.code[GC as usize].name, s("gc"));
        assert_eq!(image.code[COPY as usize].name, s("copy"));
    }

    #[test]
    fn gc_signature_matches_fig12() {
        let image = collector();
        let gc = &image.code[GC as usize];
        assert_eq!(gc.tvars.len(), 1);
        assert_eq!(gc.rvars.len(), 1);
        assert_eq!(gc.params.len(), 2);
        // x : M_{r1}(t)
        match gc.params[1].1.node() {
            Ty::M(Region::Var(r), tag) => {
                assert_eq!(*r, s("r1"));
                assert_eq!(**tag, Tag::Var(s("t")));
            }
            other => panic!("unexpected x type {other:?}"),
        }
    }

    #[test]
    fn continuation_blocks_have_the_unified_binders() {
        // Appendix B: all continuations take [t1:Ω, t2:Ω, te:Ω→Ω].
        let image = collector();
        for off in [GCEND, COPYPAIR1, COPYPAIR2, COPYEXIST1] {
            let def = &image.code[off as usize];
            assert_eq!(def.tvars.len(), 3, "{}", def.name);
            assert_eq!(def.tvars[2].1, Kind::Arrow, "{}", def.name);
            assert_eq!(def.rvars.len(), 3, "{}", def.name);
            assert_eq!(def.params.len(), 2, "{}", def.name);
        }
    }

    #[test]
    fn collector_prints() {
        // The pretty-printed collector should resemble Fig. 12.
        let image = collector();
        let text = ps_gc_lang::pretty::code_def_to_string(&image.code[COPY as usize]);
        assert!(text.contains("typecase t of"));
        assert!(text.contains("copy"));
    }
}
