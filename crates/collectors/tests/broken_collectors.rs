//! The paper's software-engineering claim, §2: "a type-safe GC must make
//! explicit the contract between the collector and the mutator and it must
//! make sure that it is always respected. Without typechecking, such rules
//! can prove difficult to implement correctly and bugs can be very
//! difficult to find."
//!
//! This suite injects classic garbage-collector bugs into the certified
//! collectors and shows that the λGC typechecker rejects every one of them
//! — each would be a silent heap corruption in an untyped collector.

use ps_collectors::{basic, forwarding, generational};
use ps_gc_lang::machine::Program;
use ps_gc_lang::syntax::{CodeDef, Dialect, Op, Region, Term, Value};
use ps_gc_lang::tyck::Checker;
use ps_ir::Symbol;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn check(dialect: Dialect, code: Vec<CodeDef>) -> Result<(), ps_gc_lang::error::LangError> {
    Checker::check_program(&Program {
        dialect,
        code,
        main: Term::Halt(Value::Int(0)),
    })
}

/// Rewrites every `Region::Var(from)` to `Region::Var(to)` inside a term —
/// the "wrong region" class of bugs.
fn swap_regions(e: &Term, from: Symbol, to: Symbol) -> Term {
    ps_gc_lang::subst::Subst::one_rgn(from, Region::Var(to)).term(e)
}

/// Finds a block by name.
fn block_mut<'a>(code: &'a mut [CodeDef], name: &str) -> &'a mut CodeDef {
    code.iter_mut()
        .find(|d| d.name == s(name))
        .unwrap_or_else(|| panic!("no block {name}"))
}

/// Certifies `code`, which must be rejected, and returns the full text of
/// the rejection.
fn rejection(dialect: Dialect, code: Vec<CodeDef>) -> String {
    check(dialect, code).unwrap_err().to_string()
}

// ===== the rejections, byte for byte ======================================
//
// Each mutant's whole message is pinned, not a substring of it: the
// certifier's wording, the types it prints and the context chain all stay
// as they are unless a change means to move them.

const ALLOCATING_COPIES_IN_FROM_SPACE: &str =
    "type error: translucent application region mismatch: given r1, recorded r2\n  \
    in body of copypair2\n  \
    in code block copypair2";

const COPYING_THE_WRONG_FIELD: &str =
    "type error: value has type Prod(M(Var(r1), Var(ta)), At(ExistTag { tvar: t1!k, \
    kind: Omega, body: ExistTag { tvar: t2!k, kind: Omega, body: ExistTag { tvar: \
    te!k, kind: Arrow, body: ExistAlpha { avar: ac!k, regions: [Var(r1), Var(r2), \
    Var(r3)], body: Prod(Trans { tags: [Var(t1!k), Var(t2!k), Var(te!k)], regions: \
    [Var(r1), Var(r2), Var(r3)], args: [At(Prod(M(Var(r2), Var(ta)), M(Var(r2), \
    Var(tb))), Var(r2)), Alpha(ac!k)], rho: Name(RegionName(0)) }, Alpha(ac!k)) } } \
    } }, Var(r3))) but Prod(M(Var(r1), Var(tb)), At(ExistTag { tvar: t1!k, kind: \
    Omega, body: ExistTag { tvar: t2!k, kind: Omega, body: ExistTag { tvar: te!k, \
    kind: Arrow, body: ExistAlpha { avar: ac!k, regions: [Var(r1), Var(r2), \
    Var(r3)], body: Prod(Trans { tags: [Var(t1!k), Var(t2!k), Var(te!k)], regions: \
    [Var(r1), Var(r2), Var(r3)], args: [At(Prod(M(Var(r2), Var(ta)), M(Var(r2), \
    Var(tb))), Var(r2)), Alpha(ac!k)], rho: Name(RegionName(0)) }, Alpha(ac!k)) } } \
    } }, Var(r3))) was expected\n  \
    in α-package payload\n  \
    in while checking value PackAlpha { avar: ac!k, regions: [Var(r1), Var(r2), \
    Var(r3)], witness: Prod(M(Var(r1), Var(tb)), At(ExistTag { tvar: t1!k, kind: \
    Omega, body: ExistTag { tvar: t2!k, kind: Omega, body: ExistTag { tvar: te!k, \
    kind: Arrow, body: ExistAlpha { avar: ac!k, regions: [Var(r1), Var(r2), \
    Var(r3)], body: Prod(Trans { tags: [Var(t1!k), Var(t2!k), Var(te!k)], regions: \
    [Var(r1), Var(r2), Var(r3)], args: [M(Var(r2), Prod(Var(ta), Var(tb))), \
    Alpha(ac!k)], rho: Name(RegionName(0)) }, Alpha(ac!k)) } } } }, Var(r3))), val: \
    Pair(TagApp(Addr(RegionName(0), 3), [Var(ta), Var(tb), Lam(t_id, Var(t_id))], \
    [Var(r1), Var(r2), Var(r3)]), Var(cenv)), body_ty: Prod(Trans { tags: [Var(ta), \
    Var(tb), Lam(t_id, Var(t_id))], regions: [Var(r1), Var(r2), Var(r3)], args: \
    [M(Var(r2), Var(ta)), Alpha(ac!k)], rho: Name(RegionName(0)) }, Alpha(ac!k)) }\n  \
    in tag package payload\n  \
    in let-binding of kp\n  \
    in typecase × arm\n  \
    in body of copy\n  \
    in code block copy";

const DIALECT_VIOLATIONS: &str = "dialect violation: inl is not part of λGC\n  \
    in let-binding of w0\n  \
    in body of gc\n  \
    in code block gc";

const EXIST_ARM_MUTANT: &str =
    "type error: value has type At(ExistTag { tvar: t#u, kind: Omega, body: \
    M(Var(r1), App(Var(tc), Var(t#u))) }, Var(r1)) but M(Var(r1), App(Var(tc), \
    Var(tx))) was expected\n  \
    in argument 1\n  \
    in typecase ∃ arm\n  \
    in body of copy\n  \
    in code block copy";

const FORWARDING_TO_FROM_SPACE: &str =
    "type error: value has type Right(At(Sum(Prod(C(Var(r1), Var(r2), Var(t2)), \
    C(Var(r1), Var(r2), Var(t1))), At(Left(Prod(M(Var(r2), Var(t2)), M(Var(r2), \
    Var(t1)))), Var(r2))), Var(r1))) but Sum(Prod(C(Var(r1), Var(r2), Var(t2)), \
    C(Var(r1), Var(r2), Var(t1))), At(Left(Prod(M(Var(r2), Var(t2)), M(Var(r2), \
    Var(t1)))), Var(r2))) was expected\n  \
    in set source\n  \
    in body of fwdpair2\n  \
    in code block fwdpair2";

const FORWARDING_WITH_THE_WRONG_TAG_BIT: &str =
    "type error: value has type Left(At(Left(Prod(M(Var(r2), Var(t2)), M(Var(r2), \
    Var(t1)))), Var(r2))) but Sum(Prod(C(Var(r1), Var(r2), Var(t2)), C(Var(r1), \
    Var(r2), Var(t1))), At(Left(Prod(M(Var(r2), Var(t2)), M(Var(r2), Var(t1)))), \
    Var(r2))) was expected\n  \
    in set source\n  \
    in body of fwdpair2\n  \
    in code block fwdpair2";

const FREEING_THE_WRONG_REGION: &str = "type error: unbound variable y\n  \
    in while checking value Var(y)\n  \
    in argument 1\n  \
    in body of gcend\n  \
    in code block gcend";

const GENERATIONAL_FREEING_OLD_REGION: &str = "type error: unbound variable y\n  \
    in while checking value Var(y)\n  \
    in argument 1\n  \
    in body of gcend\n  \
    in code block gcend";

const IFREG_MUTANT: &str =
    "type error: translucent application region mismatch: given ry, recorded r#eq0\n  \
    in typecase × arm\n  \
    in body of copy\n  \
    in code block copy";

const PROMOTING_INTO_THE_YOUNG_REGION: &str =
    "type error: value has type At(Prod(MGen(Var(ro), Var(ro), Var(t2)), \
    MGen(Var(ro), Var(ro), Var(t1))), Var(ry)) but At(Prod(MGen(Var(ry), Var(ry), \
    Var(t2)), MGen(Var(ry), Var(ry), Var(t1))), Var(ry)) was expected\n  \
    in region package payload\n  \
    in let-binding of z\n  \
    in body of gpair2\n  \
    in code block gpair2";

const RETURNING_FROM_SPACE_POINTERS: &str =
    "type error: value has type At(Prod(M(Var(r1), Var(ta)), M(Var(r1), Var(tb))), \
    Var(r1)) but At(Prod(M(Var(r2), Var(ta)), M(Var(r2), Var(tb))), Var(r2)) was \
    expected\n  \
    in argument 1\n  \
    in typecase × arm\n  \
    in body of copy\n  \
    in code block copy";

// ===== basic collector ====================================================

#[test]
fn sanity_unmodified_collectors_certify() {
    check(Dialect::Basic, basic::collector().code).unwrap();
    check(Dialect::Forwarding, forwarding::collector().code).unwrap();
    check(Dialect::Generational, generational::collector().code).unwrap();
}

/// Bug: the collector "copies" a pair by returning the from-space pointer
/// instead of allocating in to-space (`put[r1]` instead of `put[r2]` in
/// `copypair2`). After `only {r2}` the mutator would chase a dangling
/// pointer.
#[test]
fn allocating_copies_in_from_space_is_rejected() {
    let mut image = basic::collector();
    let block = block_mut(&mut image.code, "copypair2");
    block.body = swap_regions(&block.body, s("r2"), s("r1"));
    assert_eq!(
        rejection(Dialect::Basic, image.code),
        ALLOCATING_COPIES_IN_FROM_SPACE
    );
}

/// Bug: `gcend` frees the *to*-space and keeps the from-space
/// (`only {r1}` instead of `only {r2}`) — the freshly copied data would be
/// reclaimed.
#[test]
fn freeing_the_wrong_region_is_rejected() {
    let mut image = basic::collector();
    let block = block_mut(&mut image.code, "gcend");
    // Replace `only {r2} in f[][r2](y)` with `only {r1} in f[][r1](y)`.
    block.body = swap_regions(&block.body, s("r2"), s("r1"));
    // y : M_{r2}(t1) does not survive the restriction to {r1}.
    assert_eq!(
        rejection(Dialect::Basic, image.code),
        FREEING_THE_WRONG_REGION
    );
}

/// Bug: `gcend` forgets to free anything (drops the `only`) — not unsound,
/// but then the mutator resumes with the from-space alive; the type system
/// ACCEPTS this (it is safe, just leaky), which is exactly the paper's
/// point that safety, not completeness of reclamation, is what is
/// certified.
#[test]
fn leaky_collector_is_safe_and_accepted() {
    let mut image = basic::collector();
    let block = block_mut(&mut image.code, "gcend");
    block.body = Term::app(
        Value::Var(s("f")),
        [],
        [Region::Var(s("r2"))],
        [Value::Var(s("y"))],
    );
    check(Dialect::Basic, image.code).unwrap();
}

/// Bug: copy's pair arm copies the first component *twice* and never the
/// second (a classic transposition). The second component of the new pair
/// would have the wrong type whenever t1 ≠ t2.
#[test]
fn copying_the_wrong_field_is_rejected() {
    let mut image = basic::collector();
    let block = block_mut(&mut image.code, "copy");
    // In copy's body, the pair arm projects π2 for the continuation env and
    // π1 for the recursive call; make both π1.
    fn fix_proj(e: &Term) -> Term {
        match e {
            Term::Let {
                x,
                op: Op::Proj(2, v),
                body,
            } if *x == Symbol::intern("x2src") => Term::Let {
                x: *x,
                op: Op::Proj(1, v.clone()),
                body: (fix_proj(body)).into(),
            },
            Term::Let { x, op, body } => Term::Let {
                x: *x,
                op: op.clone(),
                body: (fix_proj(body)).into(),
            },
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm,
                exist_arm,
            } => Term::Typecase {
                tag: *tag,
                int_arm: *int_arm,
                arrow_arm: *arrow_arm,
                prod_arm: (prod_arm.0, prod_arm.1, (fix_proj(&prod_arm.2)).into()),
                exist_arm: *exist_arm,
            },
            other => other.clone(),
        }
    }
    block.body = fix_proj(&block.body);
    assert_eq!(
        rejection(Dialect::Basic, image.code),
        COPYING_THE_WRONG_FIELD
    );
}

/// Bug: the collector skips copying entirely in the pair arm and hands the
/// from-space pointer to the continuation (the continuation expects
/// `M_{r2}(t)`).
#[test]
fn returning_from_space_pointers_is_rejected() {
    let mut image = basic::collector();
    let block = block_mut(&mut image.code, "copy");
    // Rewrite the prod arm to just invoke k with x.
    if let Term::Typecase {
        tag,
        int_arm,
        arrow_arm,
        prod_arm,
        exist_arm,
    } = &block.body
    {
        block.body = Term::Typecase {
            tag: *tag,
            int_arm: *int_arm,
            arrow_arm: *arrow_arm,
            prod_arm: (prod_arm.0, prod_arm.1, *int_arm),
            exist_arm: *exist_arm,
        };
    } else {
        panic!("copy body is a typecase");
    }
    assert_eq!(
        rejection(Dialect::Basic, image.code),
        RETURNING_FROM_SPACE_POINTERS
    );
}

// ===== forwarding collector ==============================================

/// Bug: installing the forwarding pointer as `inl` (a live object) instead
/// of `inr` — every later visitor would treat the forwarding pointer as
/// data.
#[test]
fn forwarding_with_the_wrong_tag_bit_is_rejected() {
    let mut image = forwarding::collector();
    let block = block_mut(&mut image.code, "fwdpair2");
    fn inr_to_inl(e: &Term) -> Term {
        match e {
            Term::Set {
                dst,
                src: Value::Inr(v),
                body,
            } => Term::Set {
                dst: dst.clone(),
                src: Value::Inl(*v),
                body: *body,
            },
            Term::Let { x, op, body } => Term::Let {
                x: *x,
                op: op.clone(),
                body: (inr_to_inl(body)).into(),
            },
            other => other.clone(),
        }
    }
    block.body = inr_to_inl(&block.body);
    assert_eq!(
        rejection(Dialect::Forwarding, image.code),
        FORWARDING_WITH_THE_WRONG_TAG_BIT
    );
}

/// Bug: forwarding to a from-space address (`set x := inr x` self-loop).
#[test]
fn forwarding_to_from_space_is_rejected() {
    let mut image = forwarding::collector();
    let block = block_mut(&mut image.code, "fwdpair2");
    fn self_forward(e: &Term) -> Term {
        match e {
            Term::Set { dst, body, .. } => Term::Set {
                dst: dst.clone(),
                src: Value::inr(dst.clone()),
                body: *body,
            },
            Term::Let { x, op, body } => Term::Let {
                x: *x,
                op: op.clone(),
                body: (self_forward(body)).into(),
            },
            other => other.clone(),
        }
    }
    block.body = self_forward(&block.body);
    assert_eq!(
        rejection(Dialect::Forwarding, image.code),
        FORWARDING_TO_FROM_SPACE
    );
}

/// Bug: using a forwarding-dialect construct in the basic calculus — the
/// dialects are distinct languages (§7 extends λGC).
#[test]
fn dialect_violations_are_rejected() {
    let image = forwarding::collector();
    assert_eq!(rejection(Dialect::Basic, image.code), DIALECT_VIOLATIONS);
}

// ===== generational collector ============================================

/// Bug: the minor collector promotes young objects back into the *young*
/// region (put[ry] instead of put[ro] in gpair2) — the "promoted" object
/// would die with the young region it was supposed to escape, and the
/// result type M_{ro,ro}(t) would be a lie.
#[test]
fn promoting_into_the_young_region_is_rejected() {
    let mut image = generational::collector();
    let block = block_mut(&mut image.code, "gpair2");
    block.body = swap_regions(&block.body, s("ro"), s("ry"));
    assert_eq!(
        rejection(Dialect::Generational, image.code),
        PROMOTING_INTO_THE_YOUNG_REGION
    );
}

/// Bug: gcend frees the old region and keeps the young one — all promoted
/// data would dangle.
#[test]
fn generational_freeing_old_region_is_rejected() {
    let mut image = generational::collector();
    let block = block_mut(&mut image.code, "gcend");
    block.body = swap_regions(&block.body, s("ro"), s("ry"));
    assert_eq!(
        rejection(Dialect::Generational, image.code),
        GENERATIONAL_FREEING_OLD_REGION
    );
}

/// Bug: `copy` hands an already-old pair to its continuation with the
/// young region passed as the old one. The rejection names the region
/// `ifreg (rx = ro)` unifies the two into; that name, and with it the whole
/// message, must not depend on what the process certified before.
#[test]
fn ifreg_rejection_text_is_independent_of_process_history() {
    let mutant = || {
        let mut image = generational::collector();
        let block = block_mut(&mut image.code, "copy");
        let listing = ps_gc_lang::pretty::code_def_to_string(block);
        let call = "[ry, ro, r3](z, kenv!c)";
        assert!(listing.contains(call), "{listing}");
        let mutated = listing.replacen(call, "[ry, ry, r3](z, kenv!c)", 1);
        *block = ps_gc_lang::parse::parse_code_def(&mutated).unwrap();
        image.code
    };
    assert_eq!(rejection(Dialect::Generational, mutant()), IFREG_MUTANT);
    check(Dialect::Generational, generational::collector().code).unwrap();
    assert_eq!(rejection(Dialect::Generational, mutant()), IFREG_MUTANT);
}

/// Bug: `copy`'s ∃ arm hands the still-packed `x` to the unpacked copier
/// instead of the opened `y`. The rejection names the tag variable the arm
/// refines `tx` with; that name, and with it the whole message, must not
/// depend on what the process certified before.
#[test]
fn exist_arm_rejection_text_is_independent_of_process_history() {
    let mutant = || {
        let mut image = basic::collector();
        let block = block_mut(&mut image.code, "copy");
        let listing = ps_gc_lang::pretty::code_def_to_string(block);
        let call = "cd.2[tc tx][r1, r2, r3](y, kp)";
        assert!(listing.contains(call), "{listing}");
        let mutated = listing.replacen(call, "cd.2[tc tx][r1, r2, r3](x, kp)", 1);
        *block = ps_gc_lang::parse::parse_code_def(&mutated).unwrap();
        image.code
    };
    assert_eq!(rejection(Dialect::Basic, mutant()), EXIST_ARM_MUTANT);
    check(Dialect::Basic, basic::collector().code).unwrap();
    assert_eq!(rejection(Dialect::Basic, mutant()), EXIST_ARM_MUTANT);
}
