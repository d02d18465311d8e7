//! Unit tests for the Fig. 3 translation itself: the *shape* of the
//! emitted λGC code (the pipeline tests check behaviour; these check that
//! the translation does what the figure says, clause by clause).

use ps_clos::syntax::{CExp, CFun, CProgram, CTy, CVal};
use ps_collectors::basic;
use ps_gc_lang::syntax::{Op, Term, Value, CD};
use ps_ir::Symbol;
use ps_trans::{tag_of, translate};

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn simple_program(body: CExp) -> CProgram {
    CProgram {
        funs: vec![CFun {
            name: s("f"),
            param: s("x"),
            param_ty: CTy::Int,
            body,
        }],
        main: CExp::App(CVal::FnName(s("f")), CVal::Int(1)),
    }
}

/// Fig. 3's function rule: every function body is wrapped in
/// `ifgc r (gc[τ][r](cd.ℓ_f, x)) e′`, with the function itself as the
/// return continuation.
#[test]
fn functions_get_the_ifgc_guard() {
    let p = simple_program(CExp::Halt(CVal::Var(s("x"))));
    let image = basic::collector();
    let out = translate(&p, &image).unwrap();
    let f = &out.code[image.code.len()];
    assert_eq!(f.name, s("f"));
    assert_eq!(f.rvars.len(), 1, "takes the current region");
    match &f.body {
        Term::IfGc { full, cont, .. } => {
            // The full branch calls gc with cd.ℓ_f (self) and x.
            match &**full {
                Term::App {
                    f: gcv, tags, args, ..
                } => {
                    assert_eq!(*gcv, Value::Addr(CD, image.gc_entry));
                    assert_eq!(tags.len(), 1, "the λCLOS type, as a tag");
                    assert_eq!(
                        args[0],
                        Value::Addr(CD, image.code.len() as u32),
                        "the function itself is the return continuation"
                    );
                    assert_eq!(args[1], Value::Var(s("x")));
                }
                other => panic!("expected gc call, got {other:?}"),
            }
            assert!(matches!(&**cont, Term::Halt(_)));
        }
        other => panic!("expected ifgc guard, got {other:?}"),
    }
}

/// Fig. 3's value rules: pairs become `put[r](v1, v2)`.
#[test]
fn pairs_are_allocated() {
    let p = simple_program(CExp::let_(
        s("p"),
        CVal::pair(CVal::Int(1), CVal::Int(2)),
        CExp::Halt(CVal::Int(0)),
    ));
    let image = basic::collector();
    let out = translate(&p, &image).unwrap();
    let body = &out.code[image.code.len()].body;
    let Term::IfGc { cont, .. } = body else {
        panic!()
    };
    // let tmp = put[r](1, 2) in let p = tmp in halt 0
    match &**cont {
        Term::Let {
            op: Op::Put(_, v), ..
        } => {
            assert_eq!(*v, Value::pair(Value::Int(1), Value::Int(2)));
        }
        other => panic!("expected put, got {other:?}"),
    }
}

/// Fig. 3's projection rule: `let x = πᵢ (get v)`.
#[test]
fn projections_read_through_get() {
    let p = CProgram {
        funs: vec![CFun {
            name: s("g"),
            param: s("x"),
            param_ty: CTy::prod(CTy::Int, CTy::Int),
            body: CExp::let_proj(s("a"), 1, CVal::Var(s("x")), CExp::Halt(CVal::Var(s("a")))),
        }],
        main: CExp::Halt(CVal::Int(0)),
    };
    let image = basic::collector();
    let out = translate(&p, &image).unwrap();
    let body = &out.code[image.code.len()].body;
    let Term::IfGc { cont, .. } = body else {
        panic!()
    };
    match &**cont {
        Term::Let {
            op: Op::Get(_),
            body,
            ..
        } => match &**body {
            Term::Let {
                op: Op::Proj(1, _), ..
            } => {}
            other => panic!("expected projection after get, got {other:?}"),
        },
        other => panic!("expected get, got {other:?}"),
    }
}

/// The main term allocates the initial region (the program rule).
#[test]
fn main_opens_with_let_region() {
    let p = simple_program(CExp::Halt(CVal::Int(0)));
    let out = translate(&p, &basic::collector()).unwrap();
    assert!(matches!(out.main, Term::LetRegion { .. }));
}

/// §5: "the garbage collector receives the tags as they were in λCLOS" —
/// tag embedding is structure-preserving and total.
#[test]
fn tag_embedding_is_structural() {
    use ps_gc_lang::syntax::Tag;
    let t = s("t");
    let ty = CTy::exist(
        t,
        CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), CTy::Int)), CTy::Var(t)),
    );
    let tag = tag_of(&ty);
    let expected = Tag::exist(
        t,
        Tag::prod(Tag::arrow([Tag::prod(Tag::Var(t), Tag::Int)]), Tag::Var(t)),
    );
    assert_eq!(tag, expected);
}

/// The forwarding translation wraps every allocation in `inl` and every
/// read in `strip` (§7's mutator obligations).
#[test]
fn forwarding_translation_adds_tag_bits() {
    let p = simple_program(CExp::let_(
        s("p"),
        CVal::pair(CVal::Int(1), CVal::Int(2)),
        CExp::let_proj(s("a"), 1, CVal::Var(s("p")), CExp::Halt(CVal::Var(s("a")))),
    ));
    let image = ps_collectors::forwarding::collector();
    let out = translate(&p, &image).unwrap();
    let text = ps_gc_lang::pretty::code_def_to_string(&out.code[image.code.len()]);
    assert!(
        text.contains("inl ("),
        "allocations are inl-tagged:\n{text}"
    );
    assert!(text.contains("strip"), "reads strip the bit:\n{text}");
    assert!(
        !text.contains("ifleft"),
        "the mutator never checks the bit:\n{text}"
    );
}

/// The generational translation allocates young and region-packs (§8).
#[test]
fn generational_translation_packs_regions() {
    let p = simple_program(CExp::let_(
        s("p"),
        CVal::pair(CVal::Int(1), CVal::Int(2)),
        CExp::Halt(CVal::Int(0)),
    ));
    let image = ps_collectors::generational::collector();
    let out = translate(&p, &image).unwrap();
    let f = &out.code[image.code.len()];
    assert_eq!(f.rvars.len(), 2, "functions take [ry, ro]");
    let text = ps_gc_lang::pretty::code_def_to_string(f);
    assert!(
        text.contains("∈{"),
        "allocations are region-packed:\n{text}"
    );
}

/// Unknown function names are reported, not panicked on.
#[test]
fn unknown_functions_are_errors() {
    let p = CProgram {
        funs: vec![],
        main: CExp::App(CVal::FnName(s("ghost")), CVal::Int(0)),
    };
    assert!(translate(&p, &basic::collector()).is_err());
}
