//! Property-based tests over randomly generated well-typed source
//! programs.
//!
//! The generator is type-directed, so every program typechecks by
//! construction, and — being pure simply-typed λ-calculus (no `letrec`) —
//! every program terminates. Binder names come from a small pool part of
//! the time, so programs shadow. Each case is run through:
//!
//! * the reference evaluator (the observational oracle),
//! * the full pipeline under all three certified collectors with a tiny
//!   region budget (forcing collections),
//!
//! and the results must agree — the paper's type-preservation theorem
//! made differential: however many collections happen, whatever the
//! collector rearranges, the answer cannot change.

use proptest::prelude::*;

use ps_gc_lang::machine::Machine;
use ps_ir::symbol::gensym;
use ps_ir::Symbol;
use ps_lambda::syntax::{BinOp, Expr, SrcProgram, SrcTy};
use scavenger::Collector;

/// A decision tape: the proptest input from which a program is derived
/// deterministically. Shrinking the tape shrinks the program.
struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tape<'a> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
}

fn gen_ty(tape: &mut Tape, depth: u32) -> SrcTy {
    if depth == 0 {
        return SrcTy::Int;
    }
    match tape.next() % 4 {
        0 | 1 => SrcTy::Int,
        2 => SrcTy::prod(gen_ty(tape, depth - 1), gen_ty(tape, depth - 1)),
        _ => SrcTy::arrow(gen_ty(tape, depth - 1), gen_ty(tape, depth - 1)),
    }
}

/// A binder name: fresh most of the time, but one of a small fixed pool a
/// third of the time, so that generated programs shadow — and every pass's
/// scope handling meets binders that hide an outer variable of the same
/// name, possibly of another type.
fn gen_binder(tape: &mut Tape, base: &str) -> Symbol {
    const POOL: [&str; 3] = ["a", "b", "c"];
    let pick = tape.next();
    if pick.is_multiple_of(3) {
        Symbol::intern(POOL[usize::from(pick / 3) % POOL.len()])
    } else {
        gensym(base)
    }
}

/// Builds an expression of the requested type under `env` (innermost
/// binding last).
fn gen_expr(tape: &mut Tape, env: &mut Vec<(Symbol, SrcTy)>, ty: &SrcTy, depth: u32) -> Expr {
    // Prefer a variable of the right type sometimes (and always at the
    // bottom if one exists). Only the innermost binding of a name is
    // visible.
    let candidates: Vec<Symbol> = env
        .iter()
        .enumerate()
        .filter(|(i, (x, t))| t == ty && !env[i + 1..].iter().any(|(y, _)| y == x))
        .map(|(_, (x, _))| *x)
        .collect();
    if !candidates.is_empty() && (depth == 0 || tape.next().is_multiple_of(4)) {
        let i = tape.next() as usize % candidates.len();
        return Expr::Var(candidates[i]);
    }
    if depth == 0 {
        return base_case(tape, env, ty);
    }
    match tape.next() % 8 {
        // let x = e1 in e2
        0 => {
            let xt = gen_ty(tape, depth - 1);
            let rhs = gen_expr(tape, env, &xt, depth - 1);
            let x = gen_binder(tape, "gx");
            env.push((x, xt));
            let body = gen_expr(tape, env, ty, depth - 1);
            env.pop();
            Expr::let_(x, rhs, body)
        }
        // if0
        1 => {
            let c = gen_expr(tape, env, &SrcTy::Int, depth - 1);
            let t = gen_expr(tape, env, ty, depth - 1);
            let f = gen_expr(tape, env, ty, depth - 1);
            Expr::If0(c.into(), t.into(), f.into())
        }
        // application at the target type
        2 => {
            let at = gen_ty(tape, depth - 1);
            let f = gen_expr(tape, env, &SrcTy::arrow(at.clone(), ty.clone()), depth - 1);
            let a = gen_expr(tape, env, &at, depth - 1);
            Expr::app(f, a)
        }
        // projection from a pair containing the target type
        3 => {
            let other = gen_ty(tape, depth - 1);
            if tape.next().is_multiple_of(2) {
                let p = gen_expr(tape, env, &SrcTy::prod(ty.clone(), other), depth - 1);
                Expr::Proj(1, p.into())
            } else {
                let p = gen_expr(tape, env, &SrcTy::prod(other, ty.clone()), depth - 1);
                Expr::Proj(2, p.into())
            }
        }
        // structural cases by target type
        _ => base_case_deep(tape, env, ty, depth),
    }
}

fn base_case(tape: &mut Tape, env: &mut Vec<(Symbol, SrcTy)>, ty: &SrcTy) -> Expr {
    match ty {
        SrcTy::Int => Expr::Int((tape.next() as i64) - 128),
        SrcTy::Prod(a, b) => Expr::pair(base_case(tape, env, a), base_case(tape, env, b)),
        SrcTy::Arrow(a, b) => {
            let x = gen_binder(tape, "gl");
            env.push((x, (**a).clone()));
            let body = base_case(tape, env, b);
            env.pop();
            Expr::Lam {
                param: x,
                param_ty: (**a).clone(),
                body: body.into(),
            }
        }
    }
}

fn base_case_deep(tape: &mut Tape, env: &mut Vec<(Symbol, SrcTy)>, ty: &SrcTy, depth: u32) -> Expr {
    match ty {
        SrcTy::Int => {
            let a = gen_expr(tape, env, &SrcTy::Int, depth - 1);
            let b = gen_expr(tape, env, &SrcTy::Int, depth - 1);
            let op = match tape.next() % 3 {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                _ => BinOp::Mul,
            };
            Expr::Bin(op, a.into(), b.into())
        }
        SrcTy::Prod(a, b) => Expr::pair(
            gen_expr(tape, env, a, depth - 1),
            gen_expr(tape, env, b, depth - 1),
        ),
        SrcTy::Arrow(a, b) => {
            let x = gen_binder(tape, "gl");
            env.push((x, (**a).clone()));
            let body = gen_expr(tape, env, b, depth - 1);
            env.pop();
            Expr::Lam {
                param: x,
                param_ty: (**a).clone(),
                body: body.into(),
            }
        }
    }
}

fn gen_program(bytes: &[u8]) -> SrcProgram {
    let mut tape = Tape { bytes, pos: 0 };
    let mut env = Vec::new();
    let main = gen_expr(&mut tape, &mut env, &SrcTy::Int, 4);
    SrcProgram { defs: vec![], main }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated programs are well typed by construction.
    #[test]
    fn generated_programs_typecheck(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let p = gen_program(&bytes);
        prop_assert!(ps_lambda::typecheck::check_program(&p).is_ok(), "{p:?}");
    }

    /// Differential run: reference evaluator versus the full pipeline under
    /// every certified collector, with collections forced.
    #[test]
    fn collectors_preserve_results(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let p = gen_program(&bytes);
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).expect("terminating");
        // Round-trip through the concrete syntax is not needed; compile the
        // AST directly via the pipeline internals.
        let cps = ps_clos::cps::cps_program(&p).expect("cps");
        let clos = ps_clos::cc::cc_program(&cps).expect("cc");
        for collector in [Collector::Basic, Collector::Forwarding, Collector::Generational] {
            let program = collector.translate(&clos).expect("translate");
            let mut m = ps_gc_lang::machine::SubstMachine::load(
                &program,
                ps_gc_lang::memory::MemConfig {
                    region_budget: 48,
                    growth: ps_gc_lang::memory::GrowthPolicy::Adaptive,
                    track_types: false,
                    max_heap_words: None,
                    page_words: 512,
                },
            );
            match m.run(20_000_000).expect("no stuck states (progress)") {
                ps_gc_lang::machine::Outcome::Halted(n) => {
                    prop_assert_eq!(n, expected, "{} collector on {:?}", collector, p);
                }
                other => {
                    prop_assert!(false, "abnormal outcome {:?} on {:?}", other, p);
                }
            }
        }
    }

    /// The whole translated program typechecks (Definition 6.3), for every
    /// collector.
    #[test]
    fn translated_programs_typecheck(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let p = gen_program(&bytes);
        let cps = ps_clos::cps::cps_program(&p).expect("cps");
        let clos = ps_clos::cc::cc_program(&cps).expect("cc");
        for collector in [Collector::Basic, Collector::Forwarding, Collector::Generational] {
            let program = collector.translate(&clos).expect("translate");
            if let Err(e) = ps_gc_lang::tyck::Checker::check_program(&program) {
                prop_assert!(false, "{collector}: {e}\nsource: {p:?}");
            }
        }
    }

    /// Per-step preservation (Props. 6.4/7.2/8.1) on small programs: every
    /// reachable machine state stays well formed, through collections.
    #[test]
    fn preservation_on_random_programs(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        let p = gen_program(&bytes);
        for collector in [Collector::Basic, Collector::Forwarding, Collector::Generational] {
            let cps = ps_clos::cps::cps_program(&p).expect("cps");
            let clos = ps_clos::cc::cc_program(&cps).expect("cc");
            let program = collector.translate(&clos).expect("translate");
            let mut m = ps_gc_lang::machine::SubstMachine::load(
                &program,
                ps_gc_lang::memory::MemConfig {
                    region_budget: 32,
                    growth: ps_gc_lang::memory::GrowthPolicy::Adaptive,
                    track_types: true,
                    max_heap_words: None,
                    page_words: 512,
                },
            );
            let mut steps = 0u64;
            loop {
                match m.step().expect("progress") {
                    ps_gc_lang::machine::StepOutcome::Halted(_) => break,
                    ps_gc_lang::machine::StepOutcome::Continue => {
                        // Checking every state is expensive; sample.
                        if steps.is_multiple_of(7) {
                            if let Err(e) = ps_gc_lang::wf::check_state(
                                &m,
                                ps_gc_lang::wf::WfOptions { check_code_bodies: false, reachable_only: true },
                            ) {
                                prop_assert!(false, "{collector} preservation at {steps}: {e}");
                            }
                        }
                        steps += 1;
                        prop_assert!(steps < 2_000_000, "runaway");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing round-trips: `parse(print(p))` evaluates to the same
    /// result (the printer is used to persist generated workloads).
    #[test]
    fn print_parse_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let p = gen_program(&bytes);
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).expect("terminating");
        let printed = ps_lambda::print::program(&p);
        let back = ps_lambda::parse::parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        ps_lambda::typecheck::check_program(&back)
            .unwrap_or_else(|e| panic!("reparse ill-typed: {e}\n{printed}"));
        let got = ps_lambda::eval::run_program(&back, 1_000_000).expect("terminating");
        prop_assert_eq!(got, expected, "{}", printed);
    }
}
