//! Machine-state well-formedness: `⊢ (M, e)` (Fig. 7, Definitions 6.3 and
//! 7.1).
//!
//! A state is well formed when some memory typing `Ψ` types the store
//! (`⊢ M : Ψ`) and the current term (`Ψ; Dom(Ψ); ·; ·; · ⊢ e`). The
//! machine maintains a candidate `Ψ` incrementally (see
//! [`crate::memory::Memory`]); this module *re-validates* it against the
//! real typing rules — which is exactly what the paper's type-preservation
//! proofs (Props. 6.4, 7.2, 8.1) guarantee must succeed after every step.
//!
//! For λGCforw, Definition 7.1 weakens `⊢ M : Ψ` to a *sufficient subset*
//! `M̄ ⊆ M`: after a `widen`, dead objects may be ill-typed. We realize
//! this by checking only slots that still have `Ψ` entries (the machine's
//! `widen` handler drops entries for unreachable from-region objects), and
//! optionally only the slots reachable from the current term.

use std::collections::HashSet;

use crate::error::{wf_err, ErrorKind, LangError, Result};
use crate::intern::SlotVal;
use crate::machine::{Machine, SubstMachine};
use crate::memory::Memory;
use crate::syntax::{Dialect, Op, RegionName, Term, Value};
use crate::tyck::{Checker, Ctx};

/// Options for the state checker.
#[derive(Clone, Copy, Debug, Default)]
pub struct WfOptions {
    /// Re-typecheck the bodies of code blocks in `cd`. Checking a whole
    /// program once at load time makes this redundant per step, so
    /// per-step preservation tests usually turn it off.
    pub check_code_bodies: bool,
    /// Check only store slots reachable from the current term (always safe;
    /// required for λGCforw after a `widen` per Def. 7.1).
    pub reachable_only: bool,
}

/// Checks `⊢ (M, e)` for the machine's current state.
///
/// # Examples
///
/// ```
/// use ps_gc_lang::machine::{SubstMachine, Program};
/// use ps_gc_lang::memory::MemConfig;
/// use ps_gc_lang::syntax::{Dialect, Term, Value};
/// use ps_gc_lang::wf::{check_state, WfOptions};
///
/// let program = Program {
///     dialect: Dialect::Basic,
///     code: vec![],
///     main: Term::Halt(Value::Int(0)),
/// };
/// let config = MemConfig { track_types: true, ..MemConfig::default() };
/// let machine = SubstMachine::load(&program, config);
/// check_state(&machine, WfOptions::default()).unwrap();
/// ```
///
/// # Errors
///
/// Returns a well-formedness error describing the first slot or the term
/// judgement that failed. The machine must have been created with
/// `track_types: true`.
pub fn check_state(machine: &SubstMachine, opts: WfOptions) -> Result<()> {
    if !machine.memory().config().track_types {
        return Err(LangError::new(
            ErrorKind::WellFormedness,
            "machine was not created with track_types; Ψ is unavailable",
        ));
    }
    let dialect = machine.dialect();
    let mem = machine.memory();
    // ⊢ M : Ψ, over the reachable slots when asked or under λGCforw.
    let reachable = (opts.reachable_only || dialect == Dialect::Forwarding)
        .then(|| reachable_from(mem, machine.term()).slots);
    check_store(mem, dialect, reachable.as_ref(), opts.check_code_bodies)?;

    // Ψ; Dom(Ψ); ·; ·; · ⊢ e.
    let (checker, mut ctx) = typing_context(mem, dialect);
    checker
        .check_term(&mut ctx, machine.term())
        .map_err(|e| e.in_context("current term"))
}

/// `⊢ M : Ψ` — every selected stored value checks against its `Ψ` entry:
/// the one store-typing walk behind [`check_state`] and the full audit of
/// [`crate::verify`]. With `reachable`, only those slots are checked
/// (Def. 7.1's sufficient subset); the code region only with `with_cd`. A
/// slot without an entry is dead garbage `widen` discarded, which only the
/// forwarding dialect may hold.
pub(crate) fn check_store(
    mem: &Memory,
    dialect: Dialect,
    reachable: Option<&HashSet<(RegionName, u32)>>,
    with_cd: bool,
) -> Result<()> {
    let (checker, ctx) = typing_context(mem, dialect);
    for nu in mem.region_names() {
        if nu.is_cd() && !with_cd {
            continue;
        }
        let Some(region) = mem.region(nu) else {
            continue;
        };
        for (loc, stored) in region.iter() {
            if reachable.is_some_and(|set| !set.contains(&(nu, loc))) {
                continue;
            }
            let Some(entry) = mem.psi_entry(nu, loc) else {
                if dialect == Dialect::Forwarding {
                    continue;
                }
                return Err(wf_err(format!("slot {nu}.{loc} has no Ψ entry")));
            };
            checker
                .check_value(&ctx, &stored.canonical(), entry)
                .map_err(|e| wf_err(format!("slot {nu}.{loc} does not match its Ψ type: {e}")))?;
        }
    }
    Ok(())
}

/// The context a stored value is checked in: `Ψ` read in place from
/// `mem`, and `∆ = Dom(Ψ)`.
pub(crate) fn typing_context(mem: &Memory, dialect: Dialect) -> (Checker<'_>, Ctx) {
    let checker = Checker::from_memory(dialect, mem);
    let mut ctx = Ctx::empty();
    ctx.delta = checker.psi_domain();
    (checker, ctx)
}

/// The store addresses reachable from a root term, found by the one walk
/// that [`check_state`], [`crate::verify`] and [`crate::faults`] share.
pub(crate) struct Reachable {
    /// Every address reached, dangling ones included.
    pub(crate) slots: HashSet<(RegionName, u32)>,
    /// The first dangling address reached, with [`Memory::peek`]'s error.
    pub(crate) dangling: Option<((RegionName, u32), LangError)>,
}

/// Walks the store depth-first from `root`, one O(1) [`Memory::peek`] per
/// address; a dangling address is recorded and not followed.
pub(crate) fn reachable_from(mem: &Memory, root: &Term) -> Reachable {
    let mut work = Vec::new();
    collect_term_addrs(root, &mut work);
    let mut slots = HashSet::new();
    let mut dangling = None;
    while let Some((nu, loc)) = work.pop() {
        if !slots.insert((nu, loc)) {
            continue;
        }
        match mem.peek(nu, loc) {
            Ok(v) => collect_slot_addrs(v, &mut work),
            Err(e) if dangling.is_none() => dangling = Some(((nu, loc), e)),
            Err(_) => {}
        }
    }
    Reachable { slots, dangling }
}

/// [`collect_value_addrs`] over either arm of a heap slot, without forcing:
/// a thunk's addresses live in its (canonical) child nodes.
pub(crate) fn collect_slot_addrs(sv: &SlotVal, out: &mut Vec<(RegionName, u32)>) {
    match sv {
        SlotVal::Val(v) => collect_value_addrs(v, out),
        SlotVal::LazyPair(c) => {
            collect_value_addrs(c.0.value(), out);
            collect_value_addrs(c.1.value(), out);
        }
        SlotVal::LazyInl(c) | SlotVal::LazyInr(c) => collect_value_addrs(c.value(), out),
    }
}

pub(crate) fn collect_value_addrs(v: &Value, out: &mut Vec<(RegionName, u32)>) {
    match v {
        Value::Int(_) | Value::Var(_) => {}
        Value::Addr(nu, loc) => out.push((*nu, *loc)),
        Value::Pair(a, b) => {
            collect_value_addrs(a, out);
            collect_value_addrs(b, out);
        }
        Value::PackTag { val, .. }
        | Value::PackAlpha { val, .. }
        | Value::PackRgn { val, .. }
        | Value::Inl(val)
        | Value::Inr(val) => collect_value_addrs(val, out),
        Value::TagApp(f, _, _) => collect_value_addrs(f, out),
        Value::Code(def) => collect_term_addrs(&def.body, out),
    }
}

pub(crate) fn collect_op_addrs(op: &Op, out: &mut Vec<(RegionName, u32)>) {
    match op {
        Op::Val(v) | Op::Proj(_, v) | Op::Put(_, v) | Op::Get(v) | Op::Strip(v) => {
            collect_value_addrs(v, out)
        }
        Op::Prim(_, a, b) => {
            collect_value_addrs(a, out);
            collect_value_addrs(b, out);
        }
    }
}

pub(crate) fn collect_term_addrs(e: &Term, out: &mut Vec<(RegionName, u32)>) {
    match e {
        Term::App { f, args, .. } => {
            collect_value_addrs(f, out);
            for a in args {
                collect_value_addrs(a, out);
            }
        }
        Term::Let { .. } => {
            let mut cur = e;
            while let Term::Let { op, body, .. } = cur {
                collect_op_addrs(op, out);
                cur = body;
            }
            collect_term_addrs(cur, out);
        }
        Term::Halt(v) => collect_value_addrs(v, out),
        Term::IfGc { full, cont, .. } => {
            collect_term_addrs(full, out);
            collect_term_addrs(cont, out);
        }
        Term::OpenTag { pkg, body, .. }
        | Term::OpenAlpha { pkg, body, .. }
        | Term::OpenRgn { pkg, body, .. } => {
            collect_value_addrs(pkg, out);
            collect_term_addrs(body, out);
        }
        Term::LetRegion { body, .. } | Term::Only { body, .. } => collect_term_addrs(body, out),
        Term::Typecase {
            int_arm,
            arrow_arm,
            prod_arm,
            exist_arm,
            ..
        } => {
            collect_term_addrs(int_arm, out);
            collect_term_addrs(arrow_arm, out);
            collect_term_addrs(&prod_arm.2, out);
            collect_term_addrs(&exist_arm.1, out);
        }
        Term::IfLeft {
            scrut, left, right, ..
        } => {
            collect_value_addrs(scrut, out);
            collect_term_addrs(left, out);
            collect_term_addrs(right, out);
        }
        Term::Set { dst, src, body } => {
            collect_value_addrs(dst, out);
            collect_value_addrs(src, out);
            collect_term_addrs(body, out);
        }
        Term::Widen { v, body, .. } => {
            collect_value_addrs(v, out);
            collect_term_addrs(body, out);
        }
        Term::IfReg { eq, ne, .. } => {
            collect_term_addrs(eq, out);
            collect_term_addrs(ne, out);
        }
        Term::If0 {
            scrut,
            zero,
            nonzero,
        } => {
            collect_value_addrs(scrut, out);
            collect_term_addrs(zero, out);
            collect_term_addrs(nonzero, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Outcome, Program, StepOutcome, SubstMachine};
    use crate::memory::{GrowthPolicy, MemConfig};
    use crate::syntax::{Region, Term, Value};
    use ps_ir::Symbol;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn tracked_config() -> MemConfig {
        MemConfig {
            region_budget: 64,
            growth: GrowthPolicy::Fixed,
            track_types: true,
            max_heap_words: None,
            page_words: 8,
        }
    }

    /// Steps a machine to completion, checking well-formedness at every
    /// step — a miniature of the preservation property tests.
    fn run_checked(p: Program) -> i64 {
        let mut m = SubstMachine::load(&p, tracked_config());
        check_state(&m, WfOptions::default()).expect("initial state well formed");
        for _ in 0..10_000 {
            match m.step().expect("progress") {
                StepOutcome::Halted(n) => return n,
                StepOutcome::Continue => {
                    check_state(&m, WfOptions::default()).expect("preservation");
                }
            }
        }
        panic!("out of fuel");
    }

    #[test]
    fn preservation_through_alloc_and_reclaim() {
        let r1 = s("wr1");
        let r2 = s("wr2");
        let a = s("wa");
        let b = s("wb");
        let c = s("wc");
        let e = Term::LetRegion {
            rvar: r1,
            body: (Term::let_(
                a,
                Op::Put(Region::Var(r1), Value::pair(Value::Int(1), Value::Int(2))),
                Term::LetRegion {
                    rvar: r2,
                    body: (Term::let_(
                        b,
                        Op::Get(Value::Var(a)),
                        Term::let_(
                            c,
                            Op::Proj(2, Value::Var(b)),
                            Term::Only {
                                regions: vec![Region::Var(r2)],
                                body: (Term::Halt(Value::Var(c))).into(),
                            },
                        ),
                    ))
                    .into(),
                },
            ))
            .into(),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: e,
        };
        assert_eq!(run_checked(p), 2);
    }

    #[test]
    fn ill_formed_state_detected() {
        // Manufacture a program whose term holds an address into a region
        // that gets reclaimed: after `only`, the state is ill formed.
        let r1 = s("xr1");
        let a = s("xa");
        let e = Term::LetRegion {
            rvar: r1,
            body: (Term::let_(
                a,
                Op::Put(Region::Var(r1), Value::Int(5)),
                Term::Only {
                    regions: vec![],
                    body: (Term::let_(
                        s("xb"),
                        Op::Get(Value::Var(a)),
                        Term::Halt(Value::Var(s("xb"))),
                    ))
                    .into(),
                },
            ))
            .into(),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: e,
        };
        let mut m = SubstMachine::load(&p, tracked_config());
        // let region; put; only — after the only, the get references a
        // dangling address and the state must be flagged.
        m.step().unwrap();
        m.step().unwrap();
        m.step().unwrap();
        assert!(check_state(&m, WfOptions::default()).is_err());
    }

    #[test]
    fn reachability_walk_records_the_first_dangling_address_it_meets() {
        let mut mem = Memory::new(MemConfig {
            track_types: false,
            ..tracked_config()
        });
        let nu = mem.alloc_region();
        // The root reaches ν.0, and through it two addresses past the end.
        mem.put(nu, Value::pair(Value::Addr(nu, 5), Value::Addr(nu, 6)))
            .unwrap();
        let reach = reachable_from(&mem, &Term::Halt(Value::Addr(nu, 0)));
        let mut slots: Vec<_> = reach.slots.into_iter().collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![(nu, 0), (nu, 5), (nu, 6)]);
        // Depth-first off a stack: the pair's second component comes first.
        let (addr, e) = reach.dangling.expect("a dangling address");
        assert_eq!(addr, (nu, 6));
        assert!(e.to_string().contains("bad offset"), "{e}");
    }

    #[test]
    fn untracked_machine_is_rejected() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(0)),
        };
        let m = SubstMachine::load(
            &p,
            MemConfig {
                track_types: false,
                ..tracked_config()
            },
        );
        assert!(check_state(&m, WfOptions::default()).is_err());
    }

    #[test]
    fn preservation_through_forwarding_set_and_widen() {
        // Manually drive the forwarding primitives: allocate an object in
        // mutator view, widen it, forward it, and re-check at each step.
        let r1 = s("fr1");
        let r2 = s("fr2");
        let w0 = s("fw0");
        let w = s("fw");
        let y = s("fy");
        let z = s("fz");
        let tag = crate::syntax::Tag::prod(crate::syntax::Tag::Int, crate::syntax::Tag::Int);
        let e = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::let_(
                    w0,
                    Op::Put(
                        Region::Var(r1),
                        Value::inl(Value::pair(Value::Int(1), Value::Int(2))),
                    ),
                    Term::Widen {
                        x: w,
                        from: Region::Var(r1),
                        to: Region::Var(r2),
                        tag: tag.clone().into(),
                        v: Value::Var(w0),
                        body: (Term::let_(
                            y,
                            Op::Get(Value::Var(w)),
                            Term::IfLeft {
                                x: s("fyl"),
                                scrut: Value::Var(y),
                                left: (Term::let_(
                                    z,
                                    Op::Put(
                                        Region::Var(r2),
                                        Value::inl(Value::pair(Value::Int(1), Value::Int(2))),
                                    ),
                                    Term::Set {
                                        dst: Value::Var(w),
                                        src: Value::inr(Value::Var(z)),
                                        body: (Term::Only {
                                            regions: vec![Region::Var(r2)],
                                            body: (Term::Halt(Value::Int(0))).into(),
                                        })
                                        .into(),
                                    },
                                ))
                                .into(),
                                right: (Term::Halt(Value::Int(1))).into(),
                            },
                        ))
                        .into(),
                    },
                ))
                .into(),
            })
            .into(),
        };
        let p = Program {
            dialect: Dialect::Forwarding,
            code: vec![],
            main: e,
        };
        // The whole program typechecks statically...
        Checker::check_program(&p).unwrap();
        // ... and stays well formed through execution.
        let mut m = SubstMachine::load(&p, tracked_config());
        check_state(&m, WfOptions::default()).unwrap();
        loop {
            match m.step().unwrap() {
                StepOutcome::Halted(n) => {
                    assert_eq!(n, 0);
                    break;
                }
                StepOutcome::Continue => {
                    check_state(&m, WfOptions::default()).unwrap();
                }
            }
        }
    }

    #[test]
    fn progress_and_preservation_smoke_gen() {
        // A generational-dialect program exercising region packages and
        // ifreg under per-step checking.
        let ro = s("gro");
        let ry = s("gry");
        let a = s("ga");
        let pkgv = s("gp");
        let r = s("gr");
        let x = s("gx");
        let e = Term::LetRegion {
            rvar: ro,
            body: (Term::LetRegion {
                rvar: ry,
                body: (Term::let_(
                    a,
                    Op::Put(Region::Var(ry), Value::Int(3)),
                    Term::let_(
                        pkgv,
                        Op::Val(Value::PackRgn {
                            rvar: r,
                            bound: (vec![Region::Var(ry), Region::Var(ro)]).into(),
                            witness: Region::Var(ry),
                            val: (Value::Var(a)).into(),
                            body_ty: crate::syntax::Ty::Int.into(),
                        }),
                        Term::OpenRgn {
                            pkg: Value::Var(pkgv),
                            rvar: s("gr2"),
                            x,
                            body: (Term::IfReg {
                                r1: Region::Var(s("gr2")),
                                r2: Region::Var(ro),
                                eq: (Term::Halt(Value::Int(1))).into(),
                                ne: (Term::let_(
                                    s("gy"),
                                    Op::Get(Value::Var(x)),
                                    Term::Halt(Value::Var(s("gy"))),
                                ))
                                .into(),
                            })
                            .into(),
                        },
                    ),
                ))
                .into(),
            })
            .into(),
        };
        let p = Program {
            dialect: Dialect::Generational,
            code: vec![],
            main: e,
        };
        Checker::check_program(&p).unwrap();
        let mut m = SubstMachine::load(&p, tracked_config());
        loop {
            check_state(&m, WfOptions::default()).unwrap();
            if let StepOutcome::Halted(n) = m.step().unwrap() {
                assert_eq!(n, 3);
                break;
            }
        }
    }

    #[test]
    fn run_checked_halts() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(9)),
        };
        let mut m = SubstMachine::load(&p, tracked_config());
        assert_eq!(m.run(10).unwrap(), Outcome::Halted(9));
    }
}
