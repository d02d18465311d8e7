//! Step-for-step agreement of every interpreter backend.
//!
//! The alternative backends promise more than equal final answers: each
//! claims to simulate the Fig. 5 substitution machine *exactly* — same
//! rule fired at every step, same statistics after every step, and a
//! resolved control view that is syntactically identical to the
//! substitution machine's closed control term.
//!
//! This test generates random closed, runnable λGC programs (tape-driven,
//! so every generated program terminates) and runs all [`Backend::ALL`]
//! machines in lockstep against the substitution oracle, checking all
//! three invariants at every single step. A new backend added to `ALL`
//! joins the matrix with no edits here.

use proptest::prelude::*;

use ps_gc_lang::error::ErrorKind;
use ps_gc_lang::machine::{Backend, Machine, Program, StepOutcome};
use ps_gc_lang::memory::{GrowthPolicy, MemConfig};
use ps_gc_lang::syntax::{CodeDef, Dialect, Kind, Op, PrimOp, Region, Tag, Term, Ty, Value, CD};
use ps_gc_lang::telemetry::Recorder;
use ps_ir::symbol::gensym;
use ps_ir::Symbol;

/// Fixed library of code blocks every generated program links against —
/// they exercise the frame-clearing `App` rule, tag/region polymorphism,
/// `typecase` dispatch on a tag parameter, and partial tag application.
fn code_defs() -> Vec<CodeDef> {
    let n = Symbol::intern("ba_n");
    let m = gensym("ba_m");
    let r = Symbol::intern("ba_r");
    let t = Symbol::intern("ba_t");
    let a = gensym("ba_a");
    let p = gensym("ba_p");
    let x = gensym("ba_x");
    vec![
        // 0: finish(n) = halt n
        CodeDef {
            name: Symbol::intern("ba_finish"),
            tvars: vec![],
            rvars: vec![],
            params: vec![(n, Ty::Int.id())],
            body: Term::Halt(Value::Var(n)),
        },
        // 1: twice(n) = let m = n + n in halt m
        CodeDef {
            name: Symbol::intern("ba_twice"),
            tvars: vec![],
            rvars: vec![],
            params: vec![(n, Ty::Int.id())],
            body: Term::let_(
                m,
                Op::Prim(PrimOp::Add, Value::Var(n), Value::Var(n)),
                Term::Halt(Value::Var(m)),
            ),
        },
        // 2: alloc[r](n) = let a = put r (n,n) in let p = get a in
        //                  let x = π1 p in halt x
        CodeDef {
            name: Symbol::intern("ba_alloc"),
            tvars: vec![],
            rvars: vec![r],
            params: vec![(n, Ty::Int.id())],
            body: Term::let_(
                a,
                Op::Put(Region::Var(r), Value::pair(Value::Var(n), Value::Var(n))),
                Term::let_(
                    p,
                    Op::Get(Value::Var(a)),
                    Term::let_(x, Op::Proj(1, Value::Var(p)), Term::Halt(Value::Var(x))),
                ),
            ),
        },
        // 3: disp[t](n) = typecase t of int ⇒ halt n | …
        CodeDef {
            name: Symbol::intern("ba_disp"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![],
            params: vec![(n, Ty::Int.id())],
            body: Term::Typecase {
                tag: Tag::Var(t).into(),
                int_arm: (Term::Halt(Value::Var(n))).into(),
                arrow_arm: (Term::Halt(Value::Int(11))).into(),
                prod_arm: (
                    Symbol::intern("ba_t1"),
                    Symbol::intern("ba_t2"),
                    (Term::Halt(Value::Int(22))).into(),
                ),
                exist_arm: (Symbol::intern("ba_te"), (Term::Halt(Value::Int(33))).into()),
            },
        },
    ]
}

/// Byte tape driving generation; runs out → zeros → generation collapses
/// to the terminal case, so every program is finite and halts.
struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
}

/// Variables in scope during generation, by the shape of what they hold.
#[derive(Clone, Default)]
struct Scope {
    /// Bound to integers.
    ints: Vec<Symbol>,
    /// Bound to addresses of `(int, int)` pairs, with the index into
    /// `regions` of the region they live in.
    pairs: Vec<(Symbol, usize)>,
    /// Region variables, with a liveness flag (dropped by `only`).
    regions: Vec<(Symbol, bool)>,
}

impl Scope {
    fn live_regions(&self) -> Vec<usize> {
        (0..self.regions.len())
            .filter(|&i| self.regions[i].1)
            .collect()
    }
}

fn int_value(tape: &mut Tape, scope: &Scope) -> Value {
    let b = tape.next();
    if !scope.ints.is_empty() && b.is_multiple_of(2) {
        Value::Var(scope.ints[b as usize / 2 % scope.ints.len()])
    } else {
        Value::Int(i64::from(b) - 128)
    }
}

fn random_tag(tape: &mut Tape) -> Tag {
    match tape.next() % 3 {
        0 => Tag::Int,
        1 => Tag::prod(Tag::Int, Tag::Int),
        _ => Tag::exist(Symbol::intern("ba_ex"), Tag::Int),
    }
}

/// A terminal: halts directly or jumps to one of the library blocks.
fn gen_terminal(tape: &mut Tape, scope: &Scope) -> Term {
    let live = scope.live_regions();
    match tape.next() % 6 {
        0 | 1 => Term::Halt(int_value(tape, scope)),
        2 => Term::app(Value::Addr(CD, 0), [], [], [int_value(tape, scope)]),
        3 => Term::app(Value::Addr(CD, 1), [], [], [int_value(tape, scope)]),
        4 if !live.is_empty() => {
            let r = scope.regions[live[tape.next() as usize % live.len()]].0;
            Term::app(
                Value::Addr(CD, 2),
                [],
                [Region::Var(r)],
                [int_value(tape, scope)],
            )
        }
        5 => {
            // Partial tag application: exercises the extra TagApp
            // unfolding step on both machines.
            let tag = random_tag(tape);
            Term::app(
                Value::tag_app(Value::Addr(CD, 3), [tag], []),
                [],
                [],
                [int_value(tape, scope)],
            )
        }
        _ => Term::app(
            Value::Addr(CD, 3),
            [random_tag(tape)],
            [],
            [int_value(tape, scope)],
        ),
    }
}

fn gen_term(tape: &mut Tape, fuel: u32, scope: &mut Scope) -> Term {
    if fuel == 0 {
        return gen_terminal(tape, scope);
    }
    let live = scope.live_regions();
    match tape.next() % 10 {
        0 => {
            let x = gensym("ba_i");
            let op = Op::Val(int_value(tape, scope));
            scope.ints.push(x);
            Term::let_(x, op, gen_term(tape, fuel - 1, scope))
        }
        1 => {
            let x = gensym("ba_i");
            let prim = [PrimOp::Add, PrimOp::Sub, PrimOp::Mul][tape.next() as usize % 3];
            let op = Op::Prim(prim, int_value(tape, scope), int_value(tape, scope));
            scope.ints.push(x);
            Term::let_(x, op, gen_term(tape, fuel - 1, scope))
        }
        2 => {
            let r = gensym("ba_r");
            scope.regions.push((r, true));
            Term::LetRegion {
                rvar: r,
                body: (gen_term(tape, fuel - 1, scope)).into(),
            }
        }
        3 if !live.is_empty() => {
            let ri = live[tape.next() as usize % live.len()];
            let a = gensym("ba_a");
            let op = Op::Put(
                Region::Var(scope.regions[ri].0),
                Value::pair(int_value(tape, scope), int_value(tape, scope)),
            );
            scope.pairs.push((a, ri));
            Term::let_(a, op, gen_term(tape, fuel - 1, scope))
        }
        4 if !scope.pairs.is_empty() => {
            let &(a, ri) = &scope.pairs[tape.next() as usize % scope.pairs.len()];
            if !scope.regions[ri].1 {
                return gen_terminal(tape, scope);
            }
            let p = gensym("ba_p");
            let y = gensym("ba_y");
            let idx = 1 + tape.next() % 2;
            scope.ints.push(y);
            Term::let_(
                p,
                Op::Get(Value::Var(a)),
                Term::let_(
                    y,
                    Op::Proj(idx, Value::Var(p)),
                    gen_term(tape, fuel - 1, scope),
                ),
            )
        }
        5 => {
            let half = fuel / 2;
            let zero = gen_term(tape, half, &mut scope.clone());
            let nonzero = gen_term(tape, half, scope);
            Term::If0 {
                scrut: int_value(tape, scope),
                zero: (zero).into(),
                nonzero: (nonzero).into(),
            }
        }
        6 if !live.is_empty() => {
            // Keep a random subset of the live regions; the rest (and all
            // addresses into them) leave scope.
            let mask = tape.next();
            let mut keep = Vec::new();
            for (k, &ri) in live.iter().enumerate() {
                if mask >> (k % 8) & 1 == 1 {
                    keep.push(Region::Var(scope.regions[ri].0));
                } else {
                    scope.regions[ri].1 = false;
                }
            }
            let dropped: Vec<usize> = (0..scope.regions.len())
                .filter(|&i| !scope.regions[i].1)
                .collect();
            scope.pairs.retain(|&(_, ri)| !dropped.contains(&ri));
            Term::Only {
                regions: keep,
                body: (gen_term(tape, fuel - 1, scope)).into(),
            }
        }
        7 if !live.is_empty() => {
            let r1 = scope.regions[live[tape.next() as usize % live.len()]].0;
            let r2 = scope.regions[live[tape.next() as usize % live.len()]].0;
            let half = fuel / 2;
            let eq = gen_term(tape, half, &mut scope.clone());
            let ne = gen_term(tape, half, scope);
            Term::IfReg {
                r1: Region::Var(r1),
                r2: Region::Var(r2),
                eq: (eq).into(),
                ne: (ne).into(),
            }
        }
        8 if !live.is_empty() => {
            let r = scope.regions[live[tape.next() as usize % live.len()]].0;
            let half = fuel / 2;
            let full = gen_term(tape, half, &mut scope.clone());
            let cont = gen_term(tape, half, scope);
            Term::IfGc {
                rho: Region::Var(r),
                full: (full).into(),
                cont: (cont).into(),
            }
        }
        9 => {
            // Typecase on a concrete tag: binds tag variables in the
            // product arm (unused below, but they flow through both
            // machines' environments/substitutions).
            let tag = random_tag(tape);
            let half = fuel / 2;
            let int_arm = gen_term(tape, half, &mut scope.clone());
            let other = gen_term(tape, half, scope);
            Term::Typecase {
                tag: tag.into(),
                int_arm: (int_arm).into(),
                arrow_arm: (Term::Halt(Value::Int(11))).into(),
                prod_arm: (gensym("ba_t1"), gensym("ba_t2"), (other.clone()).into()),
                exist_arm: (gensym("ba_te"), (other).into()),
            }
        }
        _ => gen_terminal(tape, scope),
    }
}

fn gen_program(bytes: &[u8]) -> Program {
    let mut tape = Tape { bytes, pos: 0 };
    let mut scope = Scope::default();
    let fuel = 3 + u32::from(tape.next() % 6);
    Program {
        dialect: Dialect::Basic,
        code: code_defs(),
        main: gen_term(&mut tape, fuel, &mut scope),
    }
}

/// Runs all backends in lockstep against the substitution oracle (the
/// first entry of [`Backend::ALL`]), asserting after every step that the
/// statistics agree, that the telemetry event streams agree, and that
/// every backend's resolved control equals the oracle's closed control
/// term.
fn lockstep(program: &Program) {
    lockstep_with_budget(program, 4096);
}

fn lockstep_with_budget(program: &Program, region_budget: usize) {
    let config = MemConfig {
        region_budget,
        growth: GrowthPolicy::Fixed,
        track_types: false,
        max_heap_words: None,
        page_words: 512,
    };
    assert_eq!(Backend::ALL[0], Backend::Subst, "the oracle leads ALL");
    // Every machine gets a recorder (sampling on, to cover `Step` events);
    // the event streams must match after every step.
    let mut machines: Vec<Box<dyn Machine>> = Vec::new();
    let mut recorders = Vec::new();
    for backend in Backend::ALL {
        let mut m = backend.load(program, config);
        let rec = Recorder::new().into_shared();
        m.set_observer(rec.clone(), 7);
        machines.push(m);
        recorders.push(rec);
    }
    let mut seen = 0usize;
    for step in 0..4000u32 {
        let control = machines[0].resolved_control();
        for (i, m) in machines.iter().enumerate().skip(1) {
            assert_eq!(
                control,
                m.resolved_control(),
                "{}: control terms diverge before step {step}",
                Backend::ALL[i]
            );
        }
        let outcomes: Vec<_> = machines.iter_mut().map(|m| m.step()).collect();
        match &outcomes[0] {
            Ok(a) => {
                for (i, o) in outcomes.iter().enumerate().skip(1) {
                    let backend = Backend::ALL[i];
                    let Ok(b) = o else {
                        panic!("{backend} stuck at step {step}: {a:?} vs {o:?}");
                    };
                    assert_eq!(a, b, "{backend}: step outcomes diverge at step {step}");
                    assert_eq!(
                        machines[0].stats(),
                        machines[i].stats(),
                        "{backend}: stats diverge at step {step}"
                    );
                    assert_eq!(
                        machines[0].halted(),
                        machines[i].halted(),
                        "{backend}: halt states diverge"
                    );
                }
                {
                    let evs_s = &recorders[0].borrow().events;
                    for (i, rec) in recorders.iter().enumerate().skip(1) {
                        let backend = Backend::ALL[i];
                        let evs = &rec.borrow().events;
                        assert_eq!(
                            evs_s.len(),
                            evs.len(),
                            "{backend}: event counts diverge at step {step}"
                        );
                        assert_eq!(
                            &evs_s[seen..],
                            &evs[seen..],
                            "{backend}: events diverge at step {step}"
                        );
                    }
                    seen = evs_s.len();
                }
                if matches!(a, StepOutcome::Halted(_)) {
                    for (i, rec) in recorders.iter().enumerate().skip(1) {
                        assert_eq!(
                            recorders[0].borrow().metrics,
                            rec.borrow().metrics,
                            "{}: telemetry metrics diverge at halt",
                            Backend::ALL[i]
                        );
                    }
                    return;
                }
            }
            Err(a) => {
                for (i, o) in outcomes.iter().enumerate().skip(1) {
                    let backend = Backend::ALL[i];
                    let Err(b) = o else {
                        panic!("only the oracle stuck at step {step}: {a:?} vs {o:?} ({backend})");
                    };
                    assert_eq!(
                        a.to_string(),
                        b.to_string(),
                        "{backend}: error messages diverge"
                    );
                }
                return;
            }
        }
    }
    panic!("generated program did not terminate within the step bound");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn backends_agree_step_for_step(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        lockstep(&gen_program(&bytes));
    }
}

/// A fixed deep program as a non-random smoke check (also ensures the
/// generator's terminal forms are all reachable regardless of tape luck).
#[test]
fn fixed_tapes_agree() {
    for seed in 0..64u8 {
        let bytes: Vec<u8> = (0..96)
            .map(|i| seed.wrapping_mul(37).wrapping_add(i))
            .collect();
        lockstep(&gen_program(&bytes));
    }
}

/// The same tapes under a tiny region budget: `ifgc` now takes its "full"
/// branch, so the telemetry comparison also covers `gc_begin`/`copy`/
/// `gc_end` phases opened by fullness triggers.
#[test]
fn fixed_tapes_agree_under_memory_pressure() {
    for seed in 0..32u8 {
        let bytes: Vec<u8> = (0..96)
            .map(|i| seed.wrapping_mul(53).wrapping_add(i))
            .collect();
        lockstep_with_budget(&gen_program(&bytes), 6);
    }
}

/// Runs a program on one backend with the given audit cadence, returning
/// the outcome (a generated program may legitimately get stuck — both
/// backends must then get stuck identically), the final statistics, and
/// the serialized telemetry trace.
type AuditedRun = (
    Result<ps_gc_lang::machine::Outcome, ps_gc_lang::error::LangError>,
    ps_gc_lang::machine::Stats,
    String,
);

fn audited_run(
    program: &Program,
    backend: Backend,
    verify_every: u64,
    plan: Option<ps_gc_lang::faults::FaultPlan>,
) -> AuditedRun {
    let config = MemConfig {
        region_budget: 4096,
        growth: GrowthPolicy::Fixed,
        track_types: true,
        max_heap_words: None,
        page_words: 512,
    };
    let rec = Recorder::new().into_shared();
    let mut m = backend.load(program, config);
    m.set_observer(rec.clone(), 7);
    let ctl = m.run_control_mut();
    ctl.verify_every = verify_every;
    ctl.faults = plan.into_iter().collect();
    let (outcome, stats) = (m.run(4000), m.stats().clone());
    let jsonl = rec.borrow().to_jsonl();
    (outcome, stats, jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The auditor is purely observational: on clean runs, `verify_every`
    /// at full blast never reports a violation and leaves the outcome,
    /// statistics, and telemetry byte stream identical — on every backend.
    #[test]
    fn audited_clean_runs_are_byte_identical(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let program = gen_program(&bytes);
        for backend in Backend::ALL {
            let (o_plain, s_plain, t_plain) = audited_run(&program, backend, 0, None);
            let (o_audit, s_audit, t_audit) = audited_run(&program, backend, 1, None);
            prop_assert!(
                !matches!(
                    o_audit,
                    Ok(ps_gc_lang::machine::Outcome::InvariantViolation(_))
                ),
                "audit fired on a clean run: {o_audit:?}"
            );
            prop_assert_eq!(&o_plain, &o_audit, "outcome changed under audit");
            prop_assert_eq!(&s_plain, &s_audit, "stats changed under audit");
            prop_assert_eq!(&t_plain, &t_audit, "telemetry changed under audit");
        }
    }
}

/// Armed with the same fault plan, all backends must pick the same
/// injection site at the same step and return the same verdict — either
/// all detect the identical violation or the plan finds no target on
/// any of them.
#[test]
fn backends_agree_under_fault_injection() {
    for kind in ps_gc_lang::faults::FaultKind::ALL {
        for seed in 0..4u64 {
            let bytes: Vec<u8> = (0..96)
                .map(|i| (seed as u8).wrapping_mul(91).wrapping_add(i))
                .collect();
            let program = gen_program(&bytes);
            let plan = ps_gc_lang::faults::FaultPlan {
                kind,
                step: 2,
                seed,
            };
            let (o_subst, s_subst, t_subst) = audited_run(&program, Backend::Subst, 1, Some(plan));
            for backend in Backend::ALL {
                if backend == Backend::Subst {
                    continue;
                }
                let (o, s, t) = audited_run(&program, backend, 1, Some(plan));
                assert_eq!(o_subst, o, "{kind}@{seed}/{backend}: outcomes diverge");
                assert_eq!(s_subst, s, "{kind}@{seed}/{backend}: stats diverge");
                assert_eq!(t_subst, t, "{kind}@{seed}/{backend}: telemetry diverges");
            }
        }
    }
}

/// One ill-formed program per way a reduction rule can get stuck, each
/// with a fragment of the stuck message it must produce. Some take a few
/// good steps first, so the step count at the failure is pinned as well.
fn stuck_programs() -> Vec<(&'static str, Program)> {
    let sym = Symbol::intern;
    let (x, t, r) = (sym("st_x"), sym("st_t"), sym("st_r"));
    let halt = || Term::Halt(Value::Int(0)).id();
    // `let x = op in halt 0`
    let bind = |op: Op| Term::let_(x, op, Term::Halt(Value::Int(0)));
    let one = || Value::Int(1);
    let pair = || Value::pair(Value::Int(1), Value::Int(2));
    let unbound = Region::Var(sym("st_unbound"));
    // code finish(x) = halt x
    let finish = CodeDef {
        name: sym("st_finish"),
        tvars: vec![],
        rvars: vec![],
        params: vec![(x, Ty::Int.id())],
        body: Term::Halt(Value::Var(x)),
    };
    let table = [
        (
            "halt on non-integer value",
            Dialect::Basic,
            Term::let_(x, Op::Val(pair()), Term::Halt(Value::Var(x))),
        ),
        (
            "if0 on non-integer",
            Dialect::Basic,
            Term::If0 {
                scrut: pair(),
                zero: halt(),
                nonzero: halt(),
            },
        ),
        (
            "ifleft on non-sum value",
            Dialect::Forwarding,
            Term::IfLeft {
                x,
                scrut: one(),
                left: halt(),
                right: halt(),
            },
        ),
        (
            "set on non-address",
            Dialect::Forwarding,
            Term::Set {
                dst: one(),
                src: one(),
                body: halt(),
            },
        ),
        (
            "application of non-code value Int(5)",
            Dialect::Basic,
            Term::LetRegion {
                rvar: r,
                body: Term::let_(
                    x,
                    Op::Put(Region::Var(r), Value::Int(5)),
                    Term::app(Value::Var(x), [], [], []),
                )
                .id(),
            },
        ),
        (
            "arity mismatch calling st_finish: expected [0][0](1), got [0][0](0)",
            Dialect::Basic,
            Term::let_(
                x,
                Op::Prim(PrimOp::Add, one(), one()),
                Term::app(Value::Addr(CD, 0), [], [], []),
            ),
        ),
        (
            "arity mismatch calling st_finish: expected [0][0](1), got [0][0](2)",
            Dialect::Basic,
            Term::app(
                Value::tag_app(Value::Addr(CD, 0), [], []),
                [],
                [],
                [one(), one()],
            ),
        ),
        (
            "typecase on non-constructor tag",
            Dialect::Basic,
            Term::Typecase {
                tag: Tag::Var(t).into(),
                int_arm: halt(),
                arrow_arm: halt(),
                prod_arm: (sym("st_t1"), sym("st_t2"), halt()),
                exist_arm: (sym("st_te"), halt()),
            },
        ),
        ("get of non-address", Dialect::Basic, bind(Op::Get(one()))),
        (
            "projection π1 of non-pair",
            Dialect::Basic,
            bind(Op::Proj(1, one())),
        ),
        (
            "strip of untagged value",
            Dialect::Forwarding,
            bind(Op::Strip(one())),
        ),
        (
            "primitive + on non-integers",
            Dialect::Basic,
            bind(Op::Prim(PrimOp::Add, pair(), one())),
        ),
        (
            "unsubstituted region variable st_unbound",
            Dialect::Basic,
            bind(Op::Put(unbound, one())),
        ),
        (
            "unsubstituted region variable st_unbound",
            Dialect::Basic,
            Term::IfGc {
                rho: unbound,
                full: halt(),
                cont: halt(),
            },
        ),
        (
            "unsubstituted region variable st_unbound",
            Dialect::Basic,
            Term::LetRegion {
                rvar: r,
                body: Term::Only {
                    regions: vec![Region::Var(r), unbound],
                    body: halt(),
                }
                .id(),
            },
        ),
        (
            "unsubstituted region variable st_unbound",
            Dialect::Generational,
            Term::IfReg {
                r1: unbound,
                r2: unbound,
                eq: halt(),
                ne: halt(),
            },
        ),
        (
            "open(tag) on non-package",
            Dialect::Basic,
            Term::OpenTag {
                pkg: one(),
                tvar: t,
                x,
                body: halt(),
            },
        ),
        (
            "open(α) on non-package",
            Dialect::Basic,
            Term::OpenAlpha {
                pkg: one(),
                avar: sym("st_a"),
                x,
                body: halt(),
            },
        ),
        (
            "open(region) on non-package",
            Dialect::Generational,
            Term::OpenRgn {
                pkg: one(),
                rvar: r,
                x,
                body: halt(),
            },
        ),
    ];
    table
        .into_iter()
        .map(|(msg, dialect, main)| {
            let program = Program {
                dialect,
                code: vec![finish.clone()],
                main,
            };
            (msg, program)
        })
        .collect()
}

/// Every stuck rule fails with the same error after the same number of
/// steps on every backend, and the error is the one its rule names.
#[test]
fn stuck_states_agree_on_every_backend() {
    for (msg, program) in stuck_programs() {
        let runs: Vec<_> = Backend::ALL
            .into_iter()
            .map(|backend| {
                let mut m = backend.load(&program, MemConfig::default());
                let err = m.run(100).expect_err("the program is stuck");
                (err, m.stats().clone())
            })
            .collect();
        let (err, stats) = &runs[0];
        assert_eq!(err.kind(), ErrorKind::Stuck, "{msg}: {err}");
        assert!(err.to_string().contains(msg), "want {msg:?}, got {err}");
        for (backend, run) in Backend::ALL.into_iter().zip(&runs).skip(1) {
            assert_eq!(&run.0, err, "{msg}: {backend} fails differently");
            assert_eq!(run.1.steps, stats.steps, "{msg}: {backend} step count");
        }
    }
}

/// A failed step changes nothing a caller can see: the control term is
/// the one that failed, the machine has not halted, and stepping again
/// fails the same way.
#[test]
fn a_failed_step_keeps_the_control() {
    for (msg, program) in stuck_programs() {
        for backend in Backend::ALL {
            let mut m = backend.load(&program, MemConfig::default());
            let (control, err) = loop {
                let control = m.resolved_control();
                match m.step() {
                    Ok(StepOutcome::Continue) => {}
                    Ok(halted) => panic!("{msg}: {backend} halted: {halted:?}"),
                    Err(e) => break (control, e),
                }
            };
            assert_eq!(m.resolved_control(), control, "{msg}: {backend} control");
            assert_eq!(m.halted(), None, "{msg}: {backend} halted");
            assert_eq!(m.step(), Err(err), "{msg}: {backend} second step");
            assert_eq!(m.resolved_control(), control, "{msg}: {backend} control");
            assert_eq!(m.halted(), None, "{msg}: {backend} halted");
        }
    }
}
