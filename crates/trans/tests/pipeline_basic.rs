//! End-to-end tests of the basic pipeline: source → CPS → λCLOS → λGC with
//! the Fig. 12 collector, run with region budgets small enough to force
//! collections, and checked against the source evaluator.

use ps_clos::{cc, cps};
use ps_collectors::basic;
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
    translate(&clos, &basic::collector()).unwrap()
}

fn expected(src: &str) -> i64 {
    let p = parse_program(src).unwrap();
    ps_lambda::eval::run_program(&p, 10_000_000).unwrap()
}

/// Run with a given base budget; return (result, collections).
fn run_with_budget(program: &Program, budget: usize) -> (i64, u64) {
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
        Outcome::Halted(n) => (n, m.stats().collections),
        other => panic!("abnormal outcome: {other:?}"),
    }
}

const FACT: &str = "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10";
const LIST_SUM: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 30)";
const HIGHER: &str = "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
    fun compose (n : int) : int = (twice (twice (fn (y : int) => y + n))) 1\n compose 10";
const CHURN: &str = "fun churn (n : int) : int = if0 n then 0 else \
    (let p = (n, (n, n)) in fst (snd p) - n + churn (n - 1))\n churn 40";

#[test]
fn whole_programs_typecheck() {
    // Definition 6.3: the linked mutator+collector program typechecks — the
    // complete certified-GC story with no trusted collector.
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        Checker::check_program(&program)
            .unwrap_or_else(|e| panic!("translated program ill-typed for {src}: {e}"));
    }
}

#[test]
fn results_are_preserved_without_gc() {
    // Huge budget: no collection ever triggers.
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        let (got, collections) = run_with_budget(&program, 1 << 24);
        assert_eq!(got, expected(src), "{src}");
        assert_eq!(collections, 0, "{src}");
    }
}

#[test]
fn results_are_preserved_through_collections() {
    // Tiny budget: every function entry is close to the edge, so the
    // collector runs many times; results must not change.
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        let (got, collections) = run_with_budget(&program, 96);
        assert_eq!(got, expected(src), "{src}");
        assert!(collections > 0, "expected collections for {src}");
    }
}

#[test]
fn collections_reclaim_garbage() {
    let program = compile(CHURN);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 128,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        },
    );
    assert!(matches!(m.run(50_000_000).unwrap(), Outcome::Halted(0)));
    let stats = m.stats();
    assert!(stats.collections > 0);
    assert!(stats.words_reclaimed > 0, "GC must reclaim garbage");
    // The peak heap must stay well below total allocation: memory is being
    // recycled, not just accumulated.
    assert!(
        (stats.peak_data_words as u64) < stats.words_allocated,
        "peak {} vs allocated {}",
        stats.peak_data_words,
        stats.words_allocated
    );
}

#[test]
fn preservation_holds_across_a_collection() {
    // Step a small program with type tracking on, re-checking ⊢ (M, e)
    // at every step through at least one full collection (Prop. 6.4 made
    // executable).
    let src =
        "fun f (n : int) : int = if0 n then 7 else (let p = (n, n) in snd p + 0 * f (n - 1))\n f 6";
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
            reachable_only: false,
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
                check_state(&m, WfOptions::default())
                    .unwrap_or_else(|e| panic!("preservation failed at step {steps}: {e}"));
                steps += 1;
                assert!(steps < 1_000_000, "runaway");
            }
        }
    }
    assert!(m.stats().collections > 0, "wanted at least one collection");
}
