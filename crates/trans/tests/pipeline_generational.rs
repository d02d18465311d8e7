//! End-to-end tests of the generational pipeline (§8): source → λGCgen with
//! the Fig. 11 collector; minor collections copy young data only.

use ps_clos::{cc, cps};
use ps_collectors::generational;
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
    translate(&clos, &generational::collector()).unwrap()
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
    match m.run(100_000_000).unwrap() {
        Outcome::Halted(n) => (n, m.stats().clone()),
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
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        Checker::check_program(&program)
            .unwrap_or_else(|e| panic!("translated program ill-typed for {src}: {e}"));
    }
}

#[test]
fn results_preserved_without_gc() {
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        let (got, stats) = run_with_budget(&program, 1 << 24);
        assert_eq!(got, expected(src), "{src}");
        assert_eq!(stats.collections, 0, "{src}");
    }
}

#[test]
fn results_preserved_through_minor_collections() {
    for src in [FACT, LIST_SUM, HIGHER, CHURN] {
        let program = compile(src);
        let (got, stats) = run_with_budget(&program, 96);
        assert_eq!(got, expected(src), "{src}");
        assert!(stats.collections > 0, "expected collections for {src}");
    }
}

#[test]
fn minor_collections_do_not_copy_old_data() {
    // Every reclaim event of a minor collection drops the young region and
    // the continuation region but keeps the old region untouched; the old
    // region (ν1, allocated first) must survive all collections. The
    // budget is large enough that the old region never fills, so no major
    // collection interferes (the major-collection tests below cover that
    // path).
    let program = compile(CHURN);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 512,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        },
    );
    assert!(matches!(m.run(100_000_000).unwrap(), Outcome::Halted(0)));
    let stats = m.stats();
    assert!(stats.collections > 0);
    let old_region = ps_gc_lang::syntax::RegionName(1);
    for ev in &stats.reclaim_events {
        assert!(
            ev.dropped.iter().all(|(nu, _, _)| *nu != old_region),
            "a minor collection dropped the old region: {ev:?}"
        );
    }
    // The old region is still live at halt.
    assert!(m.memory().has_region(old_region));
}

#[test]
fn preservation_through_a_minor_collection() {
    let src =
        "fun f (n : int) : int = if0 n then 3 else (let p = (n, n) in snd p - n + f (n - 1))\n f 5";
    let want = expected(src);
    let program = compile(src);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 32,
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
    assert!(m.stats().collections > 0, "wanted a collection");
}

#[test]
fn major_collections_run_when_the_old_region_fills() {
    // Tiny budgets: minor collections keep promoting survivors (and
    // soon-to-be-garbage) into the old region until it fills, at which
    // point the minor gc's `ifgc ro` falls through to the major collector,
    // which evacuates everything into a fresh region and drops the old one.
    let program = compile(LIST_SUM);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 64,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        },
    );
    let Outcome::Halted(n) = m.run(200_000_000).unwrap() else {
        panic!("out of fuel");
    };
    assert_eq!(n, expected(LIST_SUM));
    let stats = m.stats();
    // A major collection drops three regions (young, old, continuation);
    // a minor collection drops two (young, continuation).
    let majors = stats
        .reclaim_events
        .iter()
        .filter(|ev| ev.dropped.len() >= 3)
        .count();
    let minors = stats
        .reclaim_events
        .iter()
        .filter(|ev| ev.dropped.len() < 3)
        .count();
    assert!(
        majors > 0,
        "expected at least one major collection: {stats:?}"
    );
    assert!(minors > 0, "expected minor collections too");
}

#[test]
fn preservation_through_a_major_collection() {
    let src = "fun build (n : int) : int * int = if0 n then (0, 0) else \
        (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 12)";
    let want = expected(src);
    let program = compile(src);
    let mut m = SubstMachine::load(
        &program,
        MemConfig {
            region_budget: 40,
            growth: GrowthPolicy::Adaptive,
            track_types: true,
            max_heap_words: None,
            page_words: 512,
        },
    );
    let mut steps = 0u64;
    loop {
        match m.step().unwrap() {
            ps_gc_lang::machine::StepOutcome::Halted(n) => {
                assert_eq!(n, want);
                break;
            }
            ps_gc_lang::machine::StepOutcome::Continue => {
                if steps.is_multiple_of(3) {
                    check_state(&m, WfOptions::default())
                        .unwrap_or_else(|e| panic!("preservation failed at step {steps}: {e}"));
                }
                steps += 1;
                assert!(steps < 3_000_000, "runaway");
            }
        }
    }
    let majors = m
        .stats()
        .reclaim_events
        .iter()
        .filter(|ev| ev.dropped.len() >= 3)
        .count();
    assert!(majors > 0, "wanted a major collection in this run");
}
