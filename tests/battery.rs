//! The cross-collector program battery: a suite of named source programs,
//! each run under all three certified collectors at several region budgets
//! and compared against the reference evaluator.
//!
//! This is the repository's broadest end-to-end net: any divergence
//! between a collector and the oracle — or between budgets (i.e. between
//! "no collections" and "many collections"), or between the substitution
//! and environment interpreter backends — fails here with the program
//! named.

use scavenger::telemetry::Recorder;
use scavenger::{AuditMode, Backend, Collector, RunOptions};

const PROGRAMS: &[(&str, &str, i64)] = &[
    ("arith", "1 + 2 * 3 - 4", 3),
    ("pairs", "fst (1, 2) + fst (snd (3, (4, 5))) + snd (snd (3, (4, 5)))", 10),
    (
        "factorial",
        "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 9",
        362_880,
    ),
    (
        "fibonacci",
        "fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n fib 14",
        377,
    ),
    (
        "ackermann-lite",
        "fun ack (p : int * int) : int = \
           if0 fst p then snd p + 1 else \
           if0 snd p then ack ((fst p - 1, 1)) else \
           ack ((fst p - 1, ack ((fst p, snd p - 1))))\n \
         ack ((2, 3))",
        9,
    ),
    (
        "list-sum",
        "fun build (n : int) : int * int = if0 n then (0, 0) else \
           (let rest = build (n - 1) in (n + fst rest, n))\n \
         fst (build 40)",
        820,
    ),
    (
        "higher-order",
        "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
         fun thrice (f : int -> int) : int -> int = fn (x : int) => f (f (f x))\n\
         (twice (thrice (fn (y : int) => y + 1))) 0",
        6,
    ),
    (
        "closure-env",
        "let a = 3 in let b = 4 in let c = 5 in \
         (fn (x : int) => a * x + b * x + c) 2",
        19,
    ),
    (
        "curried-add",
        "let add = fn (x : int) => fn (y : int) => x + y in \
         (add 30) 12",
        42,
    ),
    (
        "church-pairs",
        "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n \
         applyp ((fn (x : int) => x * x, 7))",
        49,
    ),
    (
        "mutual-recursion",
        "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
         fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
         even 17 * 10 + odd 17",
        1,
    ),
    (
        "deep-shadowing",
        "let x = 1 in let x = x + 1 in let x = x * x in let x = x - 1 in x",
        3,
    ),
    (
        "function-results",
        "fun mk (n : int) : int -> int = fn (x : int) => x + n\n\
         fun apply2 (fs : (int -> int) * (int -> int)) : int = (fst fs) ((snd fs) 0)\n\
         apply2 ((mk 1, mk 2))",
        3,
    ),
    (
        "gc-stress",
        "fun churn (n : int) : int = if0 n then 0 else \
           (let p = ((n, n), (n, n)) in fst (fst p) - n + churn (n - 1))\n \
         churn 60",
        0,
    ),
    // A `let` that shadows a variable the rest of the enclosing expression
    // still uses: CPS must not let the inner binder capture it.
    ("shadow-let", "let x = 1 in (let x = 5 in x) + x", 6),
    (
        "shadow-let-pair",
        "let x = (1, 2) in (let x = 5 in x) + fst x",
        6,
    ),
    (
        "shadow-param",
        "fun f (x : int) : int = (let x = 5 in x) + x\n f 1",
        6,
    ),
    // Sibling `let`s of one name shadow nothing in the source, yet the
    // first one's scope in the CPS output covers the second.
    ("sibling-lets", "(let x = 1 in x) + (let x = 2 in x)", 3),
];

#[test]
fn battery_all_collectors_all_budgets() {
    // Every program/collector/budget combination runs on EVERY interpreter
    // backend (`Backend::ALL`, so a new backend joins the matrix
    // automatically); all must agree with the expected result and with the
    // substitution oracle — including the full statistics, which every
    // backend promises to reproduce bit-for-bit.
    for (name, src, expected) in PROGRAMS {
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            for budget in [64usize, 256, 1 << 22] {
                let opts = |backend| {
                    RunOptions::builder()
                        .collector(collector)
                        .backend(backend)
                        .budget(budget)
                        .fuel(500_000_000)
                        .build()
                };
                let compiled = opts(Backend::Subst)
                    .compile(src)
                    .unwrap_or_else(|e| panic!("{name}/{collector}: compile failed: {e}"));
                let oracle = compiled
                    .run_with(&opts(Backend::Subst))
                    .unwrap_or_else(|e| panic!("{name}/{collector}/budget {budget}/subst: {e}"));
                assert_eq!(
                    oracle.result, *expected,
                    "{name}/{collector}/budget {budget}/subst"
                );
                for backend in Backend::ALL {
                    if backend == Backend::Subst {
                        continue;
                    }
                    let run = compiled.run_with(&opts(backend)).unwrap_or_else(|e| {
                        panic!("{name}/{collector}/budget {budget}/{backend}: {e}")
                    });
                    assert_eq!(
                        run.result, oracle.result,
                        "{name}/{collector}/budget {budget}/{backend}: result disagrees"
                    );
                    assert_eq!(
                        run.stats, oracle.stats,
                        "{name}/{collector}/budget {budget}/{backend}: stats disagree"
                    );
                }
            }
        }
    }
}

#[test]
fn battery_whole_programs_typecheck() {
    for (name, src, _) in PROGRAMS {
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            RunOptions::new(collector)
                .compile(src)
                .unwrap_or_else(|e| panic!("{name}/{collector}: {e}"))
                .typecheck()
                .unwrap_or_else(|e| panic!("{name}/{collector}: certification failed: {e}"));
        }
    }
}

#[test]
fn battery_small_budgets_actually_collect() {
    // The battery is only meaningful if the small-budget runs really do
    // exercise the collectors; verify for the allocation-heavy programs.
    for (name, src, _) in PROGRAMS
        .iter()
        .filter(|(n, ..)| ["factorial", "fibonacci", "list-sum", "gc-stress"].contains(n))
    {
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            let opts = RunOptions::builder()
                .collector(collector)
                .budget(64)
                .fuel(500_000_000)
                .build();
            let run = opts.compile(src).unwrap().run_with(&opts).unwrap();
            assert!(
                run.stats.collections > 0,
                "{name}/{collector} never collected"
            );
        }
    }
}

#[test]
fn battery_audited_runs_are_byte_identical_to_unaudited_runs() {
    // Two byte-identity contracts at once, across every backend:
    //
    // * the heap auditor must be purely observational — with
    //   `verify_every` on, a clean run returns the same result, the same
    //   statistics, and a byte-identical telemetry trace;
    // * every backend must produce the same statistics and the same
    //   telemetry event stream as the substitution oracle.
    //
    // The recorder carries no meta header here so traces from different
    // backends are directly comparable byte-for-byte.
    fn traced_run(opts: &RunOptions, src: &str) -> (i64, ps_gc_lang::machine::Stats, String) {
        let rec = Recorder::new().into_shared();
        let mut opts = opts.clone();
        opts.observer = Some(rec.clone());
        let compiled = opts.compile(src).expect("compiles");
        let run = compiled.run_with(&opts).expect("clean run");
        let jsonl = rec.borrow().to_jsonl();
        (run.result, run.stats, jsonl)
    }

    // The incremental (dirty-page) auditor is cheap enough to run at full
    // blast on EVERY battery program; the full-walk mode is additionally
    // compared on the quick programs (every step) and on an
    // allocation-heavy one (sparsely — the full walk is the expensive
    // strategy the incremental auditor exists to replace).
    let quick = [
        "arith",
        "pairs",
        "closure-env",
        "deep-shadowing",
        "curried-add",
    ];
    for (name, src, expected) in PROGRAMS {
        let full_every = if quick.contains(name) {
            Some(1)
        } else if *name == "gc-stress" {
            Some(64)
        } else {
            None
        };
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            // The substitution machine is the oracle: first in ALL.
            let mut oracle: Option<(i64, ps_gc_lang::machine::Stats, String)> = None;
            for backend in Backend::ALL {
                let mut opts = RunOptions::builder()
                    .collector(collector)
                    .budget(64)
                    .track_types(true)
                    .backend(backend)
                    .build();
                let (plain_result, plain_stats, plain_trace) = traced_run(&opts, src);
                assert_eq!(plain_result, *expected, "{name}/{collector}/{backend}");
                match &oracle {
                    None => oracle = Some((plain_result, plain_stats.clone(), plain_trace.clone())),
                    Some((r, s, t)) => {
                        assert_eq!(plain_result, *r, "{name}/{collector}/{backend}");
                        assert_eq!(
                            &plain_stats, s,
                            "{name}/{collector}/{backend}: stats differ from the oracle"
                        );
                        assert_eq!(
                            &plain_trace, t,
                            "{name}/{collector}/{backend}: telemetry must be byte-identical \
                             to the oracle"
                        );
                    }
                }
                opts.verify_every = 1;
                opts.audit = AuditMode::Incremental;
                let (audited_result, audited_stats, audited_trace) = traced_run(&opts, src);
                assert_eq!(audited_result, plain_result, "{name}/{collector}/{backend}");
                assert_eq!(audited_stats, plain_stats, "{name}/{collector}/{backend}");
                assert_eq!(
                    audited_trace, plain_trace,
                    "{name}/{collector}/{backend}: incremental-audited trace must be \
                     byte-identical"
                );
                if let Some(every) = full_every {
                    opts.verify_every = every;
                    opts.audit = AuditMode::Full;
                    let (full_result, full_stats, full_trace) = traced_run(&opts, src);
                    assert_eq!(full_result, plain_result, "{name}/{collector}/{backend}");
                    assert_eq!(full_stats, plain_stats, "{name}/{collector}/{backend}");
                    assert_eq!(
                        full_trace, plain_trace,
                        "{name}/{collector}/{backend}: full-audited trace must be \
                         byte-identical"
                    );
                }
            }
        }
    }
}

#[test]
fn oracle_agreement() {
    // The hardcoded expectations must agree with the reference evaluator
    // (guards against typos in the table itself).
    for (name, src, expected) in PROGRAMS {
        let p = ps_lambda::parse::parse_program(src).unwrap();
        ps_lambda::typecheck::check_program(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            ps_lambda::eval::run_program(&p, 100_000_000).unwrap(),
            *expected,
            "{name}"
        );
    }
}
