//! Differential telemetry tests over the program battery: for every
//! collector, every interpreter backend must emit the *same sequence* of
//! GC events (same kinds, same steps, same words copied), the recorded
//! metrics must agree with the machine statistics, and the JSON-lines
//! export must validate against the trace schema.

use scavenger::gc_lang::faults::{FaultKind, FaultPlan};
use scavenger::telemetry::{validate_jsonl_trace, GcEvent, Recorder, SharedObserver};
use scavenger::{supervise, Backend, Collector, RunOptions, SupervisedOutcome};

/// Allocation-heavy members of the battery (tests/battery.rs) — the ones
/// that actually trigger collections at a 64-word budget — plus one
/// allocation-light control that never collects.
const PROGRAMS: &[(&str, &str, i64)] = &[
    ("arith", "1 + 2 * 3 - 4", 3),
    (
        "factorial",
        "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 9",
        362_880,
    ),
    (
        "fibonacci",
        "fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n fib 12",
        144,
    ),
    (
        "list-sum",
        "fun build (n : int) : int * int = if0 n then (0, 0) else \
           (let rest = build (n - 1) in (n + fst rest, n))\n \
         fst (build 40)",
        820,
    ),
    (
        "gc-stress",
        "fun churn (n : int) : int = if0 n then 0 else \
           (let p = ((n, n), (n, n)) in fst (fst p) - n + churn (n - 1))\n \
         churn 60",
        0,
    ),
];

fn record_run(
    collector: Collector,
    backend: Backend,
    src: &str,
    expected: i64,
    label: &str,
) -> Recorder {
    let recorder = Recorder::new().into_shared();
    let obs: SharedObserver = recorder.clone();
    let opts = RunOptions::builder()
        .collector(collector)
        .backend(backend)
        .budget(64)
        .observer(obs, 50)
        .build();
    let run = opts
        .compile(src)
        .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"))
        .run_with(&opts)
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
    assert_eq!(run.result, expected, "{label}: wrong result");
    let rec = recorder.borrow().clone();
    // Recorded metrics must agree with the machine's own statistics.
    assert_eq!(
        rec.metrics.collections, run.stats.collections,
        "{label}: collection counts disagree"
    );
    assert_eq!(
        rec.metrics.words_reclaimed, run.stats.words_reclaimed,
        "{label}: reclaimed words disagree"
    );
    assert_eq!(
        rec.metrics.regions_allocated, run.stats.regions_created,
        "{label}: region counts disagree"
    );
    rec
}

#[test]
fn backends_emit_identical_event_sequences() {
    for (name, src, expected) in PROGRAMS {
        for collector in Collector::ALL {
            let label = format!("{name}/{collector}");
            let oracle = record_run(collector, Backend::Subst, src, *expected, &label);
            for backend in Backend::ALL {
                if backend == Backend::Subst {
                    continue;
                }
                let label = format!("{label}/{backend}");
                let rec = record_run(collector, backend, src, *expected, &label);
                assert_eq!(
                    oracle.events.len(),
                    rec.events.len(),
                    "{label}: event counts diverge"
                );
                for (i, (a, b)) in oracle.events.iter().zip(rec.events.iter()).enumerate() {
                    assert_eq!(a, b, "{label}: event {i} diverges");
                }
                assert_eq!(oracle.metrics, rec.metrics, "{label}: metrics diverge");
            }
        }
    }
}

#[test]
fn traces_validate_and_reflect_collector_behaviour() {
    for (name, src, expected) in PROGRAMS {
        for collector in Collector::ALL {
            let label = format!("{name}/{collector}");
            let rec = record_run(collector, Backend::Env, src, *expected, &label);
            let trace = rec.to_jsonl();
            let summary = validate_jsonl_trace(&trace)
                .unwrap_or_else(|e| panic!("{label}: trace invalid: {e}"));
            assert_eq!(summary.count("halt"), 1, "{label}");
            assert_eq!(
                summary.count("gc_begin"),
                summary.count("gc_end"),
                "{label}: unbalanced collections"
            );
            assert_eq!(
                summary.count("gc_begin") as u64,
                rec.metrics.collections,
                "{label}"
            );
            if *name != "arith" {
                assert!(summary.count("gc_begin") > 0, "{label}: never collected");
            }
            if collector == Collector::Generational && *name != "arith" {
                let promoted = rec
                    .events
                    .iter()
                    .filter(|e| matches!(e, GcEvent::Copy { promoted: true, .. }))
                    .count();
                assert!(promoted > 0, "{label}: minor GCs must promote survivors");
            }
        }
    }
}

/// A supervised run that aborts on an injected fault and is triaged must
/// still export a schema-valid trace: checkpoints along the way, the
/// abort, then exactly one restore and one triage event — and no halt.
#[test]
fn aborted_then_triaged_traces_validate() {
    let src = "fun build (n : int) : int * int = if0 n then (0, 0) else \
        (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 8)";
    for collector in Collector::ALL {
        let label = format!("triaged/{collector}");
        let recorder = Recorder::new().into_shared();
        let obs: SharedObserver = recorder.clone();
        let opts = RunOptions::builder()
            .collector(collector)
            .budget(64)
            .track_types(true)
            .verify_every(7)
            .checkpoint_every(4)
            // A corrupted budget is invisible to the mutator: the abort is
            // always the *auditor* firing, never a hard runtime error, so
            // the trace deterministically carries one
            // `invariant_violation` event.
            .inject(FaultPlan {
                kind: FaultKind::UnderflowBudget,
                step: 20,
                seed: 1,
            })
            .supervise(true)
            .observer(obs, 0)
            .build();
        let compiled = opts
            .compile(src)
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        let sup = supervise(&compiled.program, &opts.supervise_spec());
        assert!(
            matches!(sup.outcome, SupervisedOutcome::Triaged(_)),
            "{label}: expected a triage, got {:?}",
            sup.outcome
        );
        let rec = recorder.borrow().clone();
        let trace = rec.to_jsonl();
        let summary =
            validate_jsonl_trace(&trace).unwrap_or_else(|e| panic!("{label}: trace invalid: {e}"));
        assert!(summary.count("snapshot") >= 1, "{label}: no checkpoints");
        assert_eq!(summary.count("restore"), 1, "{label}");
        assert_eq!(summary.count("triage"), 1, "{label}");
        assert_eq!(summary.count("invariant_violation"), 1, "{label}");
        assert_eq!(summary.count("halt"), 0, "{label}: aborted runs don't halt");
    }
}
