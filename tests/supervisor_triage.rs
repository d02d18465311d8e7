//! The triage matrix: every fault class × every backend × every collector,
//! supervised. The supervisor must localize the abort to the *exact* first
//! violating step — established independently by a fully audited oracle
//! run — and, for the classes whose corruption signature is unambiguous,
//! name the fault class from the pre/post heap diff alone.

use scavenger::gc_lang::faults::{FaultKind, FaultPlan};
use scavenger::gc_lang::machine::Outcome;
use scavenger::{
    supervise, AuditMode, Backend, Collector, Compiled, RunOptions, SupervisedOutcome,
};

const SRC: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 8)";

const INJECT_STEP: u64 = 20;

/// Classes whose heap-diff signature pins them down exactly. The two
/// pointer classes (`retarget-pointer`, `clobber-forward`) share a
/// signature — a retargeted address is how a clobbered forwarding pointer
/// *presents* — so their guesses are interchangeable by design.
const UNAMBIGUOUS: &[FaultKind] = &[
    FaultKind::FlipTag,
    FaultKind::TruncateTuple,
    FaultKind::DoubleFree,
    FaultKind::UnderflowBudget,
    FaultKind::StalePageHeader,
];

/// The step at which a fully audited (per-step, full-walk) oracle run
/// first reports the injected violation — the ground truth the triage
/// report must match.
fn baseline_abort_step(compiled: &Compiled, opts: &RunOptions, plan: FaultPlan) -> u64 {
    let mut m = Backend::Subst.load(&compiled.program, opts.mem_config());
    let ctl = m.run_control_mut();
    ctl.verify_every = 1;
    ctl.audit = AuditMode::Full;
    ctl.faults = vec![plan];
    match m.run(1_000_000).expect("injection aborts, not sticks") {
        Outcome::InvariantViolation(_) => m.stats().steps,
        other => panic!("{}: fault escaped the full audit: {other:?}", plan.kind),
    }
}

#[test]
fn every_fault_class_is_triaged_to_its_exact_step() {
    for collector in Collector::ALL {
        // Compile once per collector; Ψ tracking makes every class
        // detectable on every dialect (see tests/mutation_fuzz.rs).
        let opts = RunOptions::builder()
            .collector(collector)
            .budget(64)
            .track_types(true)
            .build();
        let compiled = opts.compile(SRC).expect("battery program compiles");
        for kind in FaultKind::ALL {
            let plan = FaultPlan {
                kind,
                step: INJECT_STEP,
                seed: 1,
            };
            let want_step = baseline_abort_step(&compiled, &opts, plan);
            for backend in Backend::ALL {
                let label = format!("{kind}/{collector}/{backend}");
                let opts = RunOptions::builder()
                    .collector(collector)
                    .backend(backend)
                    .budget(64)
                    .track_types(true)
                    .verify_every(7)
                    .checkpoint_every(4)
                    .inject(plan)
                    .supervise(true)
                    .build();
                let sup = supervise(&compiled.program, &opts.supervise_spec());
                let report = match sup.outcome {
                    SupervisedOutcome::Triaged(report) => report,
                    other => panic!("{label}: not triaged: {other:?}"),
                };
                assert_eq!(report.step, want_step, "{label}: wrong step");
                assert_eq!(report.backend, backend, "{label}");
                assert!(
                    report.snapshot_step < want_step,
                    "{label}: replayed from a snapshot ({}) past the fault",
                    report.snapshot_step
                );
                assert!(
                    report.divergence.is_none(),
                    "{label}: oracle diverged: {:?}",
                    report.divergence
                );
                assert!(!report.site.is_empty(), "{label}: no site");
                // Two classes degrade to an unattributable raw slot smash
                // on the dialects that lack their target shape: `flip-tag`
                // has sum-tagged heap objects only on λGCforw, and
                // `truncate-tuple` finds bare pairs only *off* λGCforw
                // (forwarding wraps every heap object in a sum). Each is
                // asserted exactly where its signature exists.
                let attributable = match kind {
                    FaultKind::FlipTag => collector == Collector::Forwarding,
                    FaultKind::TruncateTuple => collector != Collector::Forwarding,
                    k => UNAMBIGUOUS.contains(&k),
                };
                if attributable {
                    assert_eq!(report.guess, Some(kind), "{label}: wrong guess");
                }
            }
        }
    }
}
