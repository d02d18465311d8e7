//! Checkpoint/restore fidelity: a run interrupted at an arbitrary step and
//! resumed from its snapshot — into *any* backend, not just the one that
//! took it — must be byte-identical to the uninterrupted run: same final
//! value, same machine statistics, and the concatenated telemetry streams
//! (prefix from the interrupted machine, suffix from the resumed one) must
//! equal the uninterrupted event stream.

use proptest::prelude::*;

use scavenger::telemetry::{GcEvent, Recorder, SharedObserver};
use scavenger::{Backend, Collector, Compiled, Machine, RunOptions, Snapshot};

const SRC: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 8)";

fn compile(collector: Collector) -> Compiled {
    RunOptions::new(collector)
        .compile(SRC)
        .expect("battery program compiles")
}

/// A fresh machine for `compiled` on `backend`, at a 64-word budget.
fn load(compiled: &Compiled, backend: Backend) -> Box<dyn Machine> {
    let config = RunOptions::builder().budget(64).build().mem_config();
    backend.load(&compiled.program, config)
}

/// Runs the program uninterrupted on `backend` with a recorder attached;
/// returns `(result, stats, events)`.
fn uninterrupted(
    compiled: &Compiled,
    backend: Backend,
) -> (i64, scavenger::gc_lang::machine::Stats, Vec<GcEvent>) {
    let rec = Recorder::new().into_shared();
    let obs: SharedObserver = rec.clone();
    let mut m = load(compiled, backend);
    m.set_observer(obs, 0);
    let outcome = m.run(1_000_000).expect("clean program");
    let n = match outcome {
        scavenger::gc_lang::machine::Outcome::Halted(n) => n,
        other => panic!("uninterrupted run did not halt: {other:?}"),
    };
    let events = rec.borrow().events.clone();
    (n, m.stats().clone(), events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupt after `k` steps on backend X, restore the snapshot into a
    /// fresh machine on backend Y, and finish: every (X, Y) pair must
    /// reproduce the uninterrupted run exactly.
    #[test]
    fn resumed_runs_are_byte_identical(
        k in any::<u64>().prop_map(|x| 1 + x % 239),
        collector_ix in any::<u8>().prop_map(|x| x % 3),
    ) {
        let collector = Collector::ALL[collector_ix as usize];
        let compiled = compile(collector);
        let (want_n, want_stats, want_events) = uninterrupted(&compiled, Backend::Subst);

        for from in Backend::ALL {
            // Run the first half with a recorder, stopping mid-flight.
            let prefix_rec = Recorder::new().into_shared();
            let obs: SharedObserver = prefix_rec.clone();
            let mut a = load(&compiled, from);
            a.set_observer(obs, 0);
            match a.run(k).expect("clean program") {
                scavenger::gc_lang::machine::Outcome::OutOfFuel => {}
                scavenger::gc_lang::machine::Outcome::Halted(n) => {
                    // The cut point was past the halt: nothing to resume.
                    prop_assert_eq!(n, want_n);
                    continue;
                }
                other => panic!("{from}: unexpected outcome {other:?}"),
            }
            prop_assert_eq!(a.stats().steps, k, "{} stopped early", from);
            let snap = a.snapshot();

            for to in Backend::ALL {
                let suffix_rec = Recorder::new().into_shared();
                let obs: SharedObserver = suffix_rec.clone();
                let mut b = load(&compiled, to);
                b.set_observer(obs, 0);
                b.restore(&snap).expect("dialects match");
                let outcome = b.run(1_000_000).expect("clean program");
                prop_assert_eq!(
                    outcome,
                    scavenger::gc_lang::machine::Outcome::Halted(want_n),
                    "{}→{} at step {}: wrong result", from, to, k
                );
                prop_assert_eq!(
                    b.stats(), &want_stats,
                    "{}→{} at step {}: stats diverge", from, to, k
                );
                // The cut itself logs a `fuel_exhausted` artifact; it
                // belongs to the interruption, not the program.
                let mut stitched: Vec<GcEvent> = prefix_rec
                    .borrow()
                    .events
                    .iter()
                    .filter(|e| e.name() != "fuel_exhausted")
                    .cloned()
                    .collect();
                stitched.extend(suffix_rec.borrow().events.iter().cloned());
                prop_assert_eq!(
                    &stitched, &want_events,
                    "{}→{} at step {}: telemetry diverges", from, to, k
                );
            }
        }
    }
}

/// A checkpointing run differs from a plain run only by its `snapshot`
/// telemetry events — results, statistics, and every other event agree —
/// and the ring actually holds checkpoints at the end. The checkpoint
/// cadence is the same on every backend: the full event stream (snapshot
/// events included) and the steps of the ring's checkpoints agree across
/// `Backend::ALL`. (The observer keeps the bytecode backend on the
/// per-step path; its unobserved chunked path may checkpoint up to one
/// interval late by design.)
#[test]
fn checkpointing_changes_nothing_but_snapshot_events() {
    for collector in Collector::ALL {
        let compiled = compile(collector);
        let mut first: Option<(Vec<GcEvent>, Vec<u64>)> = None;
        for backend in Backend::ALL {
            let (want_n, want_stats, want_events) = uninterrupted(&compiled, backend);

            let rec = Recorder::new().into_shared();
            let obs: SharedObserver = rec.clone();
            let mut m = load(&compiled, backend);
            m.set_observer(obs, 0);
            m.run_control_mut().checkpoint_every = 32;
            let outcome = m.run(1_000_000).expect("clean program");
            assert_eq!(
                outcome,
                scavenger::gc_lang::machine::Outcome::Halted(want_n),
                "{collector}/{backend}"
            );
            assert_eq!(m.stats(), &want_stats, "{collector}/{backend}");
            let ring: Vec<u64> = m
                .run_control()
                .snapshots()
                .iter()
                .map(Snapshot::step)
                .collect();
            assert!(!ring.is_empty(), "{collector}/{backend}: ring is empty");
            let filtered: Vec<GcEvent> = rec
                .borrow()
                .events
                .iter()
                .filter(|e| e.name() != "snapshot")
                .cloned()
                .collect();
            assert_eq!(filtered, want_events, "{collector}/{backend}");
            assert!(
                rec.borrow().events.iter().any(|e| e.name() == "snapshot"),
                "{collector}/{backend}: no snapshot events"
            );
            let events = rec.borrow().events.clone();
            match &first {
                None => first = Some((events, ring)),
                Some((first_events, first_ring)) => {
                    let lead = Backend::ALL[0];
                    assert_eq!(
                        &events, first_events,
                        "{collector}/{backend}: checkpointed event stream differs from {lead}"
                    );
                    assert_eq!(
                        &ring, first_ring,
                        "{collector}/{backend}: checkpoint steps differ from {lead}"
                    );
                }
            }
        }
    }
}
