//! Checkpoint/restore fidelity: a run interrupted at an arbitrary step and
//! resumed from its snapshot — into *any* backend, not just the one that
//! took it — must be byte-identical to the uninterrupted run: same final
//! value, same machine statistics, and the concatenated telemetry streams
//! (prefix from the interrupted machine, suffix from the resumed one) must
//! equal the uninterrupted event stream.

use proptest::prelude::*;

use scavenger::gc_lang::intern::TyId;
use scavenger::gc_lang::memory::Memory;
use scavenger::gc_lang::syntax::RegionName;
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
/// `Backend::ALL`.
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

/// Every data slot's `Ψ` entry, in region and offset order.
fn psi_of(mem: &Memory) -> Vec<(RegionName, u32, Option<TyId>)> {
    mem.region_names()
        .filter(|nu| !nu.is_cd())
        .flat_map(|nu| {
            let locs: Vec<u32> = mem
                .region(nu)
                .into_iter()
                .flat_map(|r| r.iter())
                .map(|(l, _)| l)
                .collect();
            locs.into_iter()
                .map(move |loc| (nu, loc, mem.psi_entry(nu, loc)))
        })
        .collect()
}

/// Ψ across checkpoints. Under the forwarding collector with the memory
/// typing tracked, a snapshot taken as the first collection starts keeps
/// the `Ψ` of its capture step while the machine that took it runs on:
/// `widen` rewrites and drops entries in pages the snapshot still shares.
/// Restored onto any backend, it passes a full typed audit and finishes
/// with the uninterrupted run's result, statistics and page counters.
#[test]
fn typed_snapshots_keep_their_psi_across_a_collection() {
    let compiled = compile(Collector::Forwarding);
    let config = RunOptions::builder()
        .budget(64)
        .track_types(true)
        .build()
        .mem_config();
    let finish = |m: &mut Box<dyn Machine>| match m.run(1_000_000).expect("clean program") {
        scavenger::gc_lang::machine::Outcome::Halted(n) => n,
        other => panic!("run did not halt: {other:?}"),
    };
    let mut want = Backend::Subst.load(&compiled.program, config);
    let want_n = finish(&mut want);
    let want_pages = want.memory().page_stats();

    for from in Backend::ALL {
        // Stop at the first full `ifgc`: the collection, and its `widen`,
        // are next.
        let mut a = from.load(&compiled.program, config);
        while a.stats().gc_triggers == 0 {
            a.step().expect("clean program");
        }
        let k = a.stats().steps;
        let captured = psi_of(a.memory());
        let snap = a.snapshot();
        // Run on until an entry the snapshot holds changes in place: that
        // is `widen` rewriting or dropping it, since its region is live.
        let changed = |m: &Memory| {
            captured
                .iter()
                .any(|&(nu, loc, ty)| m.has_region(nu) && m.psi_entry(nu, loc) != ty)
        };
        while !changed(a.memory()) {
            assert_eq!(
                a.halted(),
                None,
                "{from}: no widen changed the snapshot's Ψ"
            );
            a.step().expect("clean program");
        }
        assert_eq!(
            psi_of(snap.memory()),
            captured,
            "{from}: the snapshot's Ψ changed with its machine's"
        );
        assert_eq!(finish(&mut a), want_n, "{from}: interrupted machine");

        let mut audit_at_k = Backend::Subst.load(&compiled.program, config);
        audit_at_k.run(k).expect("clean program");
        let want_audit = audit_at_k.audit().map_err(|e| e.to_string());
        assert_eq!(want_audit, Ok(()), "the uninterrupted run at step {k}");
        for to in Backend::ALL {
            let mut b = to.load(&compiled.program, config);
            b.restore(&snap).expect("dialects match");
            assert_eq!(psi_of(b.memory()), captured, "{from}→{to}: restored Ψ");
            assert_eq!(
                b.audit().map_err(|e| e.to_string()),
                want_audit,
                "{from}→{to}: full typed audit after restore"
            );
            assert_eq!(finish(&mut b), want_n, "{from}→{to}: result");
            assert_eq!(b.stats(), want.stats(), "{from}→{to}: stats");
            assert_eq!(b.memory().page_stats(), want_pages, "{from}→{to}: pages");
        }
    }
}

/// Checkpoints land at the same step on every backend when the interval is
/// all that is armed: no observer, audit or fault plan. A collection takes
/// its boundary checkpoint at the step that completes it, so a run stopped
/// five steps past the first collection holds exactly that checkpoint, on
/// the bytecode VM's unobserved path as on the other backends.
#[test]
fn unobserved_checkpoints_land_at_the_same_step_on_every_backend() {
    let src = SRC.replace("build 8", "build 24");
    for collector in Collector::ALL {
        let compiled = RunOptions::new(collector)
            .compile(&src)
            .expect("battery program compiles");
        let mut probe = load(&compiled, Backend::Subst);
        while probe.stats().collections == 0 {
            probe.step().expect("clean program");
        }
        let boundary = probe.stats().steps;
        for backend in Backend::ALL {
            let mut m = load(&compiled, backend);
            m.run_control_mut().checkpoint_every = 1000;
            let outcome = m.run(boundary + 5).expect("clean program");
            assert_eq!(
                outcome,
                scavenger::gc_lang::machine::Outcome::OutOfFuel,
                "{collector}/{backend}"
            );
            let ring: Vec<u64> = m
                .run_control()
                .snapshots()
                .iter()
                .map(Snapshot::step)
                .collect();
            assert_eq!(ring, [boundary], "{collector}/{backend}");
        }
    }
}
