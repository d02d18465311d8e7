//! Machine checkpoints: cheap, restorable images of a running λGC machine.
//!
//! A [`Snapshot`] captures everything a backend needs to resume a run as if
//! it had never stopped: the *resolved* control term (closed — any pending
//! environment or register bindings already applied, exactly what
//! `Machine::resolved_control` returns), the BiBOP page store, the machine
//! statistics, and the telemetry emitter's collection accounting. The
//! memory image is copy-on-reference: pages sit behind `Arc`, so cloning
//! [`crate::memory::Memory`] is refcount bumps and a page is copied only
//! when a post-checkpoint write touches it — a checkpoint costs O(pages)
//! pointer copies, not a heap walk.
//!
//! Control capture can be **deferred**: instead of materializing the
//! resolved term at checkpoint time, a backend
//! hands over the point-in-time ingredients (e.g. an environment clone plus
//! the raw control id — everything `Arc`-shared and immutable) and the term
//! is built on first [`Snapshot::control`] access. Restore and triage are
//! rare; checkpoints are not. This keeps the per-checkpoint cost flat even
//! for backends whose resolution walks a term (env, bytecode).
//!
//! Capturing the *resolved* control is what makes snapshots portable across
//! backends: the substitution machine restores it as its term, the
//! environment machine as a fresh control with an empty environment (sound
//! because the term is closed), and the bytecode machine recompiles it as a
//! new entry unit. The differential suites assert that a restored run is
//! byte-identical — same [`crate::machine::Stats`], same telemetry stream,
//! same final value — to the uninterrupted one.
//!
//! Machines keep their checkpoints in a small [`SnapRing`]; the supervisor
//! ([`crate::supervisor`]) audits the ring newest-first to find the last
//! *good* image when a run aborts.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::machine::sealed::Core;
use crate::machine::Stats;
use crate::memory::Memory;
use crate::syntax::{Dialect, Term};
use crate::telemetry::TelemetryPhase;

/// The control image: resolved at capture time, or a deferred resolution
/// evaluated (once) on first access. Clones share the memoization cell, so
/// a snapshot ring never resolves the same image twice.
#[derive(Clone)]
enum SnapControl {
    Ready(Box<Term>),
    Deferred {
        resolve: Arc<dyn Fn() -> Term + Send + Sync>,
        cell: Arc<OnceLock<Term>>,
    },
}

impl SnapControl {
    fn get(&self) -> &Term {
        match self {
            SnapControl::Ready(t) => t,
            SnapControl::Deferred { resolve, cell } => cell.get_or_init(|| resolve()),
        }
    }
}

impl fmt::Debug for SnapControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapControl::Ready(t) => t.fmt(f),
            SnapControl::Deferred { cell, .. } => match cell.get() {
                Some(t) => t.fmt(f),
                None => f.write_str("<deferred>"),
            },
        }
    }
}

/// How many checkpoints a machine retains (older ones are evicted). The
/// supervisor needs more than one: a checkpoint taken after a fault was
/// injected is corrupt, and triage falls back to the newest clean image.
pub const RING_CAPACITY: usize = 4;

/// A restorable image of a machine at a step boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    control: SnapControl,
    dialect: Dialect,
    memory: Memory,
    stats: Stats,
    halted: Option<i64>,
    pending_faults: Vec<crate::faults::FaultPlan>,
    telem_phase: TelemetryPhase,
}

impl Snapshot {
    /// A snapshot of a machine's `Core`. `control` must be the
    /// machine's *resolved* (closed) control term.
    pub(crate) fn capture(core: &Core, control: Term) -> Snapshot {
        Snapshot::of(core, SnapControl::Ready(Box::new(control)))
    }

    /// As `capture`, but the resolved control is built lazily: `resolve`
    /// must capture the machine's point-in-time resolution state
    /// (immutable, `Arc`-shared clones) and is evaluated once, on the first
    /// [`Snapshot::control`] access.
    pub(crate) fn capture_deferred(
        core: &Core,
        resolve: impl Fn() -> Term + Send + Sync + 'static,
    ) -> Snapshot {
        let control = SnapControl::Deferred {
            resolve: Arc::new(resolve),
            cell: Arc::new(OnceLock::new()),
        };
        Snapshot::of(core, control)
    }

    /// The one capture path: everything but the control comes from `core`.
    fn of(core: &Core, control: SnapControl) -> Snapshot {
        Snapshot {
            control,
            dialect: core.dialect,
            memory: core.mem.clone(),
            stats: core.stats.clone(),
            halted: core.halted,
            pending_faults: core.ctl.faults.clone(),
            telem_phase: core.telem.phase_state(),
        }
    }

    /// The resolved control term at capture time (materialized on first
    /// access when the capture was deferred).
    pub fn control(&self) -> &Term {
        self.control.get()
    }

    /// The dialect of the machine that captured this snapshot.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The captured page store.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The captured statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The captured halt value, if the machine had already halted.
    pub fn halted(&self) -> Option<i64> {
        self.halted
    }

    /// Fault plans that were still armed (not yet injected) at capture
    /// time. Restoring re-arms exactly these, so a resumed run re-injects
    /// deterministically — the property the supervisor's replay relies on.
    pub fn pending_faults(&self) -> &[crate::faults::FaultPlan] {
        &self.pending_faults
    }

    /// The step the snapshot was captured at.
    pub fn step(&self) -> u64 {
        self.stats.steps
    }

    /// The captured telemetry collection accounting.
    pub fn telemetry_phase(&self) -> &TelemetryPhase {
        &self.telem_phase
    }
}

/// A bounded ring of checkpoints, oldest first.
#[derive(Clone, Debug, Default)]
pub struct SnapRing {
    snaps: Vec<Snapshot>,
}

impl SnapRing {
    /// An empty ring.
    pub fn new() -> SnapRing {
        SnapRing::default()
    }

    /// Appends a snapshot, evicting the oldest once [`RING_CAPACITY`] is
    /// reached.
    pub fn push(&mut self, snap: Snapshot) {
        if self.snaps.len() == RING_CAPACITY {
            self.snaps.remove(0);
        }
        self.snaps.push(snap);
    }

    /// The retained snapshots, oldest → newest.
    pub fn as_slice(&self) -> &[Snapshot] {
        &self.snaps
    }

    /// Drops every retained snapshot (a restore does this: checkpoints
    /// taken on the old timeline no longer describe this machine).
    pub fn clear(&mut self) {
        self.snaps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Program;
    use crate::memory::MemConfig;
    use crate::syntax::Value;

    fn dummy(step: u64) -> Snapshot {
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(0)),
        };
        let mut core = Core::load(&program, MemConfig::default());
        core.stats.steps = step;
        Snapshot::capture(&core, program.main)
    }

    #[test]
    fn ring_keeps_the_newest_capacity_snapshots() {
        let mut ring = SnapRing::new();
        for i in 0..10 {
            ring.push(dummy(i));
        }
        let steps: Vec<u64> = ring.as_slice().iter().map(Snapshot::step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        ring.clear();
        assert!(ring.as_slice().is_empty());
    }
}
