//! The λGC abstract machine: the operational semantics of Fig. 5, extended
//! with the λGCforw rules of §7 and the λGCgen rules of §8.
//!
//! A machine state is a pair `(M, e)` of a memory and a closed term. The
//! machine implements every reduction rule of the paper literally; the only
//! additions are the integer primitives (`if0`, arithmetic) documented in
//! [`crate::syntax`].
//!
//! One figure-5 typo is corrected: the published rule for
//! `ifleft x = (inr v) eₗ eᵣ` steps to `eₗ[inr v/x]`, which contradicts the
//! typing rule of Fig. 8 and the use in Fig. 9; we step to `eᵣ[inr v/x]`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use crate::error::{dialect_err, stuck_err, ErrorKind, LangError, Result};
use crate::faults::FaultPlan;
use crate::intern::{intern_tag, intern_ty, intern_value, SlotVal, TagId, TyId};
use crate::memory::{MemConfig, Memory, ReclaimReport};
use crate::snapshot::{SnapRing, Snapshot};
use crate::subst::Subst;
use crate::syntax::{CodeDef, Dialect, Op, Region, RegionName, Tag, Term, Ty, Value};
use crate::tags;
use crate::telemetry::{SharedObserver, Telemetry};
use sealed::{Core, HasCore};

/// A closed λGC program: code blocks to install in `cd` plus the main term.
///
/// The main term refers to code via `Value::Addr(CD, i)` where `i` is the
/// index of the block in `code`.
#[derive(Clone, Debug)]
pub struct Program {
    pub dialect: Dialect,
    pub code: Vec<crate::syntax::CodeDef>,
    pub main: Term,
}

/// Most detailed [`ReclaimReport`]s kept in [`Stats::reclaim_events`].
///
/// The aggregate counters (`collections`, `words_reclaimed`,
/// `kept_words_total`) always cover every collection; only the per-event
/// log is bounded, so long-running programs do not grow memory without
/// bound. The *first* events are kept (rather than the last) because the
/// per-event consumers — warm-up analyses, the E4 benchmark, examples —
/// all look at the beginning of the run.
pub const MAX_RECLAIM_EVENTS: usize = 1024;

/// Statistics collected while running.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Machine steps taken (one per reduction rule).
    pub steps: u64,
    /// Number of `put` allocations.
    pub allocations: u64,
    /// Words allocated by `put`.
    pub words_allocated: u64,
    /// Regions created by `let region`.
    pub regions_created: u64,
    /// `only` executions that actually dropped data (i.e. collections).
    pub collections: u64,
    /// Words reclaimed by `only`.
    pub words_reclaimed: u64,
    /// Total live words kept across all collections (the sum of every
    /// report's `kept_words`, i.e. total copy work in copying collectors).
    pub kept_words_total: u64,
    /// Peak total words in data regions.
    pub peak_data_words: usize,
    /// `typecase` dispatches taken.
    pub typecase_dispatches: u64,
    /// `ifgc` checks that came back "full".
    pub gc_triggers: u64,
    /// `set` writes (forwarding-pointer installs).
    pub forwarding_installs: u64,
    /// Reports from each `only` that dropped something, capped at the
    /// first [`MAX_RECLAIM_EVENTS`] collections.
    pub reclaim_events: Vec<ReclaimReport>,
}

impl Stats {
    /// Folds an `only` report into the statistics: counts it as a
    /// collection if it dropped anything, updates the aggregate counters,
    /// and appends to the bounded event log. Called only by
    /// `Core::only`, so every backend's `Stats` stay bit-for-bit identical.
    pub(crate) fn record_reclaim(&mut self, report: ReclaimReport) {
        if report.dropped.is_empty() {
            return;
        }
        self.collections += 1;
        self.words_reclaimed += report.words_reclaimed() as u64;
        self.kept_words_total += report.kept_words as u64;
        if self.reclaim_events.len() < MAX_RECLAIM_EVENTS {
            self.reclaim_events.push(report);
        }
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps, {} allocations ({} words), {} collections ({} words reclaimed), peak {} live words",
            self.steps,
            self.allocations,
            self.words_allocated,
            self.collections,
            self.words_reclaimed,
            self.peak_data_words
        )
    }
}

/// Which interpreter backend evaluates λGC terms.
///
/// Every backend implements the same operational semantics and produces
/// identical results *and identical [`Stats`] and telemetry* on every
/// program (checked by the differential test suite). They differ only in
/// how β-reduction is realised:
///
/// * [`Backend::Subst`] — the literal Fig. 5 machine ([`SubstMachine`]): each
///   step textually substitutes into the continuation. O(|term|) per
///   step, but the state is always a closed term, which is what the
///   well-formedness judgement `⊢ (M, e)` of `crate::wf` consumes. This
///   is the paper-faithful oracle.
/// * [`Backend::Env`] — the environment machine
///   ([`crate::env_machine::EnvMachine`]): terms run against a
///   value/tag/region environment, the control is an interned term handle
///   (or a code block's shared `Arc<CodeDef>`), and variables are resolved
///   lazily at use sites. O(1) per step modulo value size.
/// * [`Backend::Bytecode`] — the register-based bytecode VM
///   ([`crate::bytecode::BcMachine`]): terms are compiled once to a flat
///   instruction stream with variable occurrences resolved to register
///   slots at compile time, then executed by a dispatch loop. The fastest
///   backend; the default for plain runs and benchmarks is still chosen
///   by [`Backend::default_for`].
///
/// New code should not `match` on `Backend` outside this module: construct
/// machines through [`Backend::load`] and drive test matrices and CLI
/// parsing from [`Backend::ALL`], so a future fourth backend is a
/// one-module change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Fig. 5 substitution semantics (the reference/oracle).
    Subst,
    /// Environment-based interpreter.
    Env,
    /// Register-based bytecode VM (fast path).
    Bytecode,
}

impl Backend {
    /// Every backend, in canonical order (drives CLI metavars and the
    /// exhaustive collector × backend test matrices).
    pub const ALL: [Backend; 3] = [Backend::Subst, Backend::Env, Backend::Bytecode];

    /// The canonical name, as accepted by [`FromStr`](std::str::FromStr)
    /// and printed by [`Display`](std::fmt::Display).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Subst => "subst",
            Backend::Env => "env",
            Backend::Bytecode => "bytecode",
        }
    }

    /// The backend picked when the caller expresses no preference: the
    /// substitution machine, the Fig. 5 oracle, when the memory typing `Ψ`
    /// is being tracked, the environment fast path otherwise. Typed runs
    /// are not tied to the oracle: every backend's typed audits check the
    /// store against `Ψ`, from the closed term
    /// [`Machine::resolved_control`] rebuilds.
    pub fn default_for(track_types: bool) -> Backend {
        if track_types {
            Backend::Subst
        } else {
            Backend::Env
        }
    }

    /// Loads `program` on this backend, returning it behind the [`Machine`]
    /// trait. This is the single construction point for all backends —
    /// callers that used to `match` on `Backend` go through here instead.
    pub fn load(self, program: &Program, config: MemConfig) -> Box<dyn Machine> {
        match self {
            Backend::Subst => Box::new(SubstMachine::load(program, config)),
            Backend::Env => Box::new(crate::env_machine::EnvMachine::load(program, config)),
            Backend::Bytecode => Box::new(crate::bytecode::BcMachine::load(program, config)),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Backend, String> {
        match s {
            "subst" | "substitution" => Ok(Backend::Subst),
            "env" | "environment" => Ok(Backend::Env),
            "bytecode" | "bc" => Ok(Backend::Bytecode),
            other => Err(format!(
                "unknown backend {other:?} (expected subst|env|bytecode)"
            )),
        }
    }
}

/// How the periodic heap audit (`verify_every`) walks the store.
///
/// Incremental audits re-check only pages dirtied since the last audit
/// ([`crate::verify::audit_dirty`]), escalating to a full walk whenever the
/// memory demands one ([`Memory::wants_full_audit`], raised by region
/// frees). This keeps per-step auditing within a small constant factor of
/// an unaudited run while detecting every injected fault at the same step
/// as the full walk — so it is the default. `Full` forces the exhaustive
/// [`crate::verify::audit_state`] walk on every audit, as a cross-check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuditMode {
    /// Dirty-page audits, with full walks at reclamation boundaries.
    #[default]
    Incremental,
    /// Exhaustive full-heap walk on every audit.
    Full,
}

impl std::fmt::Display for AuditMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AuditMode::Incremental => "incremental",
            AuditMode::Full => "full",
        })
    }
}

impl std::str::FromStr for AuditMode {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<AuditMode, String> {
        match s {
            "incremental" => Ok(AuditMode::Incremental),
            "full" => Ok(AuditMode::Full),
            other => Err(format!(
                "unknown audit mode {other:?} (expected incremental|full)"
            )),
        }
    }
}

/// The result of running a machine to completion (or out of fuel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `halt v` was reached with the given integer.
    Halted(i64),
    /// Fuel ran out before halting.
    OutOfFuel,
    /// A periodic heap audit ([`crate::verify`]) found a violated
    /// invariant. The machine state is left as-is for post-mortems.
    InvariantViolation(LangError),
    /// The wall-clock limit ([`RunControl::timeout`]) passed before
    /// halting. Like [`Outcome::OutOfFuel`] the state is intact; the
    /// supervisor restarts such runs from their last checkpoint.
    DeadlineExceeded,
}

/// One machine step's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The machine took a step.
    Continue,
    /// `halt v` was reached.
    Halted(i64),
}

/// What [`Machine::run`] does between steps to catch a faulty collector:
/// the periodic Fig. 7 heap audit, armed fault plans, checkpoints, and a
/// wall-clock limit. Every backend holds one and runs it through the
/// same run loop, so the cadence is defined once. The default audits
/// nothing, injects nothing, takes no checkpoints and has no time limit.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    /// Audit the heap every this many steps (0 = never). A failed audit
    /// ends the run with [`Outcome::InvariantViolation`].
    pub verify_every: u64,
    /// How those audits walk the heap.
    pub audit: AuditMode,
    /// Fault plans still armed, in spec order: each is injected as soon
    /// as its step and the heap shape allow, then disarmed (see
    /// [`crate::faults`]).
    pub faults: Vec<FaultPlan>,
    /// Capture a checkpoint every this many steps and at every collection
    /// boundary (0 = never).
    pub checkpoint_every: u64,
    /// Wall-clock limit per [`Machine::run`] call, counted from its start:
    /// the run returns [`Outcome::DeadlineExceeded`] soon after it passes
    /// (polled every 1024 steps, so it costs nothing on the hot path).
    pub timeout: Option<Duration>,
    snaps: SnapRing,
}

impl RunControl {
    /// The checkpoints captured so far, oldest → newest (bounded by
    /// [`crate::snapshot::RING_CAPACITY`]).
    pub fn snapshots(&self) -> &[Snapshot] {
        self.snaps.as_slice()
    }

    /// The deadline of a run starting now.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }

    /// Stores a checkpoint in the ring.
    pub(crate) fn push_snapshot(&mut self, snap: Snapshot) {
        self.snaps.push(snap);
    }
}

/// The arm a `typecase` dispatch selects, with the tags its binders get.
pub(crate) enum TypecaseArm {
    Int,
    Arrow,
    /// `τ₁ × τ₂`: the product arm binds `t₁ := τ₁` and `t₂ := τ₂`.
    Prod(TagId, TagId),
    /// `∃t.τ`: the existential arm binds `tₑ := λt.τ`.
    Exist(TagId),
}

pub(crate) mod sealed {
    use std::sync::Arc;

    use super::{
        dialect_err, intern_tag, stuck_err, CodeDef, Dialect, LangError, MemConfig, Memory,
        Program, Region, RegionName, Result, RunControl, SlotVal, Snapshot, Stats, Tag, TagId,
        Telemetry, TypecaseArm, Value,
    };

    /// The state every backend keeps in the same shape, and the effect half
    /// of every Fig. 5 rule: its memory call, its [`Stats`] counter, its
    /// telemetry hook and its stuck message. A backend resolves a rule's
    /// operands against its own state and decides where control goes next;
    /// what the rule *does* is written here once. (`pub` only because the
    /// sealed trait's signature names it; it cannot be named outside this
    /// crate.)
    #[derive(Clone, Debug)]
    pub struct Core {
        pub(crate) mem: Memory,
        pub(crate) dialect: Dialect,
        pub(crate) stats: Stats,
        pub(crate) telem: Telemetry,
        pub(crate) halted: Option<i64>,
        pub(crate) ctl: RunControl,
    }

    impl Core {
        /// A fresh state for `program`, its code blocks installed in `cd`.
        pub(crate) fn load(program: &Program, config: MemConfig) -> Core {
            let mut mem = Memory::new(config);
            for def in &program.code {
                mem.install_code(Value::Code(Arc::new(def.clone())), def.ty());
            }
            Core {
                mem,
                dialect: program.dialect,
                stats: Stats::default(),
                telem: Telemetry::default(),
                halted: None,
                ctl: RunControl::default(),
            }
        }

        /// The shared half of [`super::Machine::restore`]: memory,
        /// statistics, halt state, pending fault plans and telemetry
        /// collection accounting revert to `snap`'s, and the checkpoints
        /// of the abandoned timeline are dropped.
        pub(crate) fn restore(&mut self, snap: &Snapshot) -> Result<()> {
            if snap.dialect() != self.dialect {
                return Err(dialect_err(format!(
                    "snapshot dialect {} does not match machine dialect {}",
                    snap.dialect(),
                    self.dialect
                )));
            }
            self.mem = snap.memory().clone();
            self.stats = snap.stats().clone();
            self.halted = snap.halted();
            self.ctl.faults = snap.pending_faults().to_vec();
            self.ctl.snaps.clear();
            self.telem.restore_phase(snap.telemetry_phase());
            Ok(())
        }

        /// A stuck-state error, in the context of the machine's dialect.
        pub(crate) fn stuck(&self, msg: String) -> LangError {
            stuck_err(msg).in_context(format!("dialect {}", self.dialect))
        }

        /// The name of a resolved region operand; stuck on a region
        /// variable nothing bound.
        pub(crate) fn name(&self, rho: Region) -> Result<RegionName> {
            match rho {
                Region::Name(nu) => Ok(nu),
                Region::Var(r) => Err(self.stuck(format!("unsubstituted region variable {r}"))),
            }
        }

        /// Folds the current data-region size into the peak, after every
        /// step that did not halt.
        #[inline]
        pub(crate) fn sample_peak(&mut self) {
            self.stats.peak_data_words = self.stats.peak_data_words.max(self.mem.data_words());
        }

        /// The halt value once a step ended the control.
        pub(crate) fn ended(&self) -> Result<i64> {
            self.halted
                .ok_or_else(|| self.stuck("step ended without a term or a halt value".into()))
        }

        /// `halt v`: the machine stops with the integer `v`.
        pub(crate) fn halt(&mut self, v: Value) -> Result<()> {
            match v {
                Value::Int(n) => {
                    self.halted = Some(n);
                    self.telem.on_halt(n, self.stats.steps);
                    Ok(())
                }
                other => Err(self.stuck(format!("halt on non-integer value {other:?}"))),
            }
        }

        /// `ifgc ρ`: whether region `ρ` is full, counted as a collection
        /// trigger when it is.
        pub(crate) fn ifgc(&mut self, rho: Region) -> Result<bool> {
            let nu = self.name(rho)?;
            let full = self.mem.is_full(nu)?;
            if full {
                self.stats.gc_triggers += 1;
                self.telem.on_gc_trigger(nu, &self.mem, self.stats.steps);
            }
            Ok(full)
        }

        /// `let region r`: the fresh region `r` names.
        pub(crate) fn let_region(&mut self) -> Region {
            let nu = self.mem.alloc_region();
            self.stats.regions_created += 1;
            self.telem.on_region_alloc(nu, &self.mem, self.stats.steps);
            Region::Name(nu)
        }

        /// `only ∆`: reclaims every data region outside `keep`.
        pub(crate) fn only(&mut self, keep: impl IntoIterator<Item = Region>) -> Result<()> {
            let keep = keep
                .into_iter()
                .map(|rho| self.name(rho))
                .collect::<Result<Vec<_>>>()?;
            let report = self.mem.only(&keep);
            self.telem.on_only(&report, &self.mem, self.stats.steps);
            self.stats.record_reclaim(report);
            Ok(())
        }

        /// `put[ν] v`: stores `sv` in region `nu`, returning its address.
        pub(crate) fn put(&mut self, nu: RegionName, sv: SlotVal) -> Result<Value> {
            let rec = self.mem.put_slot_counted(nu, sv)?;
            self.stats.allocations += 1;
            self.stats.words_allocated += rec.words as u64;
            if let Some(alloc) = rec.page {
                self.telem.on_page_alloc(nu, alloc, self.stats.steps);
            }
            self.telem.on_put(nu, rec.words, self.stats.steps);
            Ok(Value::Addr(nu, rec.loc))
        }

        /// `set v₁ := v₂`: overwrites the object at address `dst` (a
        /// forwarding-pointer install).
        pub(crate) fn set(&mut self, dst: Value, src: Value) -> Result<()> {
            match dst {
                Value::Addr(nu, loc) => {
                    self.mem.set(nu, loc, src)?;
                    self.stats.forwarding_installs += 1;
                    Ok(())
                }
                other => Err(self.stuck(format!("set on non-address {other:?}"))),
            }
        }

        /// `typecase τ`: the arm the normal tag `nf` selects.
        pub(crate) fn typecase(&mut self, nf: TagId) -> Result<TypecaseArm> {
            self.stats.typecase_dispatches += 1;
            match nf.node() {
                Tag::Int => Ok(TypecaseArm::Int),
                Tag::Arrow(_) => Ok(TypecaseArm::Arrow),
                Tag::Prod(a, b) => Ok(TypecaseArm::Prod(*a, *b)),
                Tag::Exist(t, body) => Ok(TypecaseArm::Exist(intern_tag(Tag::Lam(*t, *body)))),
                other => Err(self.stuck(format!("typecase on non-constructor tag {other:?}"))),
            }
        }

        /// The code block `f[~τ][~ρ](~v)` enters, for an `f` that is not a
        /// tag application: `f` must address code taking `nt` tags, `nr`
        /// regions and `na` values.
        pub(crate) fn callee(
            &mut self,
            f: &Value,
            nt: usize,
            nr: usize,
            na: usize,
        ) -> Result<Arc<CodeDef>> {
            let target = match f {
                Value::Addr(nu, loc) => self.mem.get(*nu, *loc)?,
                other => other,
            };
            let code = match (f, target) {
                (Value::Addr(..), Value::Code(def)) => Arc::clone(def),
                (_, other) => {
                    let msg = format!("application of non-code value {other:?}");
                    return Err(self.stuck(msg));
                }
            };
            if code.tvars.len() != nt || code.rvars.len() != nr || code.params.len() != na {
                return Err(self.stuck(format!(
                    "arity mismatch calling {}: expected [{}][{}]({}), got [{nt}][{nr}]({na})",
                    code.name,
                    code.tvars.len(),
                    code.rvars.len(),
                    code.params.len(),
                )));
            }
            Ok(code)
        }
    }

    /// Gives the provided [`super::Machine`] methods the backend's
    /// [`Core`] and its one reduction step; implemented by the three
    /// backends only, so `Machine` cannot be implemented outside this
    /// crate.
    pub trait HasCore {
        fn core(&self) -> &Core;
        fn core_mut(&mut self) -> &mut Core;
        /// Reduces the control by one rule, its effects applied through the
        /// [`Core`]: `Ok(false)` when the control ended (`halt`). A failed
        /// reduction leaves the control as it was.
        fn reduce(&mut self) -> Result<bool>;
    }
}

/// The uniform execution interface every interpreter backend implements.
///
/// A `Machine` is a loaded λGC program plus a heap: it can be stepped or
/// run, observed through telemetry, audited against the heap invariants,
/// and subjected to fault injection. The contract — enforced by the
/// lockstep differential suite — is that all implementations are
/// *observationally identical*: byte-identical [`Stats`], byte-identical
/// telemetry event streams, identical error messages, and the same
/// [resolved control term](Machine::resolved_control) before every step.
///
/// Obtain one with [`Backend::load`]; the concrete types
/// ([`SubstMachine`], [`crate::env_machine::EnvMachine`],
/// [`crate::bytecode::BcMachine`]) remain available for code that needs
/// backend-specific views (e.g. `crate::wf` consumes the substitution
/// machine's closed term directly).
pub trait Machine: sealed::HasCore {
    /// Attaches a telemetry observer; `step_interval > 0` also emits
    /// periodic heap samples. Without an observer every telemetry hook is
    /// a single `Option` check.
    fn set_observer(&mut self, observer: SharedObserver, step_interval: u64) {
        self.core_mut().telem.attach(observer, step_interval);
    }

    /// The audit cadence, fault plans, checkpoints and time limit that
    /// [`Machine::run`] honours.
    fn run_control(&self) -> &RunControl {
        &self.core().ctl
    }

    /// Mutable access to the [`RunControl`], to configure a run.
    fn run_control_mut(&mut self) -> &mut RunControl {
        &mut self.core_mut().ctl
    }

    /// Captures a checkpoint of the current state, restorable into any
    /// backend via [`Machine::restore`].
    fn snapshot(&self) -> Snapshot;

    /// Restores a checkpoint: memory, control, statistics, halt state,
    /// pending fault plans, and telemetry collection accounting all revert
    /// to the captured values; the checkpoint ring is cleared. The attached
    /// observer and the rest of the [`RunControl`] (audit cadence,
    /// checkpoint cadence, time limit) are kept.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Dialect`] error if the snapshot was captured
    /// under a different dialect.
    fn restore(&mut self, snap: &Snapshot) -> Result<()>;

    /// Forces eager interning of every heap slot at `put` time, disabling
    /// the lazy ids-or-thunks representation. The substitution oracle
    /// ignores this: its values are interned by construction. Must be
    /// called before the first step.
    fn set_eager_intern(&mut self, _on: bool) {}

    /// The machine's memory.
    fn memory(&self) -> &Memory {
        &self.core().mem
    }

    /// Mutable access to the memory — **fault-injection machinery**. The
    /// interpreter itself never needs this; it exists so [`crate::faults`]
    /// and adversarial tests can corrupt a live state.
    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.core_mut().mem
    }

    /// The dialect the loaded program was compiled for.
    fn dialect(&self) -> Dialect {
        self.core().dialect
    }

    /// Execution statistics so far.
    fn stats(&self) -> &Stats {
        &self.core().stats
    }

    /// The halt value, if the machine has halted.
    fn halted(&self) -> Option<i64> {
        self.core().halted
    }

    /// The current control term with every environment/register binding
    /// substituted in — a closed term structurally identical to the
    /// substitution oracle's state at the same step. This is the view the
    /// heap auditor and fault injector consume.
    fn resolved_control(&self) -> Term;

    /// Runs the [`crate::verify`] heap auditor against the current state.
    /// The reachability root is [`Machine::resolved_control`], so the
    /// verdict is backend-independent.
    ///
    /// # Errors
    ///
    /// Returns the first violated Fig. 7 invariant.
    fn audit(&self) -> Result<()> {
        crate::verify::audit_state(self.memory(), self.dialect(), &self.resolved_control())
    }

    /// Takes a single machine step (one reduction rule). A halted machine
    /// stays halted without counting a step; a failed step leaves the
    /// control as it was, so stepping again fails the same way.
    ///
    /// # Errors
    ///
    /// Returns a stuck-state or memory error if no rule applies.
    fn step(&mut self) -> Result<StepOutcome> {
        let c = self.core_mut();
        if let Some(n) = c.halted {
            return Ok(StepOutcome::Halted(n));
        }
        c.stats.steps += 1;
        c.telem.on_step(c.stats.steps, &c.mem);
        if self.reduce()? {
            self.core_mut().sample_peak();
            Ok(StepOutcome::Continue)
        } else {
            self.core().ended().map(StepOutcome::Halted)
        }
    }

    /// Runs until `halt`, an error, or `fuel` steps, honouring the
    /// [`RunControl`]: after each step it injects due fault plans, audits
    /// at the audit cadence, checkpoints at the checkpoint cadence and at
    /// collection boundaries, and polls the deadline
    /// ([`RunControl::timeout`] from now).
    ///
    /// # Errors
    ///
    /// Returns a stuck-state error if no reduction rule applies — a progress
    /// violation for well-typed programs (Prop. 6.5) — or an
    /// [`ErrorKind::OutOfMemory`] error if an allocation would exceed
    /// [`MemConfig::max_heap_words`].
    fn run(&mut self, fuel: u64) -> Result<Outcome> {
        let deadline = self.run_control().deadline();
        drive(self, fuel, deadline)
    }
}

/// The run loop behind [`Machine::run`], shared by every backend and
/// compiled separately for each (static dispatch, no `dyn` call per step).
/// After each step, in order: OOM telemetry on a failed step, fault
/// injection, the full or dirty-page audit, the checkpoint, the deadline
/// poll; fuel telemetry when the loop runs dry.
pub(crate) fn drive<M: Machine + ?Sized>(
    m: &mut M,
    fuel: u64,
    deadline: Option<Instant>,
) -> Result<Outcome> {
    // The next interval-checkpoint step, derived once: the loop below
    // runs per step, so a compare-and-bump replaces a per-step modulo.
    let mut next_cp = match m.run_control().checkpoint_every {
        0 => u64::MAX,
        n => m.stats().steps - m.stats().steps % n + n,
    };
    for _ in 0..fuel {
        let cols = m.stats().collections;
        match m.step() {
            Ok(StepOutcome::Continue) => {}
            Ok(StepOutcome::Halted(n)) => return Ok(Outcome::Halted(n)),
            Err(e) => {
                if e.kind() == ErrorKind::OutOfMemory {
                    let step = m.stats().steps;
                    let c = m.core_mut();
                    let limit = c.mem.config().max_heap_words.unwrap_or(0);
                    c.telem.on_oom(step, c.mem.data_words(), limit);
                }
                return Err(e);
            }
        }
        let step = m.stats().steps;
        if !m.run_control().faults.is_empty() {
            inject(m, step);
        }
        let every = m.run_control().verify_every;
        if every > 0 && step.is_multiple_of(every) {
            if let Err(e) = audit_now(m) {
                m.core_mut()
                    .telem
                    .on_invariant_violation(step, &e.to_string());
                return Ok(Outcome::InvariantViolation(e));
            }
        }
        let every = m.run_control().checkpoint_every;
        if every > 0 && (m.stats().collections != cols || step >= next_cp) {
            if step >= next_cp {
                next_cp += every;
            }
            let c = m.core_mut();
            c.telem.on_snapshot(step, &c.mem);
            let snap = m.snapshot();
            m.core_mut().ctl.push_snapshot(snap);
        }
        if let Some(dl) = deadline {
            if step & 1023 == 0 && Instant::now() >= dl {
                return Ok(Outcome::DeadlineExceeded);
            }
        }
    }
    let step = m.stats().steps;
    m.core_mut().telem.on_fuel_exhausted(step);
    Ok(Outcome::OutOfFuel)
}

/// Applies each armed fault plan whose step has been reached, in spec
/// order, at a site chosen from the resolved control (the closed term all
/// backends agree on, so they pick identical sites). A plan stays armed
/// until an application actually lands: it may find no target at its
/// nominal step, e.g. before the first allocation.
fn inject<M: Machine + ?Sized>(m: &mut M, step: u64) {
    if m.run_control().faults.iter().all(|p| step < p.step) {
        return;
    }
    let root = m.resolved_control();
    let c = m.core_mut();
    c.ctl
        .faults
        .retain(|plan| step < plan.step || crate::faults::apply(plan, &mut c.mem, &root).is_none());
}

/// One periodic audit: a full walk when [`AuditMode::Full`] asks for it or
/// the memory demands one ([`Memory::wants_full_audit`]), otherwise the
/// dirty-page audit.
fn audit_now<M: Machine + ?Sized>(m: &mut M) -> Result<()> {
    if m.run_control().audit == AuditMode::Full || m.memory().wants_full_audit() {
        m.audit()?;
        m.memory_mut().note_full_audit();
        Ok(())
    } else {
        let dialect = m.dialect();
        crate::verify::audit_dirty(m.memory_mut(), dialect)
    }
}

/// A λGC machine state `(M, e)` plus bookkeeping.
#[derive(Clone, Debug)]
pub struct SubstMachine {
    core: Core,
    term: Term,
}

impl SubstMachine {
    /// Loads a program: installs its code blocks in `cd` and sets the main
    /// term as the current redex.
    pub fn load(program: &Program, config: MemConfig) -> SubstMachine {
        SubstMachine {
            core: Core::load(program, config),
            term: program.main.clone(),
        }
    }

    /// The current term.
    pub fn term(&self) -> &Term {
        &self.term
    }

    /// One Fig. 5 rule on the closed term `term`: the next term, or `None`
    /// once `halt` stopped the machine.
    fn step_term(core: &mut Core, term: &Term) -> Result<Option<Term>> {
        let next = match term {
            Term::App {
                f,
                tags: ts,
                regions,
                args,
            } => Self::step_app(core, f, ts, regions, args)?,
            Term::Let { x, op, body } => {
                let v = Self::eval_op(core, op)?;
                let mut sub = Subst::new();
                sub.bind_val(*x, v);
                sub.term(body)
            }
            Term::Halt(v) => {
                core.halt(v.clone())?;
                return Ok(None);
            }
            Term::IfGc { rho, full, cont } => {
                let arm = if core.ifgc(*rho)? { full } else { cont };
                arm.node().clone()
            }
            Term::OpenTag { pkg, tvar, x, body } => match pkg {
                Value::PackTag { tag, val, .. } => {
                    // Fig. 5 normalizes the witness tag before substituting.
                    let mut sub = Subst::new();
                    sub.bind_tag(*tvar, tags::normalize_id(*tag).0);
                    sub.bind_val(*x, val.node().clone());
                    sub.term(body)
                }
                other => return Err(core.stuck(format!("open(tag) on non-package {other:?}"))),
            },
            Term::OpenAlpha { pkg, avar, x, body } => match pkg {
                Value::PackAlpha { witness, val, .. } => {
                    let mut sub = Subst::new();
                    sub.bind_alpha(*avar, *witness);
                    sub.bind_val(*x, val.node().clone());
                    sub.term(body)
                }
                other => return Err(core.stuck(format!("open(α) on non-package {other:?}"))),
            },
            Term::OpenRgn { pkg, rvar, x, body } => match pkg {
                Value::PackRgn { witness, val, .. } => {
                    let nu = core.name(*witness)?;
                    let mut sub = Subst::new();
                    sub.bind_rgn(*rvar, Region::Name(nu));
                    sub.bind_val(*x, val.node().clone());
                    sub.term(body)
                }
                other => return Err(core.stuck(format!("open(region) on non-package {other:?}"))),
            },
            Term::LetRegion { rvar, body } => {
                let mut sub = Subst::new();
                sub.bind_rgn(*rvar, core.let_region());
                sub.term(body)
            }
            Term::Only { regions, body } => {
                core.only(regions.iter().copied())?;
                body.node().clone()
            }
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm: (t1, t2, prod_body),
                exist_arm: (te, exist_body),
            } => match core.typecase(tags::normalize_id(*tag).0)? {
                TypecaseArm::Int => int_arm.node().clone(),
                TypecaseArm::Arrow => arrow_arm.node().clone(),
                TypecaseArm::Prod(a, b) => {
                    let mut sub = Subst::new();
                    sub.bind_tag(*t1, a);
                    sub.bind_tag(*t2, b);
                    sub.term(prod_body)
                }
                TypecaseArm::Exist(f) => {
                    let mut sub = Subst::new();
                    sub.bind_tag(*te, f);
                    sub.term(exist_body)
                }
            },
            Term::IfLeft {
                x,
                scrut,
                left,
                right,
            } => {
                let arm = match scrut {
                    Value::Inl(_) => left,
                    Value::Inr(_) => right,
                    other => return Err(core.stuck(format!("ifleft on non-sum value {other:?}"))),
                };
                let mut sub = Subst::new();
                sub.bind_val(*x, scrut.clone());
                sub.term(arm)
            }
            Term::Set { dst, src, body } => {
                core.set(dst.clone(), src.clone())?;
                body.node().clone()
            }
            Term::Widen {
                x,
                from,
                to,
                tag,
                v,
                body,
            } => {
                // Operationally a no-op: `widen` is the cast whose soundness
                // §7.1 establishes; only the (observer) memory typing Ψ is
                // rewritten by the T operator of Appendix C.
                if core.mem.config().track_types {
                    let from = core.name(*from)?;
                    let to = core.name(*to)?;
                    widen_psi(&mut core.mem, v, tags::normalize_id(*tag).0, from, to)?;
                }
                let mut sub = Subst::new();
                sub.bind_val(*x, v.clone());
                sub.term(body)
            }
            Term::IfReg { r1, r2, eq, ne } => {
                let arm = if core.name(*r1)? == core.name(*r2)? {
                    eq
                } else {
                    ne
                };
                arm.node().clone()
            }
            Term::If0 {
                scrut,
                zero,
                nonzero,
            } => match scrut {
                Value::Int(0) => zero.node().clone(),
                Value::Int(_) => nonzero.node().clone(),
                other => return Err(core.stuck(format!("if0 on non-integer {other:?}"))),
            },
        };
        Ok(Some(next))
    }

    fn step_app(
        core: &mut Core,
        f: &Value,
        ts: &[TagId],
        regions: &[Region],
        args: &[Value],
    ) -> Result<Term> {
        if let Value::TagApp(inner, rec_tags, rec_rgns) = f {
            // (vJ~τ;~ρK)[~τ][~ρ](~v) ⇒ v[~τ][~ρ](~v). The recorded tags
            // and regions are authoritative; the supplied ones must
            // agree (checked statically).
            return Ok(Term::App {
                f: inner.node().clone(),
                tags: rec_tags.clone(),
                regions: rec_rgns.to_vec(),
                args: args.to_vec(),
            });
        }
        let code = core.callee(f, ts.len(), regions.len(), args.len())?;
        // Fig. 5's first rule normalizes the tag arguments before the β
        // step.
        let mut sub = Subst::new();
        for ((t, _), tau) in code.tvars.iter().zip(ts) {
            sub.bind_tag(*t, tags::normalize_id(*tau).0);
        }
        for (r, rho) in code.rvars.iter().zip(regions) {
            sub.bind_rgn(*r, *rho);
        }
        for ((x, _), v) in code.params.iter().zip(args) {
            sub.bind_val(*x, v.clone());
        }
        Ok(sub.term(&code.body))
    }

    fn eval_op(core: &mut Core, op: &Op) -> Result<Value> {
        match op {
            Op::Val(v) => Ok(v.clone()),
            Op::Proj(i, v) => match v {
                Value::Pair(a, b) => Ok(if *i == 1 { a } else { b }.node().clone()),
                other => Err(core.stuck(format!("projection π{i} of non-pair {other:?}"))),
            },
            Op::Put(rho, v) => {
                let nu = core.name(*rho)?;
                core.put(nu, SlotVal::Val(v.clone()))
            }
            Op::Get(v) => match v {
                Value::Addr(nu, loc) => Ok(core.mem.get(*nu, *loc)?.clone()),
                other => Err(core.stuck(format!("get of non-address {other:?}"))),
            },
            Op::Strip(v) => match v {
                Value::Inl(x) | Value::Inr(x) => Ok(x.node().clone()),
                other => Err(core.stuck(format!("strip of untagged value {other:?}"))),
            },
            Op::Prim(p, a, b) => match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(p.apply(*x, *y))),
                (a, b) => Err(core.stuck(format!("primitive {p} on non-integers {a:?}, {b:?}"))),
            },
        }
    }
}

impl HasCore for SubstMachine {
    fn core(&self) -> &Core {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    fn reduce(&mut self) -> Result<bool> {
        match Self::step_term(&mut self.core, &self.term)? {
            Some(next) => {
                self.term = next;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl Machine for SubstMachine {
    fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.core, self.term.clone())
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        self.core.restore(snap)?;
        self.term = snap.control().clone();
        Ok(())
    }

    fn resolved_control(&self) -> Term {
        // The state *is* the closed control term.
        self.term.clone()
    }

    fn audit(&self) -> Result<()> {
        crate::verify::audit_state(&self.core.mem, self.core.dialect, &self.term)
    }
}

/// Rewrites `Ψ` for a `widen` by walking the live graph from `v` guided
/// by the tag, applying the `T` operator of Appendix C: every reachable
/// entry of the from-region changes from its `M`-form to the
/// corresponding `C`-form. Unreached entries of the from-region are
/// dropped from `Ψ` (they are garbage; Def. 7.1's `M̄ ⊆ M`).
///
/// A free function over the memory so all three backends share it.
pub(crate) fn widen_psi(
    mem: &mut Memory,
    v: &Value,
    tag: TagId,
    from: RegionName,
    to: RegionName,
) -> Result<()> {
    let mut visited: HashSet<(RegionName, u32)> = HashSet::new();
    widen_visit(mem, v, tag, from, to, &mut visited)?;
    // Drop unreached from-region entries, in offset order.
    let dead: Vec<u32> = mem
        .region(from)
        .into_iter()
        .flat_map(|r| r.iter())
        .map(|(loc, _)| loc)
        .filter(|&loc| mem.psi_entry(from, loc).is_some() && !visited.contains(&(from, loc)))
        .collect();
    for loc in dead {
        mem.set_psi_entry(from, loc, None);
    }
    Ok(())
}

fn widen_visit(
    mem: &mut Memory,
    v: &Value,
    tag: TagId,
    from: RegionName,
    to: RegionName,
    visited: &mut HashSet<(RegionName, u32)>,
) -> Result<()> {
    match tag.node() {
        Tag::Int | Tag::Arrow(_) | Tag::AnyArrow(_) => Ok(()),
        Tag::Prod(t1, t2) => {
            let (nu, loc) = match v {
                Value::Addr(nu, loc) => (*nu, *loc),
                other => {
                    return Err(stuck_err(format!(
                        "widen walk: expected address for product tag, got {other:?}"
                    )))
                }
            };
            if !visited.insert((nu, loc)) {
                return Ok(());
            }
            mem.set_psi_entry(nu, loc, Some(c_stored_ty(tag, from, to)));
            let stored = mem.get(nu, loc)?.clone();
            match stored {
                Value::Inl(inner) => match &*inner {
                    Value::Pair(a, b) => {
                        widen_visit(mem, a, *t1, from, to, visited)?;
                        widen_visit(mem, b, *t2, from, to, visited)
                    }
                    other => Err(stuck_err(format!(
                        "widen walk: expected pair under inl, got {other:?}"
                    ))),
                },
                other => Err(stuck_err(format!(
                    "widen walk: expected inl-tagged object, got {other:?}"
                ))),
            }
        }
        Tag::Exist(t, body) => {
            let (nu, loc) = match v {
                Value::Addr(nu, loc) => (*nu, *loc),
                other => {
                    return Err(stuck_err(format!(
                        "widen walk: expected address for existential tag, got {other:?}"
                    )))
                }
            };
            if !visited.insert((nu, loc)) {
                return Ok(());
            }
            mem.set_psi_entry(nu, loc, Some(c_stored_ty(tag, from, to)));
            let stored = mem.get(nu, loc)?.clone();
            match stored {
                Value::Inl(inner) => match &*inner {
                    Value::PackTag {
                        tvar,
                        kind,
                        tag: witness,
                        val,
                        ..
                    } => {
                        // §7.1's cast is "consistently applied over the
                        // whole heap": the stored package's (erasable)
                        // type annotation switches from the mutator view
                        // M to the collector view C together with Ψ —
                        // the step Lemma C.8's existential case performs
                        // implicitly.
                        let new_body = intern_ty(Ty::C(
                            Region::Name(from),
                            Region::Name(to),
                            Subst::one_tag(*t, Tag::Var(*tvar)).tag_id(*body),
                        ));
                        let recast = Value::Inl(intern_value(Value::PackTag {
                            tvar: *tvar,
                            kind: *kind,
                            tag: *witness,
                            val: *val,
                            body_ty: new_body,
                        }));
                        mem.set(nu, loc, recast)?;
                        let child_tag =
                            tags::normalize_id(Subst::one_tag(*t, *witness).tag_id(*body)).0;
                        widen_visit(mem, val, child_tag, from, to, visited)
                    }
                    other => Err(stuck_err(format!(
                        "widen walk: expected package under inl, got {other:?}"
                    ))),
                },
                other => Err(stuck_err(format!(
                    "widen walk: expected inl-tagged object, got {other:?}"
                ))),
            }
        }
        other => Err(stuck_err(format!(
            "widen walk: open tag {other:?} at runtime"
        ))),
    }
}

/// The stored-value part (i.e. without the outer `at`) of
/// `C_{from,to}(τ)` for a heap object.
fn c_stored_ty(tag: TagId, from: RegionName, to: RegionName) -> TyId {
    let c = intern_ty(Ty::C(Region::Name(from), Region::Name(to), tag));
    let nf = crate::moper::normalize_ty_id(c, Dialect::Forwarding);
    match nf.node() {
        Ty::At(inner, _) => *inner,
        _ => nf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GrowthPolicy;
    use crate::syntax::{CodeDef, Kind, Op, PrimOp};
    use ps_ir::Symbol;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn config() -> MemConfig {
        MemConfig {
            region_budget: 16,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        }
    }

    fn run_main(main: Term) -> i64 {
        run_program(Program {
            dialect: Dialect::Basic,
            code: vec![],
            main,
        })
    }

    fn run_program(p: Program) -> i64 {
        let mut m = SubstMachine::load(&p, config());
        match m.run(100_000).unwrap() {
            Outcome::Halted(n) => n,
            other => panic!("abnormal outcome: {other:?}"),
        }
    }

    #[test]
    fn halt_returns_value() {
        assert_eq!(run_main(Term::Halt(Value::Int(42))), 42);
    }

    #[test]
    fn let_val_substitutes() {
        let x = s("x");
        let e = Term::let_(x, Op::Val(Value::Int(7)), Term::Halt(Value::Var(x)));
        assert_eq!(run_main(e), 7);
    }

    #[test]
    fn projections() {
        let x = s("x");
        let e = Term::let_(
            x,
            Op::Proj(2, Value::pair(Value::Int(1), Value::Int(2))),
            Term::Halt(Value::Var(x)),
        );
        assert_eq!(run_main(e), 2);
    }

    #[test]
    fn put_get_roundtrip() {
        let r = s("r");
        let a = s("a");
        let b = s("b");
        let c = s("c");
        let e = Term::LetRegion {
            rvar: r,
            body: crate::intern::intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r), Value::pair(Value::Int(3), Value::Int(4))),
                Term::let_(
                    b,
                    Op::Get(Value::Var(a)),
                    Term::let_(c, Op::Proj(1, Value::Var(b)), Term::Halt(Value::Var(c))),
                ),
            )),
        };
        assert_eq!(run_main(e), 3);
    }

    #[test]
    fn prim_and_if0() {
        let x = s("x");
        let e = Term::let_(
            x,
            Op::Prim(PrimOp::Sub, Value::Int(5), Value::Int(5)),
            Term::If0 {
                scrut: Value::Var(x),
                zero: Term::Halt(Value::Int(1)).id(),
                nonzero: Term::Halt(Value::Int(0)).id(),
            },
        );
        assert_eq!(run_main(e), 1);
    }

    #[test]
    fn code_application() {
        let x = s("x");
        let r = s("r");
        let double = CodeDef {
            name: s("double"),
            tvars: vec![],
            rvars: vec![r],
            params: vec![(x, Ty::Int.id())],
            body: Term::let_(
                s("y"),
                Op::Prim(PrimOp::Add, Value::Var(x), Value::Var(x)),
                Term::Halt(Value::Var(s("y"))),
            ),
        };
        let main = Term::LetRegion {
            rvar: s("r0"),
            body: crate::intern::intern_term(Term::app(
                Value::Addr(crate::syntax::CD, 0),
                [],
                [Region::Var(s("r0"))],
                [Value::Int(21)],
            )),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![double],
            main,
        };
        assert_eq!(run_program(p), 42);
    }

    #[test]
    fn typecase_dispatch() {
        let t1 = s("t1");
        let t2 = s("t2");
        let te = s("te");
        let mk = |tag: Tag| Term::Typecase {
            tag: tag.into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (t1, t2, Term::Halt(Value::Int(2)).id()),
            exist_arm: (te, Term::Halt(Value::Int(3)).id()),
        };
        assert_eq!(run_main(mk(Tag::Int)), 0);
        assert_eq!(run_main(mk(Tag::arrow([Tag::Int]))), 1);
        assert_eq!(run_main(mk(Tag::prod(Tag::Int, Tag::Int))), 2);
        assert_eq!(run_main(mk(Tag::exist(s("u"), Tag::Int))), 3);
        // A β-redex tag is normalized before dispatch.
        assert_eq!(run_main(mk(Tag::app(Tag::id_fn(), Tag::Int))), 0);
    }

    #[test]
    fn typecase_refines_components() {
        let t1 = s("t1");
        let t2 = s("t2");
        let te = s("te");
        // Dispatch on Int×(Int→0), then typecase on the second component.
        let inner = Term::Typecase {
            tag: Tag::Var(t2).into(),
            int_arm: Term::Halt(Value::Int(10)).id(),
            arrow_arm: Term::Halt(Value::Int(11)).id(),
            prod_arm: (s("u1"), s("u2"), Term::Halt(Value::Int(12)).id()),
            exist_arm: (s("ue"), Term::Halt(Value::Int(13)).id()),
        };
        let e = Term::Typecase {
            tag: Tag::prod(Tag::Int, Tag::arrow([Tag::Int])).into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (t1, t2, inner.id()),
            exist_arm: (te, Term::Halt(Value::Int(3)).id()),
        };
        assert_eq!(run_main(e), 11);
    }

    #[test]
    fn exist_arm_receives_tag_function() {
        // typecase ∃t.(t × Int) binds te := λt.(t × Int); applying te to Int
        // and typecasing again must dispatch to the product arm.
        let te = s("te");
        let inner = Term::Typecase {
            tag: Tag::app(Tag::Var(te), Tag::Int).into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (s("p1"), s("p2"), Term::Halt(Value::Int(2)).id()),
            exist_arm: (s("pe"), Term::Halt(Value::Int(3)).id()),
        };
        let e = Term::Typecase {
            tag: Tag::exist(s("u"), Tag::prod(Tag::Var(s("u")), Tag::Int)).into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (s("q1"), s("q2"), Term::Halt(Value::Int(2)).id()),
            exist_arm: (te, inner.id()),
        };
        assert_eq!(run_main(e), 2);
    }

    #[test]
    fn open_tag_package() {
        let t = s("t");
        let x = s("x");
        let pkg = Value::PackTag {
            tvar: t,
            kind: Kind::Omega,
            tag: Tag::Int.into(),
            val: Value::Int(9).id(),
            body_ty: Ty::Int.into(),
        };
        let e = Term::OpenTag {
            pkg,
            tvar: t,
            x,
            body: Term::Halt(Value::Var(x)).id(),
        };
        assert_eq!(run_main(e), 9);
    }

    #[test]
    fn only_reclaims_and_counts() {
        let r1 = s("r1");
        let r2 = s("r2");
        let a = s("a");
        let e = Term::LetRegion {
            rvar: r1,
            body: crate::intern::intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r1), Value::Int(5)),
                Term::LetRegion {
                    rvar: r2,
                    body: crate::intern::intern_term(Term::Only {
                        regions: vec![Region::Var(r2)],
                        body: Term::Halt(Value::Int(0)).id(),
                    }),
                },
            )),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: e,
        };
        let mut m = SubstMachine::load(&p, config());
        assert_eq!(m.run(1000).unwrap(), Outcome::Halted(0));
        assert_eq!(m.stats().collections, 1);
        assert_eq!(m.stats().words_reclaimed, 1);
        assert_eq!(m.stats().regions_created, 2);
    }

    #[test]
    fn get_after_only_is_a_dynamic_error() {
        // An ill-typed term: keep an address into a reclaimed region.
        let r1 = s("r1");
        let a = s("a");
        let b = s("b");
        let e = Term::LetRegion {
            rvar: r1,
            body: crate::intern::intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r1), Value::Int(5)),
                Term::Only {
                    regions: vec![],
                    body: crate::intern::intern_term(Term::let_(
                        b,
                        Op::Get(Value::Var(a)),
                        Term::Halt(Value::Var(b)),
                    )),
                },
            )),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: e,
        };
        let mut m = SubstMachine::load(&p, config());
        assert!(m.run(1000).is_err());
    }

    #[test]
    fn ifgc_triggers_on_full_region() {
        let r = s("r");
        let mut body = Term::IfGc {
            rho: Region::Var(r),
            full: Term::Halt(Value::Int(1)).id(),
            cont: Term::Halt(Value::Int(0)).id(),
        };
        // Fill the region past its budget first.
        for i in 0..20 {
            body = Term::let_(
                s(&format!("fill{i}")),
                Op::Put(Region::Var(r), Value::Int(0)),
                body,
            );
        }
        let e = Term::LetRegion {
            rvar: r,
            body: body.id(),
        };
        assert_eq!(run_main(e), 1);
    }

    #[test]
    fn ifleft_branches() {
        let x = s("x");
        let y = s("y");
        let mk = |v: Value| Term::IfLeft {
            x,
            scrut: v,
            left: crate::intern::intern_term(Term::let_(
                y,
                Op::Strip(Value::Var(x)),
                Term::Halt(Value::Var(y)),
            )),
            right: crate::intern::intern_term(Term::let_(
                y,
                Op::Strip(Value::Var(x)),
                Term::Halt(Value::Var(y)),
            )),
        };
        let pl = Program {
            dialect: Dialect::Forwarding,
            code: vec![],
            main: mk(Value::inl(Value::Int(1))),
        };
        let pr = Program {
            dialect: Dialect::Forwarding,
            code: vec![],
            main: mk(Value::inr(Value::Int(2))),
        };
        assert_eq!(run_program(pl), 1);
        assert_eq!(run_program(pr), 2);
    }

    #[test]
    fn set_overwrites_heap() {
        let r = s("r");
        let a = s("a");
        let b = s("b");
        let c = s("c");
        let e = Term::LetRegion {
            rvar: r,
            body: crate::intern::intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r), Value::inl(Value::Int(1))),
                Term::Set {
                    dst: Value::Var(a),
                    src: Value::inr(Value::Int(2)),
                    body: crate::intern::intern_term(Term::let_(
                        b,
                        Op::Get(Value::Var(a)),
                        Term::let_(c, Op::Strip(Value::Var(b)), Term::Halt(Value::Var(c))),
                    )),
                },
            )),
        };
        let p = Program {
            dialect: Dialect::Forwarding,
            code: vec![],
            main: e,
        };
        assert_eq!(run_program(p), 2);
    }

    #[test]
    fn ifreg_compares_names() {
        let r1 = s("r1");
        let r2 = s("r2");
        let e = Term::LetRegion {
            rvar: r1,
            body: crate::intern::intern_term(Term::LetRegion {
                rvar: r2,
                body: crate::intern::intern_term(Term::IfReg {
                    r1: Region::Var(r1),
                    r2: Region::Var(r2),
                    eq: Term::Halt(Value::Int(1)).id(),
                    ne: crate::intern::intern_term(Term::IfReg {
                        r1: Region::Var(r1),
                        r2: Region::Var(r1),
                        eq: Term::Halt(Value::Int(2)).id(),
                        ne: Term::Halt(Value::Int(3)).id(),
                    }),
                }),
            }),
        };
        let p = Program {
            dialect: Dialect::Generational,
            code: vec![],
            main: e,
        };
        assert_eq!(run_program(p), 2);
    }

    #[test]
    fn open_region_package() {
        let r0 = s("r0");
        let r = s("r");
        let x = s("x");
        let y = s("y");
        let a = s("a");
        let e = Term::LetRegion {
            rvar: r0,
            body: crate::intern::intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r0), Value::Int(8)),
                Term::OpenRgn {
                    pkg: Value::PackRgn {
                        rvar: r,
                        bound: std::sync::Arc::from(vec![Region::Var(r0)]),
                        witness: Region::Var(r0),
                        val: Value::Var(a).id(),
                        body_ty: Ty::Int.into(),
                    },
                    rvar: r,
                    x,
                    body: crate::intern::intern_term(Term::let_(
                        y,
                        Op::Get(Value::Var(x)),
                        Term::Halt(Value::Var(y)),
                    )),
                },
            )),
        };
        let p = Program {
            dialect: Dialect::Generational,
            code: vec![],
            main: e,
        };
        assert_eq!(run_program(p), 8);
    }

    #[test]
    fn widen_is_operationally_a_nop() {
        let x = s("x");
        let e = Term::Widen {
            x,
            from: Region::cd(), // irrelevant: not tracking types
            to: Region::cd(),
            tag: Tag::Int.into(),
            v: Value::Int(5),
            body: Term::Halt(Value::Var(x)).id(),
        };
        let p = Program {
            dialect: Dialect::Forwarding,
            code: vec![],
            main: e,
        };
        assert_eq!(run_program(p), 5);
    }

    #[test]
    fn stuck_states_are_reported() {
        assert!(SubstMachine::load(
            &Program {
                dialect: Dialect::Basic,
                code: vec![],
                main: Term::Halt(Value::pair(Value::Int(1), Value::Int(2))),
            },
            config()
        )
        .run(10)
        .is_err());
    }

    #[test]
    fn fuel_exhaustion_is_not_an_error() {
        // An infinite loop via self-application.
        let f = CodeDef {
            name: s("loop"),
            tvars: vec![],
            rvars: vec![],
            params: vec![],
            body: Term::app(Value::Addr(crate::syntax::CD, 0), [], [], []),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![f],
            main: Term::app(Value::Addr(crate::syntax::CD, 0), [], [], []),
        };
        let mut m = SubstMachine::load(&p, config());
        assert_eq!(m.run(100).unwrap(), Outcome::OutOfFuel);
        assert_eq!(m.stats().steps, 100);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::syntax::{Term, Value};

    #[test]
    fn stats_display_is_informative() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(1)),
        };
        let mut m = SubstMachine::load(&p, MemConfig::default());
        m.run(10).unwrap();
        let text = m.stats().to_string();
        assert!(text.contains("steps"));
        assert!(text.contains("collections"));
    }

    #[test]
    fn halted_machine_stays_halted() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(7)),
        };
        let mut m = SubstMachine::load(&p, MemConfig::default());
        assert_eq!(m.run(10).unwrap(), Outcome::Halted(7));
        assert_eq!(m.halted(), Some(7));
        // Further steps are no-ops reporting the same halt value.
        assert_eq!(m.step().unwrap(), StepOutcome::Halted(7));
        assert_eq!(m.run(5).unwrap(), Outcome::Halted(7));
    }
}
