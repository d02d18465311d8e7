//! Supervised execution: contain a failing λGC run, then explain it.
//!
//! The static certification (PAPER §5–6) says a collector *should* be
//! safe; the [`crate::verify`] auditor detects when a run *isn't*. This
//! module closes the loop: [`supervise`] wraps [`Machine::run`] in a
//! policy that
//!
//! 1. **contains** the failure — invariant violations, typed OOM, stuck
//!    states, wall-clock deadlines, and panics at the supervisor boundary
//!    all end the run without taking the process down;
//! 2. **recovers** — transient quota failures (deadlines) restore the
//!    newest audit-clean checkpoint and restart with bounded backoff;
//! 3. **explains** — corruption failures restore the newest clean
//!    checkpoint into the *substitution oracle* and replay with
//!    `--audit full --verify-every 1`, localizing the first violating
//!    step. The replay re-arms the checkpoint's pending fault plans, so a
//!    deterministic injection re-fires at exactly its original step.
//!
//! Triage then classifies the corruption without peeking at the injector:
//! a second, fault-free replay reconstructs the pre-state at the violating
//! step, and the pre/post heap diff names the fault class (a flipped sum
//! tag, a truncated pair, a clobbered forwarding pointer, …). The result
//! is a [`TriageReport`] — step, site, class guess, oracle-vs-backend
//! divergence — rendered as deterministic JSON for golden-file CI gates
//! and mirrored as `restore`/`triage` telemetry events.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::error::ErrorKind;
use crate::faults::{FaultKind, FaultPlan};
use crate::machine::{
    AuditMode, Backend, Machine, Outcome, Program, RunControl, Stats, SubstMachine,
};
use crate::memory::{MemConfig, Memory};
use crate::snapshot::Snapshot;
use crate::syntax::Value;
use crate::telemetry::{GcEvent, JsonObj, SharedObserver};

/// Everything [`supervise`] needs to run a program under containment.
#[derive(Clone, Debug)]
pub struct SuperviseSpec {
    /// Which backend executes the program.
    pub backend: Backend,
    /// Memory configuration for every (re)load.
    pub config: MemConfig,
    /// Total step quota across the whole supervised run (restarts resume
    /// from a checkpoint's step count, so the quota is not reset).
    pub fuel: u64,
    /// The run control every attempt starts from: audit cadence and mode,
    /// the fault plans to arm (the adversarial harness), the checkpoint
    /// cadence, and the wall-clock limit of each attempt. Supervised runs
    /// audit by default — containment without detection is useless. A
    /// restart re-arms the plans its checkpoint still holds instead.
    pub control: RunControl,
    /// Force eager slot interning — disable the lazy ids-or-thunks
    /// representation (env and bytecode backends).
    pub eager_intern: bool,
    /// Telemetry observer for the first attempt. Restarted attempts do
    /// *not* re-attach it: their step counters rewind to the checkpoint's,
    /// and the JSONL trace contract requires monotone steps.
    pub observer: Option<SharedObserver>,
    /// Periodic heap-sample interval for the observer (0 = none).
    pub step_interval: u64,
    /// How many deadline-triggered restarts before giving up.
    pub max_restarts: u32,
    /// Base backoff between restarts (doubles per restart).
    pub backoff_ms: u64,
}

impl SuperviseSpec {
    /// A spec with the supervisor defaults: audit every 64 steps
    /// (incremental), checkpoint every 1024 steps, 3 restarts with 10 ms
    /// base backoff, no faults, no observer, no deadline.
    pub fn new(backend: Backend, config: MemConfig, fuel: u64) -> SuperviseSpec {
        let mut control = RunControl::default();
        control.verify_every = 64;
        control.checkpoint_every = 1024;
        SuperviseSpec {
            backend,
            config,
            fuel,
            control,
            eager_intern: false,
            observer: None,
            step_interval: 0,
            max_restarts: 3,
            backoff_ms: 10,
        }
    }

    /// A fresh machine for `program`, configured by this spec: backend,
    /// memory, interning, run control and observer.
    /// [`supervise`] loads every attempt through this, and an
    /// unsupervised caller can load its one machine the same way.
    pub fn load(&self, program: &Program) -> Box<dyn Machine> {
        let mut m = self.backend.load(program, self.config);
        m.set_eager_intern(self.eager_intern);
        *m.run_control_mut() = self.control.clone();
        if let Some(obs) = &self.observer {
            m.set_observer(obs.clone(), self.step_interval);
        }
        m
    }
}

/// What the triage replay concluded about an aborted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageReport {
    /// The first step at which the oracle replay violates an invariant
    /// (for a deterministic injected fault: its exact injection step).
    pub step: u64,
    /// The heap site named by the violated invariant (`ν3.1`, `page 7`,
    /// …; empty when the replay diverged instead of violating).
    pub site: String,
    /// The fault class inferred from the pre/post heap diff — never read
    /// off the injector, so the harness genuinely tests the diagnosis.
    pub guess: Option<FaultKind>,
    /// The violated invariant, verbatim from the auditor.
    pub detail: String,
    /// The step of the checkpoint the replay started from (0 = replayed
    /// from program start).
    pub snapshot_step: u64,
    /// The backend whose run aborted.
    pub backend: Backend,
    /// How the supervised run aborted: `invariant-violation`, `oom`,
    /// `runtime-error`, or `panic`.
    pub outcome: String,
    /// Set when the oracle replay did *not* reproduce the backend's abort
    /// — a backend divergence, itself a finding.
    pub divergence: Option<String>,
}

impl TriageReport {
    /// Renders the report as one flat, deterministic JSON object (no
    /// timestamps, no map iteration order) — `cmp`-able against a golden
    /// file in CI.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("report", "triage");
        o.str("backend", self.backend.name());
        o.str("outcome", &self.outcome);
        o.int("step", self.step);
        o.str("site", &self.site);
        o.str("guess", self.guess.map(FaultKind::name).unwrap_or(""));
        o.str("detail", &self.detail);
        o.int("snapshot_step", self.snapshot_step);
        o.str("divergence", self.divergence.as_deref().unwrap_or(""));
        o.finish()
    }
}

/// How a supervised run ended.
#[derive(Clone, Debug)]
pub enum SupervisedOutcome {
    /// The program halted normally with this value.
    Halted(i64),
    /// The run aborted and the supervisor triaged it.
    Triaged(TriageReport),
    /// The supervisor exhausted its policy (fuel, or too many restarts).
    GaveUp {
        /// Human-readable reason.
        reason: String,
    },
}

/// The result of [`supervise`]: the outcome plus the final machine
/// statistics and restart accounting.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    /// How the run ended.
    pub outcome: SupervisedOutcome,
    /// Statistics of the last attempt's machine at the end.
    pub stats: Stats,
    /// Deadline-triggered restarts performed.
    pub restarts: u32,
    /// Fault plans that never found an injection site (clean halts only;
    /// the CLI warns about these).
    pub unfired_faults: Vec<FaultPlan>,
}

/// Runs `program` under the supervision policy in `spec`. Never panics:
/// a panic inside the machine is caught at this boundary and triaged like
/// any other abort.
pub fn supervise(program: &Program, spec: &SuperviseSpec) -> SupervisedRun {
    let unobserved = SuperviseSpec {
        observer: None,
        ..spec.clone()
    };
    let mut restarts: u32 = 0;
    let mut resume: Option<Snapshot> = None;
    loop {
        let mut m = match &resume {
            // Same program, same dialect: restore cannot fail, but the
            // policy degrades to a from-scratch restart (with the spec's
            // fault plans) if it ever did. The snapshot re-arms its own
            // pending fault plans. Restarts run unobserved (see
            // `SuperviseSpec::observer`).
            Some(snap) => {
                let mut m = unobserved.load(program);
                let _ = m.restore(snap);
                m
            }
            None => spec.load(program),
        };
        let start = resume.as_ref().map_or(0, Snapshot::step);
        let fuel = spec.fuel.saturating_sub(start);
        let result = catch_unwind(AssertUnwindSafe(|| m.run(fuel)));
        let stats = m.stats().clone();
        match result {
            Ok(Ok(Outcome::Halted(n))) => {
                return SupervisedRun {
                    outcome: SupervisedOutcome::Halted(n),
                    stats,
                    restarts,
                    unfired_faults: m.run_control().faults.clone(),
                };
            }
            Ok(Ok(Outcome::OutOfFuel)) => {
                // The step quota is deterministic: a restart would burn the
                // same quota on the same prefix, so give up immediately.
                return SupervisedRun {
                    outcome: SupervisedOutcome::GaveUp {
                        reason: format!("step quota of {} exhausted", spec.fuel),
                    },
                    stats,
                    restarts,
                    unfired_faults: m.run_control().faults.clone(),
                };
            }
            Ok(Ok(Outcome::DeadlineExceeded)) => {
                if restarts >= spec.max_restarts {
                    return SupervisedRun {
                        outcome: SupervisedOutcome::GaveUp {
                            reason: format!(
                                "wall-clock deadline exceeded after {restarts} restart(s)"
                            ),
                        },
                        stats,
                        restarts,
                        unfired_faults: m.run_control().faults.clone(),
                    };
                }
                let snap = newest_clean_snapshot(m.as_ref()).cloned();
                emit_restore(spec, stats.steps, snap.as_ref().map_or(0, Snapshot::step));
                resume = snap;
                std::thread::sleep(Duration::from_millis(
                    spec.backoff_ms.saturating_mul(1 << restarts.min(16)),
                ));
                restarts += 1;
            }
            Ok(Ok(Outcome::InvariantViolation(e))) => {
                let report = triage(
                    program,
                    spec,
                    m.as_ref(),
                    "invariant-violation",
                    e.to_string(),
                );
                return finish_triaged(spec, report, stats, restarts);
            }
            Ok(Err(e)) => {
                let outcome = if e.kind() == ErrorKind::OutOfMemory {
                    "oom"
                } else {
                    "runtime-error"
                };
                let report = triage(program, spec, m.as_ref(), outcome, e.to_string());
                return finish_triaged(spec, report, stats, restarts);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with a non-string payload".to_string());
                let report = triage(program, spec, m.as_ref(), "panic", msg);
                return finish_triaged(spec, report, stats, restarts);
            }
        }
    }
}

fn finish_triaged(
    spec: &SuperviseSpec,
    report: TriageReport,
    stats: Stats,
    restarts: u32,
) -> SupervisedRun {
    emit_restore(spec, stats.steps, report.snapshot_step);
    if let Some(obs) = &spec.observer {
        obs.borrow_mut().on_event(&GcEvent::Triage {
            step: stats.steps,
            fault_step: report.step,
            guess: report.guess.map(FaultKind::name).unwrap_or("").to_string(),
            site: report.site.clone(),
        });
    }
    SupervisedRun {
        outcome: SupervisedOutcome::Triaged(report),
        stats,
        restarts,
        unfired_faults: Vec::new(),
    }
}

/// Emits the `restore` telemetry event, stamped with the abort step so the
/// trace stays monotone (the checkpoint's own step is `from_step`).
fn emit_restore(spec: &SuperviseSpec, abort_step: u64, from_step: u64) {
    if let Some(obs) = &spec.observer {
        obs.borrow_mut().on_event(&GcEvent::Restore {
            step: abort_step,
            from_step,
        });
    }
}

/// The newest checkpoint that still passes a full heap audit. A checkpoint
/// captured after a fault landed is corrupt; replaying from it would blame
/// the wrong step.
fn newest_clean_snapshot(m: &dyn Machine) -> Option<&Snapshot> {
    m.run_control()
        .snapshots()
        .iter()
        .rev()
        .find(|s| crate::verify::audit_state(s.memory(), s.dialect(), s.control()).is_ok())
}

/// Replays the aborted run on the substitution oracle with a full audit
/// after every step, localizing the first violating step, then infers the
/// fault class from the pre/post heap diff.
fn triage(
    program: &Program,
    spec: &SuperviseSpec,
    m: &dyn Machine,
    outcome: &str,
    abort_detail: String,
) -> TriageReport {
    let abort_step = m.stats().steps;
    let clean = newest_clean_snapshot(m);
    let mut oracle = SubstMachine::load(program, spec.config);
    let ctl = oracle.run_control_mut();
    ctl.verify_every = 1;
    ctl.audit = AuditMode::Full;
    ctl.faults = spec.control.faults.clone();
    let mut start = 0;
    if let Some(snap) = clean {
        if oracle.restore(snap).is_ok() {
            start = snap.step();
        }
    }
    let fuel = spec.fuel.saturating_sub(start);
    let mut report = TriageReport {
        step: abort_step,
        site: String::new(),
        guess: None,
        detail: abort_detail,
        snapshot_step: start,
        backend: spec.backend,
        outcome: outcome.to_string(),
        divergence: None,
    };
    match oracle.run(fuel) {
        Ok(Outcome::InvariantViolation(e)) => {
            let detail = e.to_string();
            report.step = oracle.stats().steps;
            report.site = site_of(&detail);
            report.guess = classify(
                program,
                spec,
                clean,
                start,
                report.step,
                oracle.memory(),
                &detail,
            );
            report.detail = detail;
        }
        Ok(Outcome::Halted(n)) => {
            report.divergence = Some(format!(
                "oracle replay halted with {n} where the {} backend aborted",
                spec.backend
            ));
        }
        Ok(Outcome::OutOfFuel) | Ok(Outcome::DeadlineExceeded) => {
            report.divergence =
                Some("oracle replay exhausted its quota without reproducing the abort".to_string());
        }
        Err(e) => {
            let replay_outcome = if e.kind() == ErrorKind::OutOfMemory {
                "oom"
            } else {
                "runtime-error"
            };
            report.step = oracle.stats().steps;
            report.detail = e.to_string();
            if replay_outcome != outcome {
                report.divergence = Some(format!(
                    "oracle replay failed with {replay_outcome} where the {} backend aborted with {outcome}",
                    spec.backend
                ));
            }
        }
    }
    report
}

/// Infers the fault class from evidence alone: the auditor's message for
/// the two bookkeeping classes, otherwise a pre/post heap diff against a
/// *fault-free* replay stopped at the violating step.
fn classify(
    program: &Program,
    spec: &SuperviseSpec,
    clean: Option<&Snapshot>,
    start: u64,
    fault_step: u64,
    post: &Memory,
    detail: &str,
) -> Option<FaultKind> {
    if detail.contains("occupancy") {
        return Some(FaultKind::StalePageHeader);
    }
    if detail.contains("underflowed") {
        return Some(FaultKind::UnderflowBudget);
    }
    let mut pre = SubstMachine::load(program, spec.config);
    if let Some(snap) = clean {
        if pre.restore(snap).is_err() {
            return None;
        }
    }
    pre.run_control_mut().faults.clear();
    match pre.run(fault_step.saturating_sub(start)) {
        Ok(Outcome::OutOfFuel) | Ok(Outcome::Halted(_)) => {}
        _ => return None,
    }
    if pre.stats().steps != fault_step {
        return None;
    }
    let pm = pre.memory();
    if pm.region_names().any(|nu| post.region(nu).is_none()) {
        return Some(FaultKind::DoubleFree);
    }
    for nu in pm.region_names() {
        let (pr, qr) = match (pm.region(nu), post.region(nu)) {
            (Some(a), Some(b)) => (a, b),
            _ => continue,
        };
        let new: std::collections::HashMap<u32, &crate::intern::SlotVal> = qr.iter().collect();
        for (loc, old) in pr.iter() {
            let Some(newv) = new.get(&loc) else { continue };
            if **newv == *old {
                continue;
            }
            let oldc = old.canonical();
            let newc = newv.canonical();
            return classify_slot(&oldc, &newc, post);
        }
    }
    None
}

/// Names the fault class a single corrupted slot witnesses.
fn classify_slot(old: &Value, new: &Value, post: &Memory) -> Option<FaultKind> {
    match (old, new) {
        (Value::Inl(a), Value::Inr(b)) | (Value::Inr(a), Value::Inl(b)) if **a == **b => {
            Some(FaultKind::FlipTag)
        }
        (Value::Pair(a, _), _) if **a == *new => Some(FaultKind::TruncateTuple),
        (Value::Inr(_), Value::Inr(b)) if matches!(&**b, Value::Addr(nu, loc) if post.peek(*nu, *loc).is_err()) => {
            Some(FaultKind::ClobberForward)
        }
        _ if has_dangling(post, new) => Some(FaultKind::RetargetPointer),
        _ => None,
    }
}

/// Does `v` contain an address that does not resolve in `mem`?
fn has_dangling(mem: &Memory, v: &Value) -> bool {
    match v {
        Value::Addr(nu, loc) => mem.peek(*nu, *loc).is_err(),
        Value::Pair(a, b) => has_dangling(mem, a) || has_dangling(mem, b),
        Value::PackTag { val, .. }
        | Value::PackAlpha { val, .. }
        | Value::PackRgn { val, .. }
        | Value::Inl(val)
        | Value::Inr(val)
        | Value::TagApp(val, _, _) => has_dangling(mem, val),
        Value::Int(_) | Value::Var(_) | Value::Code(_) => false,
    }
}

/// Extracts the heap site an auditor message names: `page N` for page
/// headers, otherwise the first `ν…` (or `cd…`) token.
fn site_of(detail: &str) -> String {
    let mut words = detail.split_whitespace().peekable();
    while let Some(w) = words.next() {
        if w == "page" {
            if let Some(n) = words.peek() {
                let digits: String = n.chars().take_while(char::is_ascii_digit).collect();
                if !digits.is_empty() {
                    return format!("page {digits}");
                }
            }
            continue;
        }
        let t = w.trim_end_matches([':', ',', '.']);
        if t.starts_with('ν') || t == "cd" || t.starts_with("cd.") {
            return t.to_string();
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::intern_term;
    use crate::machine::Program;
    use crate::memory::{GrowthPolicy, MemConfig};
    use crate::syntax::{CodeDef, Dialect, Op, Region, Term, Ty, CD};
    use ps_ir::Symbol;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn config() -> MemConfig {
        MemConfig {
            region_budget: 16,
            growth: GrowthPolicy::Fixed,
            track_types: true,
            max_heap_words: None,
            page_words: 8,
        }
    }

    /// `letregion r in let a = put r (3, 4) in let b = get a in
    /// let c = π₂ b in halt c` — a short heap round-trip halting with 4.
    fn roundtrip() -> Program {
        let r = s("sup_r");
        let a = s("sup_a");
        let b = s("sup_b");
        let c = s("sup_c");
        Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::LetRegion {
                rvar: r,
                body: intern_term(Term::let_(
                    a,
                    Op::Put(Region::Var(r), Value::pair(Value::Int(3), Value::Int(4))),
                    Term::let_(
                        b,
                        Op::Get(Value::Var(a)),
                        Term::let_(c, Op::Proj(2, Value::Var(b)), Term::Halt(Value::Var(c))),
                    ),
                )),
            },
        }
    }

    /// A self-call loop that never halts (for quota/deadline tests).
    fn spin() -> Program {
        let f = CodeDef {
            name: s("sup_spin"),
            tvars: vec![],
            rvars: vec![],
            params: vec![],
            body: Term::app(Value::Addr(CD, 0), [], [], []),
        };
        Program {
            dialect: Dialect::Basic,
            code: vec![f],
            main: Term::app(Value::Addr(CD, 0), [], [], []),
        }
    }

    /// `spin` with a reachable pair in the heap, so slot faults have a
    /// target: `loop(x)` gets `x` back each iteration.
    fn spin_with_pair() -> Program {
        let x = s("sup_x");
        let y = s("sup_y");
        let a = s("sup_addr");
        let r = s("sup_rr");
        let f = CodeDef {
            name: s("sup_keep"),
            tvars: vec![],
            rvars: vec![],
            params: vec![(x, Ty::Int.id())],
            body: Term::let_(
                y,
                Op::Get(Value::Var(x)),
                Term::app(Value::Addr(CD, 0), [], [], [Value::Var(x)]),
            ),
        };
        Program {
            dialect: Dialect::Forwarding,
            code: vec![f],
            main: Term::LetRegion {
                rvar: r,
                body: intern_term(Term::let_(
                    a,
                    Op::Put(Region::Var(r), Value::pair(Value::Int(3), Value::Int(4))),
                    Term::app(Value::Addr(CD, 0), [], [], [Value::Var(a)]),
                )),
            },
        }
    }

    #[test]
    fn clean_runs_halt_through_the_supervisor() {
        for backend in Backend::ALL {
            let mut spec = SuperviseSpec::new(backend, config(), 1000);
            spec.control.checkpoint_every = 1;
            let run = supervise(&roundtrip(), &spec);
            match run.outcome {
                SupervisedOutcome::Halted(n) => assert_eq!(n, 4),
                other => panic!("expected a halt on {backend}, got {other:?}"),
            }
            assert_eq!(run.restarts, 0);
            assert!(run.unfired_faults.is_empty());
        }
    }

    #[test]
    fn quota_exhaustion_gives_up_without_replay() {
        let spec = SuperviseSpec::new(Backend::Subst, config(), 10);
        let run = supervise(&spin(), &spec);
        match run.outcome {
            SupervisedOutcome::GaveUp { reason } => {
                assert!(reason.contains("quota"), "{reason}");
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(run.stats.steps, 10);
    }

    #[test]
    fn deadlines_restart_then_give_up() {
        let mut spec = SuperviseSpec::new(Backend::Env, config(), 1_000_000);
        spec.control.timeout = Some(Duration::ZERO);
        spec.max_restarts = 2;
        spec.backoff_ms = 0;
        spec.control.checkpoint_every = 512;
        let run = supervise(&spin(), &spec);
        match run.outcome {
            SupervisedOutcome::GaveUp { reason } => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(run.restarts, 2);
    }

    #[test]
    fn injected_fault_is_triaged_to_its_step() {
        for backend in Backend::ALL {
            let mut spec = SuperviseSpec::new(backend, config(), 1000);
            spec.control.verify_every = 7;
            spec.control.checkpoint_every = 4;
            spec.control.faults = vec![FaultPlan {
                kind: FaultKind::TruncateTuple,
                step: 20,
                seed: 1,
            }];
            let run = supervise(&spin_with_pair(), &spec);
            match run.outcome {
                SupervisedOutcome::Triaged(report) => {
                    assert_eq!(report.step, 20, "{backend}: {report:?}");
                    assert_eq!(
                        report.guess,
                        Some(FaultKind::TruncateTuple),
                        "{backend}: {report:?}"
                    );
                    assert!(report.snapshot_step < 20, "{backend}: {report:?}");
                    assert!(report.divergence.is_none(), "{backend}: {report:?}");
                    let json = report.to_json();
                    assert!(json.starts_with("{\"report\":\"triage\""), "{json}");
                }
                other => panic!("expected a triage on {backend}, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        let report = TriageReport {
            step: 3,
            site: "ν1.0".into(),
            guess: None,
            detail: "a\"b\\c\n".into(),
            snapshot_step: 0,
            backend: Backend::Env,
            outcome: "oom".into(),
            divergence: None,
        };
        assert_eq!(
            report.to_json(),
            "{\"report\":\"triage\",\"backend\":\"env\",\"outcome\":\"oom\",\"step\":3,\
             \"site\":\"ν1.0\",\"guess\":\"\",\"detail\":\"a\\\"b\\\\c\\u000a\",\
             \"snapshot_step\":0,\"divergence\":\"\"}"
        );
    }
}
