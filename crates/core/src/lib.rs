//! # scavenger — *Principled Scavenging* as a library
//!
//! A full reproduction of Monnier, Saha & Shao, *Principled Scavenging*
//! (PLDI 2001): provably type-safe stop-and-copy garbage collection built
//! from a region calculus plus intensional type analysis.
//!
//! The headline idea: instead of trusting the collector, *write it inside a
//! type-safe language* (λGC) whose hard-wired Typerec `Mρ(τ)` states the
//! mutator–collector contract, and let an ordinary typechecker certify it.
//! This crate compiles a small ML-like source language down to λGC, links
//! it with one of three certified collectors, and runs the result on the
//! paper's own operational semantics:
//!
//! | collector | paper | what it shows |
//! |---|---|---|
//! | [`Collector::Basic`] | Figs. 4/12 | the core contract `copy : M_{r₁}(t) → M_{r₂}(t)` |
//! | [`Collector::Forwarding`] | Fig. 9, §7 | efficient forwarding pointers via the `widen` cast; sharing preserved |
//! | [`Collector::Generational`] | Fig. 11, §8 | minor collections that never touch the old generation |
//!
//! # Examples
//!
//! ```
//! use scavenger::{Collector, RunOptions};
//!
//! # fn main() -> Result<(), scavenger::PipelineError> {
//! let opts = RunOptions::builder()
//!     .collector(Collector::Basic)
//!     .budget(96) // tiny: force many collections
//!     .fuel(10_000_000)
//!     .build();
//! let program =
//!     opts.compile("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10")?;
//! program.typecheck()?; // certifies mutator AND collector together
//! let run = program.run_with(&opts)?;
//! assert_eq!(run.result, 3_628_800);
//! assert!(run.stats.collections > 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::time::Duration;

pub use ps_clos as clos;
pub use ps_collectors as collectors;
pub use ps_gc_lang as gc_lang;
pub use ps_ir as ir;
pub use ps_lambda as lambda;
pub use ps_trans as trans;

use ps_collectors::CollectorImage;
use ps_gc_lang::faults::FaultPlan;
use ps_gc_lang::machine::{Outcome, Program, Stats};
use ps_gc_lang::memory::{GrowthPolicy, MemConfig};
use ps_gc_lang::syntax::Dialect;

pub use ps_gc_lang::memory::PageStats;
use ps_gc_lang::tyck::Checker;

pub use ps_gc_lang::machine::{AuditMode, Backend, Machine, RunControl};
pub use ps_gc_lang::snapshot::Snapshot;
pub use ps_gc_lang::supervisor::{
    supervise, SuperviseSpec, SupervisedOutcome, SupervisedRun, TriageReport,
};

pub mod workloads;

/// GC telemetry: structured event streams, observers, recorders, and the
/// JSON-lines trace schema. Defined in [`ps_gc_lang`] (the machines emit
/// the events) and re-exported here as the public face of the subsystem.
pub mod telemetry {
    pub use ps_gc_lang::telemetry::*;
}

use telemetry::{RunMeta, SharedObserver};

/// Which certified collector to link against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Collector {
    /// The basic stop-and-copy collector of Fig. 12 (no sharing
    /// preservation: DAGs are copied as trees).
    Basic,
    /// The forwarding-pointer collector of Fig. 9 (§7).
    Forwarding,
    /// The generational collector of Fig. 11 (§8), minor collections.
    Generational,
}

impl Collector {
    /// Every collector, in canonical order (drives CLI metavars and the
    /// exhaustive collector × backend test matrices).
    pub const ALL: [Collector; 3] = [
        Collector::Basic,
        Collector::Forwarding,
        Collector::Generational,
    ];

    /// The collector's λGC code image.
    pub fn image(self) -> CollectorImage {
        match self {
            Collector::Basic => ps_collectors::basic::collector(),
            Collector::Forwarding => ps_collectors::forwarding::collector(),
            Collector::Generational => ps_collectors::generational::collector(),
        }
    }

    /// The collector's canonical name — the single source for `Display`,
    /// `FromStr`, CLI metavars, and trace metadata.
    pub fn name(self) -> &'static str {
        match self {
            Collector::Basic => "basic",
            Collector::Forwarding => "forwarding",
            Collector::Generational => "generational",
        }
    }

    /// Translates a λCLOS program to λGC and links it with this collector
    /// (Fig. 3, and its §7/§8 variants for the other two dialects).
    ///
    /// # Errors
    ///
    /// Returns the translation error for programs outside the translated
    /// fragment.
    pub fn translate(
        self,
        clos: &ps_clos::syntax::CProgram,
    ) -> Result<Program, ps_trans::TransError> {
        let image = self.image();
        match self {
            Collector::Basic => ps_trans::basic::translate(clos, &image),
            Collector::Forwarding => ps_trans::forwarding::translate(clos, &image),
            Collector::Generational => ps_trans::generational::translate(clos, &image),
        }
    }
}

impl fmt::Display for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Collector {
    type Err = String;

    fn from_str(s: &str) -> Result<Collector, String> {
        Collector::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown collector {s:?} (expected {})",
                    Collector::ALL.map(Collector::name).join("|")
                )
            })
    }
}

/// An error from any stage of the pipeline.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// Source lexing/parsing failed.
    Parse(ps_lambda::parse::ParseError),
    /// The source program is ill-typed.
    SourceType(ps_lambda::typecheck::TypeError),
    /// CPS conversion failed (ill-typed input).
    Cps(ps_clos::cps::CpsError),
    /// Closure conversion failed (CPS invariant violated).
    Cc(ps_clos::cc::CcError),
    /// The λCLOS intermediate program is ill-typed (a compiler bug).
    ClosType(ps_clos::tyck::ClosTypeError),
    /// Translation to λGC failed.
    Trans(ps_trans::TransError),
    /// The final λGC program is ill-typed (a compiler or collector bug).
    GcType(ps_gc_lang::error::LangError),
    /// The machine got stuck or hit a memory fault.
    Runtime(ps_gc_lang::error::LangError),
    /// A periodic heap audit (`--verify-every`) found a violated invariant.
    InvariantViolation(ps_gc_lang::error::LangError),
    /// The machine ran out of fuel.
    OutOfFuel,
    /// The wall-clock deadline (`--timeout-ms`) passed before the run
    /// finished.
    DeadlineExceeded,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::SourceType(e) => write!(f, "{e}"),
            PipelineError::Cps(e) => write!(f, "{e}"),
            PipelineError::Cc(e) => write!(f, "{e}"),
            PipelineError::ClosType(e) => write!(f, "{e}"),
            PipelineError::Trans(e) => write!(f, "{e}"),
            PipelineError::GcType(e) => write!(f, "λGC {e}"),
            PipelineError::Runtime(e) => write!(f, "runtime {e}"),
            PipelineError::InvariantViolation(e) => write!(f, "heap invariant violated: {e}"),
            PipelineError::OutOfFuel => write!(f, "machine ran out of fuel"),
            PipelineError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything that configures one run, in one place: which collector to
/// link, which backend interprets, the memory settings, the fuel, the
/// telemetry observer, and the audit/fault/checkpoint/deadline knobs of
/// the [`RunControl`]. Consumed by [`RunOptions::compile`] /
/// [`Compiled::run_with`] in the library and by `psgc`'s flag parser, so
/// the CLI and the API cannot drift apart.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::builder`] (or [`RunOptions::new`] /
/// [`RunOptions::default`] plus field assignment), so new backend/VM knobs
/// can be added without breaking downstream construction sites.
///
/// # Examples
///
/// ```
/// use scavenger::{Collector, RunOptions};
///
/// # fn main() -> Result<(), scavenger::PipelineError> {
/// let opts = RunOptions::builder()
///     .collector(Collector::Forwarding)
///     .budget(96)
///     .build();
/// let run = opts.compile("fun f (n : int) : int = n + n\n f 21")?.run_with(&opts)?;
/// assert_eq!(run.result, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunOptions {
    /// Which certified collector to link against.
    pub collector: Collector,
    /// Interpreter backend; `None` picks [`Backend::default_for`].
    pub backend: Option<Backend>,
    /// Base region budget in words.
    pub budget: usize,
    /// Region budget growth policy.
    pub growth: GrowthPolicy,
    /// Step limit for the run.
    pub fuel: u64,
    /// Maintain the memory typing `Ψ` while running.
    pub track_types: bool,
    /// Telemetry observer to attach to the machine, if any.
    pub observer: Option<SharedObserver>,
    /// Emit a [`telemetry::GcEvent::Step`] heap sample every this many
    /// machine steps (0 = never). Only meaningful with an observer.
    pub step_interval: u64,
    /// Run the [`ps_gc_lang::verify`] heap auditor every this many machine
    /// steps (0 = never). A failed audit ends the run with
    /// [`PipelineError::InvariantViolation`].
    pub verify_every: u64,
    /// Deterministic faults to inject during the run (fault-injection
    /// machinery; see [`ps_gc_lang::faults`]). Each plan fires once at its
    /// own step; empty = no injection.
    pub inject: Vec<FaultPlan>,
    /// Hard cap on live heap words; an allocation that would exceed it
    /// fails with a typed out-of-memory error (`None` = unbounded).
    /// Accounting is page-granular: the cap is charged per page footprint,
    /// not per object.
    pub max_heap_words: Option<usize>,
    /// Page size of the BiBOP store, in words (rounded up to a power of
    /// two and saturated at [`MAX_PAGE_WORDS`] by [`Memory::new`]).
    ///
    /// [`MAX_PAGE_WORDS`]: ps_gc_lang::memory::MAX_PAGE_WORDS
    /// [`Memory::new`]: ps_gc_lang::memory::Memory::new
    pub page_words: usize,
    /// How the periodic heap audit walks the store: incrementally over
    /// dirtied pages (the default) or as a full walk every time.
    pub audit: AuditMode,
    /// Force eager interning of every heap slot at `put` time, disabling
    /// the lazy ids-or-thunks slot representation (off by default; the
    /// toggle exists for A/B measurement and the lazy-vs-eager lockstep
    /// gates). Ignored by the substitution backend, whose values are
    /// interned by construction.
    pub eager_intern: bool,
    /// Run under the [`gc_lang::supervisor`]: aborts restore the last good
    /// checkpoint and are triaged by replay on the substitution oracle
    /// (see [`RunOptions::supervise_spec`]).
    pub supervise: bool,
    /// Take a machine checkpoint every this many steps, in addition to the
    /// checkpoint at every GC boundary (0 = GC boundaries only when
    /// supervised, no checkpoints otherwise).
    pub checkpoint_every: u64,
    /// Wall-clock deadline for the run, in milliseconds (`None` =
    /// unbounded). An expired deadline ends an unsupervised run with
    /// [`PipelineError::DeadlineExceeded`]; the supervisor instead restarts
    /// from the last checkpoint, a bounded number of times.
    pub timeout_ms: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            collector: Collector::Basic,
            backend: None,
            budget: MemConfig::default().region_budget,
            growth: MemConfig::default().growth,
            fuel: 1_000_000_000,
            track_types: false,
            observer: None,
            step_interval: 0,
            verify_every: 0,
            inject: Vec::new(),
            max_heap_words: None,
            page_words: MemConfig::default().page_words,
            audit: AuditMode::default(),
            eager_intern: false,
            supervise: false,
            checkpoint_every: 0,
            timeout_ms: None,
        }
    }
}

impl RunOptions {
    /// Defaults with the given collector.
    pub fn new(collector: Collector) -> RunOptions {
        RunOptions {
            collector,
            ..RunOptions::default()
        }
    }

    /// A builder over the defaults — the forward-compatible way to
    /// construct options (the struct is `#[non_exhaustive]`).
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder::default()
    }

    /// The memory configuration these options describe.
    pub fn mem_config(&self) -> MemConfig {
        MemConfig {
            region_budget: self.budget,
            growth: self.growth,
            track_types: self.track_types,
            max_heap_words: self.max_heap_words,
            page_words: self.page_words,
        }
    }

    /// The backend these options select (resolving the default).
    pub fn resolved_backend(&self) -> Backend {
        self.backend
            .unwrap_or(Backend::default_for(self.track_types))
    }

    /// The [`SuperviseSpec`] these options describe, for
    /// [`supervise`]: checkpoints at GC boundaries and every
    /// `checkpoint_every` steps (1024 when left at 0), audits every
    /// `verify_every` steps (64 when left at 0), and on an invariant
    /// violation, typed OOM, deadline, or panic restores the last good
    /// checkpoint and replays on the substitution oracle with full
    /// per-step auditing to localize the first violating step.
    pub fn supervise_spec(&self) -> SuperviseSpec {
        self.spec(true)
    }

    /// The one translation of these options into a machine configuration,
    /// shared by [`Compiled::run_with`] and [`RunOptions::supervise_spec`].
    /// A supervised spec keeps the supervisor's audit and checkpoint
    /// cadences where these options leave them at 0.
    fn spec(&self, supervised: bool) -> SuperviseSpec {
        let mut spec = SuperviseSpec::new(self.resolved_backend(), self.mem_config(), self.fuel);
        let ctl = &mut spec.control;
        if !supervised || self.verify_every > 0 {
            ctl.verify_every = self.verify_every;
        }
        if !supervised || self.checkpoint_every > 0 {
            ctl.checkpoint_every = self.checkpoint_every;
        }
        ctl.audit = self.audit;
        ctl.faults = self.inject.clone();
        ctl.timeout = self.timeout_ms.map(Duration::from_millis);
        spec.eager_intern = self.eager_intern;
        spec.observer = self.observer.clone();
        spec.step_interval = self.step_interval;
        spec
    }

    /// Compiles `source` all the way to a λGC program linked with
    /// `self.collector`: parses it, then hands the AST to
    /// [`RunOptions::compile_program`]. Only `collector` matters here;
    /// everything else configures [`Compiled::run_with`].
    ///
    /// # Errors
    ///
    /// Returns the first stage error, [`PipelineError::Parse`] included.
    pub fn compile(&self, source: &str) -> Result<Compiled, PipelineError> {
        let src = ps_lambda::parse::parse_program(source).map_err(PipelineError::Parse)?;
        self.compile_program(src)
    }

    /// Compiles a source AST (for programs built in code, such as
    /// [`workloads`]) the way [`RunOptions::compile`] compiles text:
    /// source typecheck, CPS, closure conversion, then the Fig. 3
    /// translation linked with `self.collector`.
    ///
    /// # Errors
    ///
    /// Returns the first stage error. The CPS and λCLOS intermediate
    /// programs are typechecked too, so a miscompilation surfaces here as a
    /// [`PipelineError::SourceType`]/[`PipelineError::ClosType`] rather than
    /// at run time.
    pub fn compile_program(
        &self,
        src: ps_lambda::syntax::SrcProgram,
    ) -> Result<Compiled, PipelineError> {
        ps_lambda::typecheck::check_program(&src).map_err(PipelineError::SourceType)?;
        let cps = ps_clos::cps::cps_program(&src).map_err(PipelineError::Cps)?;
        ps_lambda::typecheck::check_program(&cps).map_err(PipelineError::SourceType)?;
        let clos = ps_clos::cc::cc_program(&cps).map_err(PipelineError::Cc)?;
        ps_clos::tyck::check_program(&clos).map_err(PipelineError::ClosType)?;
        let program = self
            .collector
            .translate(&clos)
            .map_err(PipelineError::Trans)?;
        Ok(Compiled {
            source: src,
            clos,
            program,
        })
    }

    /// Trace-header metadata describing these options (for
    /// [`telemetry::Recorder::with_meta`]).
    pub fn meta(&self) -> RunMeta {
        RunMeta {
            collector: self.collector.name().to_string(),
            backend: self.resolved_backend().to_string(),
            budget: self.budget,
            growth: self.growth.to_string(),
            fuel: self.fuel,
            step_interval: self.step_interval,
        }
    }
}

/// Chainable constructor for [`RunOptions`], starting from the defaults.
/// Obtained from [`RunOptions::builder`]; finish with
/// [`RunOptionsBuilder::build`].
///
/// # Examples
///
/// ```
/// use scavenger::{Backend, Collector, RunOptions};
///
/// let opts = RunOptions::builder()
///     .collector(Collector::Generational)
///     .backend(Backend::Bytecode)
///     .budget(128)
///     .verify_every(64)
///     .build();
/// assert_eq!(opts.resolved_backend(), Backend::Bytecode);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunOptionsBuilder {
    opts: RunOptions,
}

impl RunOptionsBuilder {
    /// Which certified collector to link against.
    pub fn collector(mut self, collector: Collector) -> RunOptionsBuilder {
        self.opts.collector = collector;
        self
    }

    /// Pins the interpreter backend (the default resolves via
    /// [`Backend::default_for`]).
    pub fn backend(mut self, backend: Backend) -> RunOptionsBuilder {
        self.opts.backend = Some(backend);
        self
    }

    /// Base region budget in words.
    pub fn budget(mut self, words: usize) -> RunOptionsBuilder {
        self.opts.budget = words;
        self
    }

    /// Region budget growth policy.
    pub fn growth(mut self, policy: GrowthPolicy) -> RunOptionsBuilder {
        self.opts.growth = policy;
        self
    }

    /// Step limit for the run.
    pub fn fuel(mut self, fuel: u64) -> RunOptionsBuilder {
        self.opts.fuel = fuel;
        self
    }

    /// Maintain the memory typing `Ψ` while running.
    pub fn track_types(mut self, on: bool) -> RunOptionsBuilder {
        self.opts.track_types = on;
        self
    }

    /// Attaches a telemetry observer; `step_interval > 0` additionally
    /// emits periodic heap samples.
    pub fn observer(mut self, observer: SharedObserver, step_interval: u64) -> RunOptionsBuilder {
        self.opts.observer = Some(observer);
        self.opts.step_interval = step_interval;
        self
    }

    /// Run the heap auditor every `n` machine steps (0 = never).
    pub fn verify_every(mut self, n: u64) -> RunOptionsBuilder {
        self.opts.verify_every = n;
        self
    }

    /// Arms a deterministic fault plan (fault-injection machinery).
    /// Chainable: each call adds a plan.
    pub fn inject(mut self, plan: FaultPlan) -> RunOptionsBuilder {
        self.opts.inject.push(plan);
        self
    }

    /// Arms several fault plans at once (e.g. from
    /// [`gc_lang::faults::parse_plans`]).
    pub fn inject_all(mut self, plans: &[FaultPlan]) -> RunOptionsBuilder {
        self.opts.inject.extend_from_slice(plans);
        self
    }

    /// Run under the supervisor (checkpoint, restart, triage).
    pub fn supervise(mut self, on: bool) -> RunOptionsBuilder {
        self.opts.supervise = on;
        self
    }

    /// Take a machine checkpoint every `n` steps (plus GC boundaries).
    pub fn checkpoint_every(mut self, n: u64) -> RunOptionsBuilder {
        self.opts.checkpoint_every = n;
        self
    }

    /// Wall-clock deadline for the run, in milliseconds.
    pub fn timeout_ms(mut self, ms: u64) -> RunOptionsBuilder {
        self.opts.timeout_ms = Some(ms);
        self
    }

    /// Hard cap on live heap words.
    pub fn max_heap_words(mut self, words: usize) -> RunOptionsBuilder {
        self.opts.max_heap_words = Some(words);
        self
    }

    /// Page size of the BiBOP store, in words.
    pub fn page_words(mut self, words: usize) -> RunOptionsBuilder {
        self.opts.page_words = words;
        self
    }

    /// Audit strategy for the periodic heap auditor.
    pub fn audit(mut self, mode: AuditMode) -> RunOptionsBuilder {
        self.opts.audit = mode;
        self
    }

    /// Force eager slot interning (disable the lazy ids-or-thunks
    /// representation) in the env and bytecode backends.
    pub fn eager_intern(mut self, on: bool) -> RunOptionsBuilder {
        self.opts.eager_intern = on;
        self
    }

    /// The finished options.
    pub fn build(self) -> RunOptions {
        self.opts
    }
}

/// A compiled program: its intermediate forms and the final λGC program
/// linked with a certified collector. How it runs is up to the
/// [`RunOptions`] passed to [`Compiled::run_with`].
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The parsed source program.
    pub source: ps_lambda::syntax::SrcProgram,
    /// The λCLOS intermediate program.
    pub clos: ps_clos::syntax::CProgram,
    /// The final λGC program (collector + translated mutator).
    pub program: Program,
}

/// The outcome of running a compiled program.
#[derive(Clone, Debug)]
pub struct Run {
    /// The integer the program halted with.
    pub result: i64,
    /// Machine statistics (collections, words reclaimed, …).
    pub stats: Stats,
    /// BiBOP page-store statistics at halt (`psgc --stats-pages`).
    pub pages: PageStats,
    /// Armed fault plans that never fired (their step was past the halt, or
    /// their injector found no matching site). Useful for warning that a
    /// `--inject` spec was a no-op.
    pub unfired_faults: Vec<FaultPlan>,
}

impl Compiled {
    /// Which collector this program is linked with (each collector has its
    /// own dialect).
    pub fn collector(&self) -> Collector {
        match self.program.dialect {
            Dialect::Basic => Collector::Basic,
            Dialect::Forwarding => Collector::Forwarding,
            Dialect::Generational => Collector::Generational,
        }
    }

    /// Typechecks the *whole* λGC program — mutator and collector together
    /// — under the paper's static semantics. This is the certification
    /// step: no part of memory management remains in the trusted base.
    ///
    /// # Errors
    ///
    /// Returns the λGC type error, naming the offending code block.
    pub fn typecheck(&self) -> Result<(), PipelineError> {
        Checker::check_program(&self.program).map_err(PipelineError::GcType)
    }

    /// Runs the program under `opts` — backend, memory settings, fuel,
    /// observer, audits, fault plans, checkpoints and deadline all come
    /// from there (its `collector` field is ignored: this program is
    /// already linked). For a supervised run, pass
    /// [`RunOptions::supervise_spec`] to [`supervise`] instead.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Runtime`] on a stuck state (impossible for
    /// typechecked programs, per progress) or a typed OOM,
    /// [`PipelineError::InvariantViolation`] when an audit fails,
    /// [`PipelineError::OutOfFuel`], or
    /// [`PipelineError::DeadlineExceeded`].
    pub fn run_with(&self, opts: &RunOptions) -> Result<Run, PipelineError> {
        let mut m = opts.spec(false).load(&self.program);
        match m.run(opts.fuel).map_err(PipelineError::Runtime)? {
            Outcome::Halted(result) => Ok(Run {
                result,
                stats: m.stats().clone(),
                pages: m.memory().page_stats(),
                unfired_faults: m.run_control().faults.clone(),
            }),
            Outcome::InvariantViolation(e) => Err(PipelineError::InvariantViolation(e)),
            Outcome::OutOfFuel => Err(PipelineError::OutOfFuel),
            Outcome::DeadlineExceeded => Err(PipelineError::DeadlineExceeded),
        }
    }

    /// Evaluates the *source* program with the reference evaluator — the
    /// observational oracle the compiled program must agree with.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (fuel exhaustion on divergent programs).
    pub fn reference_result(&self, fuel: u64) -> Result<i64, PipelineError> {
        ps_lambda::eval::run_program(&self.source, fuel).map_err(|e| {
            PipelineError::Runtime(ps_gc_lang::error::LangError::new(
                ps_gc_lang::error::ErrorKind::Stuck,
                e.0,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIB: &str = "fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n fib 12";

    #[test]
    fn all_collectors_agree_with_the_oracle() {
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            let opts = RunOptions::builder()
                .collector(collector)
                .budget(128)
                .fuel(100_000_000)
                .build();
            let compiled = opts.compile(FIB).unwrap();
            compiled.typecheck().unwrap();
            assert_eq!(compiled.collector(), collector);
            let run = compiled.run_with(&opts).unwrap();
            assert_eq!(run.result, compiled.reference_result(10_000_000).unwrap());
            assert!(run.stats.collections > 0, "{collector}");
        }
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            RunOptions::new(Collector::Basic).compile("fun ("),
            Err(PipelineError::Parse(_))
        ));
    }

    #[test]
    fn type_errors_surface() {
        assert!(matches!(
            RunOptions::new(Collector::Basic).compile("(1, 2) + 3"),
            Err(PipelineError::SourceType(_))
        ));
    }

    #[test]
    fn out_of_fuel_is_distinguished() {
        let opts = RunOptions::builder().fuel(1_000).build();
        let compiled = opts
            .compile("fun loop (n : int) : int = loop n\n loop 0")
            .unwrap();
        assert!(matches!(
            compiled.run_with(&opts),
            Err(PipelineError::OutOfFuel)
        ));
    }

    #[test]
    fn budget_controls_collection_count() {
        // The budget is a run setting: one compiled program, run at two
        // budgets, collects only at the small one — whether it came from
        // source text or was built as an AST (`compile_program`).
        let opts = RunOptions::new(Collector::Basic);
        let parsed = opts.compile(FIB).unwrap();
        let built = opts
            .compile_program(workloads::live_tree_churn(4, 60))
            .unwrap();
        for (compiled, small_budget) in [(&parsed, 64), (&built, 128)] {
            let run = |budget| {
                let opts = RunOptions::builder()
                    .budget(budget)
                    .fuel(100_000_000)
                    .build();
                compiled.run_with(&opts).unwrap()
            };
            let (small, big) = (run(small_budget), run(1 << 24));
            assert!(small.stats.collections > big.stats.collections);
            assert_eq!(big.stats.collections, 0);
            assert_eq!(small.result, big.result);
        }
    }

    #[test]
    fn collector_display() {
        assert_eq!(Collector::Basic.to_string(), "basic");
        assert_eq!(Collector::Forwarding.to_string(), "forwarding");
        assert_eq!(Collector::Generational.to_string(), "generational");
    }

    #[test]
    fn collector_and_backend_roundtrip_through_strings() {
        for c in Collector::ALL {
            assert_eq!(c.to_string().parse::<Collector>().unwrap(), c);
            assert_eq!(c.image().name, c.name());
        }
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert!("mark-sweep".parse::<Collector>().is_err());
    }

    #[test]
    fn backend_all_is_exhaustive() {
        // Compile-time gate: adding a `Backend` variant without extending
        // `Backend::ALL` (and thus every ALL-driven matrix) fails here.
        fn index_of(b: Backend) -> usize {
            match b {
                Backend::Subst => 0,
                Backend::Env => 1,
                Backend::Bytecode => 2,
            }
        }
        assert_eq!(Backend::ALL.len(), 3);
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(index_of(b), i, "ALL must list every backend in order");
            // Display and FromStr round-trip through the canonical name.
            assert_eq!(b.to_string(), b.name());
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        let mut names: Vec<&str> = Backend::ALL.map(Backend::name).to_vec();
        names.dedup();
        assert_eq!(names.len(), Backend::ALL.len(), "names must be unique");
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!("bc".parse::<Backend>().unwrap(), Backend::Bytecode);
    }

    #[test]
    fn run_options_compile_and_run() {
        let opts = RunOptions::builder()
            .collector(Collector::Generational)
            .budget(128)
            .build();
        let compiled = opts.compile(FIB).unwrap();
        let run = compiled.run_with(&opts).unwrap();
        assert_eq!(run.result, 144);
        assert!(run.stats.collections > 0);
        let meta = opts.meta();
        assert_eq!(meta.collector, "generational");
        assert_eq!(meta.backend, "env");
        assert_eq!(meta.budget, 128);
    }

    #[test]
    fn observer_records_a_consistent_event_stream() {
        let recorder = telemetry::Recorder::new().into_shared();
        let opts = RunOptions::builder()
            .budget(96)
            .observer(recorder.clone(), 64)
            .build();
        let run = opts.compile(FIB).unwrap().run_with(&opts).unwrap();
        let rec = recorder.borrow();
        // The event stream and Stats are two views of the same run.
        assert_eq!(rec.metrics.collections, run.stats.collections);
        assert_eq!(rec.metrics.words_reclaimed, run.stats.words_reclaimed);
        assert_eq!(rec.metrics.regions_allocated, run.stats.regions_created);
        assert!(rec.metrics.events > 0);
        assert!(rec.events.iter().any(|e| e.name() == "step"), "sampling on");
        assert!(matches!(
            rec.events.last(),
            Some(telemetry::GcEvent::Halt { value: 144, .. })
        ));
    }

    #[test]
    fn disabled_observer_changes_nothing() {
        let opts = RunOptions::builder().budget(96).build();
        let with = {
            let recorder = telemetry::Recorder::new().into_shared();
            let mut opts = opts.clone();
            opts.observer = Some(recorder.clone());
            opts.compile(FIB).unwrap().run_with(&opts).unwrap()
        };
        let without = opts.compile(FIB).unwrap().run_with(&opts).unwrap();
        assert_eq!(with.result, without.result);
        assert_eq!(with.stats, without.stats);
    }
}
