//! One sample, run in a fresh child process.
//!
//! The interners are process-global, so a second run in the same process
//! finds the values the first one interned and measures a warm cache that
//! no `psgc run` user ever sees. Every sample therefore runs in its own
//! process and prints what it measured as `key value` lines, which the
//! parent parses with [`Sample::parse`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use scavenger::gc_lang::intern::{self, InternStats};
use scavenger::gc_lang::machine::{self, Outcome, Stats};
use scavenger::gc_lang::memory::GrowthPolicy;
use scavenger::gc_lang::tyck::Checker;
use scavenger::telemetry::{Recorder, SharedObserver};
use scavenger::{Backend, Collector, PageStats, RunOptions};

use crate::trace::{self, span, GcSpans, Span, Tracer};
use crate::workloads::{Program, Workload};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// How a plain (untraced) sample compiles and runs its programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// No backend pinned: what `psgc run` picks
    /// (`RunOptions::resolved_backend`).
    Default,
    /// One backend of `Backend::ALL`, pinned.
    Pinned(Backend),
    /// Bytecode with Ψ tracking and an incremental heap audit every step.
    Audited,
}

impl Config {
    /// The default, every other backend, then the audited run.
    pub fn all() -> Vec<Config> {
        let default = Config::Default.backend();
        std::iter::once(Config::Default)
            .chain(
                Backend::ALL
                    .into_iter()
                    .filter(|b| *b != default)
                    .map(Config::Pinned),
            )
            .chain(std::iter::once(Config::Audited))
            .collect()
    }

    pub fn name(self) -> &'static str {
        match self {
            Config::Default => "default",
            Config::Pinned(b) => b.name(),
            Config::Audited => "audited",
        }
    }

    pub fn parse(s: &str) -> Option<Config> {
        match s {
            "default" => Some(Config::Default),
            "audited" => Some(Config::Audited),
            other => Backend::ALL
                .into_iter()
                .find(|b| b.name() == other)
                .map(Config::Pinned),
        }
    }

    /// The backend the sample's machine runs on.
    pub fn backend(self) -> Backend {
        match self {
            Config::Default => RunOptions::default().resolved_backend(),
            Config::Pinned(b) => b,
            Config::Audited => Backend::Bytecode,
        }
    }

    /// The options for `p`. Budget and growth are set here, on the options
    /// `run_with` receives: it takes its memory settings from them and
    /// ignores those the program was compiled with.
    pub fn options_for(self, p: &Program) -> RunOptions {
        let b = RunOptions::builder()
            .collector(p.collector)
            .budget(p.budget)
            .growth(GrowthPolicy::Adaptive);
        match self {
            Config::Default => b,
            Config::Pinned(backend) => b.backend(backend),
            Config::Audited => b
                .backend(Backend::Bytecode)
                .track_types(true)
                .verify_every(1),
        }
        .build()
    }
}

/// The kind of sample a child process takes.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Time `RunOptions::compile` → `Compiled::typecheck` → `run_with`.
    Plain(Config),
    /// The default configuration, stage by stage, inside spans; the first
    /// program's telemetry events go to the given file, if any.
    Traced(Option<String>),
    /// On bytecode, time load, the first step (which compiles the
    /// bytecode), and a snapshot, full audit and restore of the machine
    /// paused after `pause_at` steps of program `program`.
    Probe { program: usize, pause_at: u64 },
}

/// Runs one sample and returns its `key value` report.
pub fn run(w: &Workload, kind: &Kind) -> Result<String, String> {
    let mut out = Report::default();
    match kind {
        Kind::Plain(config) => plain(w, *config, &mut out),
        Kind::Traced(events) => traced(w, events.as_deref(), &mut out),
        Kind::Probe { program, pause_at } => probe(&w.programs[*program], *pause_at, &mut out),
    }
    .map_err(|e| e.to_string())?;
    out.num("rss_mb", peak_rss_mb());
    Ok(out.0)
}

fn plain(w: &Workload, config: Config, out: &mut Report) -> Res<()> {
    let mut totals = Totals::default();
    for p in &w.programs {
        let opts = config.options_for(p);
        let t = Instant::now();
        let compiled = opts.compile(&p.source)?;
        compiled.typecheck()?;
        let setup = t.elapsed();
        let before = intern::stats();
        let t = Instant::now();
        let run = compiled.run_with(&opts)?;
        let elapsed = t.elapsed();
        totals.add(setup, elapsed, run.result, &run.stats, &run.pages, &before);
    }
    totals.write(out);
    Ok(())
}

fn traced(w: &Workload, events: Option<&str>, out: &mut Report) -> Res<()> {
    let tracer = Tracer::shared();
    let sample = tracer.borrow_mut().open("sample");
    let mut totals = Totals::default();
    let (mut gc_steps, mut copied, mut promoted, mut blocks) = (0, 0, 0, 0);
    for (i, p) in w.programs.iter().enumerate() {
        let opts = Config::Default.options_for(p);
        let t = Instant::now();
        let program = span(&tracer, "setup", || front_end(&tracer, p))?;
        span(&tracer, "certify", || Checker::check_program(&program))?;
        let setup = t.elapsed();
        blocks += program.code.len() as u64;

        let observer = Rc::new(RefCell::new(GcSpans {
            tracer: tracer.clone(),
            recorder: Recorder::new().with_meta(opts.meta()),
        }));
        let before = intern::stats();
        let t = Instant::now();
        let run = tracer.borrow_mut().open("run");
        let mut m = span(&tracer, "load", || {
            opts.resolved_backend().load(&program, opts.mem_config())
        });
        m.set_observer(observer.clone() as SharedObserver, 0);
        let outcome = m.run(opts.fuel);
        tracer.borrow_mut().close(run);
        let elapsed = t.elapsed();
        let result = halted(outcome?)?;
        let pages = m.memory().page_stats();
        totals.add(setup, elapsed, result, m.stats(), &pages, &before);

        let rec = &observer.borrow().recorder;
        gc_steps += rec.metrics.gc_steps;
        copied += rec.metrics.words_copied;
        promoted += rec.metrics.words_promoted;
        if let (0, Some(path)) = (i, events) {
            std::fs::write(path, rec.to_jsonl())?;
        }
    }
    tracer.borrow_mut().close(sample);
    totals.write(out);
    out.int("gc.steps", gc_steps);
    out.int("gc.words_copied", copied);
    out.int("gc.words_promoted", promoted);
    out.int("cert.blocks", blocks);
    for (i, s) in tracer.borrow().spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out.0,
            "span {i} {parent} {} {} {}",
            s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    Ok(())
}

/// The front end of `Pipeline::compile` (with its stage checks), one span
/// per stage.
fn front_end(tracer: &trace::SharedTracer, p: &Program) -> Res<machine::Program> {
    use scavenger::{clos, lambda, trans};
    let src = span(tracer, "parse", || lambda::parse::parse_program(&p.source))?;
    span(tracer, "src_tyck", || {
        lambda::typecheck::check_program(&src)
    })?;
    let cps = span(tracer, "cps", || clos::cps::cps_program(&src))?;
    span(tracer, "stage_check", || {
        lambda::typecheck::check_program(&cps)
    })?;
    let cc = span(tracer, "cc", || clos::cc::cc_program(&cps))?;
    span(tracer, "stage_check", || clos::tyck::check_program(&cc))?;
    let program = span(tracer, "trans", || {
        let image = p.collector.image();
        match p.collector {
            Collector::Basic => trans::basic::translate(&cc, &image),
            Collector::Forwarding => trans::forwarding::translate(&cc, &image),
            Collector::Generational => trans::generational::translate(&cc, &image),
        }
    })?;
    Ok(program)
}

fn probe(p: &Program, pause_at: u64, out: &mut Report) -> Res<()> {
    let opts = Config::Pinned(Backend::Bytecode).options_for(p);
    let compiled = opts.compile(&p.source)?;
    compiled.typecheck()?;

    let t = Instant::now();
    let mut m = Backend::Bytecode.load(&compiled.program, opts.mem_config());
    out.ms("load_ms", t.elapsed());
    let t = Instant::now();
    m.step()?;
    out.ms("bc_compile_ms", t.elapsed());
    if m.run(pause_at.saturating_sub(1))? != Outcome::OutOfFuel {
        return Err(format!("halted before the pause at step {pause_at}").into());
    }
    let t = Instant::now();
    let snap = m.snapshot();
    out.ms("snapshot_ms", t.elapsed());
    let t = Instant::now();
    m.audit()?;
    out.ms("audit_full_ms", t.elapsed());
    let t = Instant::now();
    m.restore(&snap)?;
    out.ms("restore_ms", t.elapsed());
    let result = halted(m.run(opts.fuel)?)?;
    writeln!(out.0, "result {result}").expect("writing to a String cannot fail");
    Ok(())
}

fn halted(outcome: Outcome) -> Res<i64> {
    match outcome {
        Outcome::Halted(n) => Ok(n),
        other => Err(format!("run ended without halting: {other:?}").into()),
    }
}

/// A sample's measurements summed over its workload's programs.
#[derive(Default)]
struct Totals {
    setup: Duration,
    run: Duration,
    results: Vec<i64>,
    fingerprint: Fingerprint,
    peak_heap_words: u64,
    counters: [u64; 17],
}

impl Totals {
    fn add(
        &mut self,
        setup: Duration,
        run: Duration,
        result: i64,
        stats: &Stats,
        pages: &PageStats,
        before: &InternStats,
    ) {
        let after = intern::stats();
        self.setup += setup;
        self.run += run;
        self.results.push(result);
        self.fingerprint.add(stats, pages);
        self.peak_heap_words = self
            .peak_heap_words
            .max((pages.peak_live * pages.page_words) as u64);
        for (sum, v) in self
            .counters
            .iter_mut()
            .zip(counters(stats, pages, before, &after))
        {
            *sum += v;
        }
    }

    fn write(&self, out: &mut Report) {
        out.num("setup_s", self.setup.as_secs_f64());
        out.num("run_s", self.run.as_secs_f64());
        out.int("peak_heap_words", self.peak_heap_words);
        for (k, v) in COUNTERS.iter().zip(self.counters) {
            out.int(k, v);
        }
        for r in &self.results {
            writeln!(out.0, "result {r}").expect("writing to a String cannot fail");
        }
        writeln!(out.0, "fp {:016x}", self.fingerprint.0).expect("writing to a String cannot fail");
    }
}

/// Names of the deterministic counters every plain and traced sample
/// reports, in the order [`counters`] gives their values.
pub const COUNTERS: [&str; 17] = [
    "steps",
    "gc.collections",
    "gc.forwarding_installs",
    "gc.typecase_dispatches",
    "pages.allocated",
    "pages.freed",
    "pages.peak_live",
    "mem.allocations",
    "mem.words_allocated",
    "mem.regions_created",
    "mem.words_reclaimed",
    "intern.val_nodes",
    "intern.val_hits",
    "intern.term_nodes",
    "intern.term_hits",
    "intern.lazy_deferred",
    "intern.lazy_forced",
];

/// The values of [`COUNTERS`] for one run: machine statistics, page store,
/// and the interning done during the run.
fn counters(
    stats: &Stats,
    pages: &PageStats,
    before: &InternStats,
    after: &InternStats,
) -> [u64; 17] {
    [
        stats.steps,
        stats.collections,
        stats.forwarding_installs,
        stats.typecase_dispatches,
        pages.allocated,
        pages.freed,
        pages.peak_live as u64,
        stats.allocations,
        stats.words_allocated,
        stats.regions_created,
        stats.words_reclaimed,
        (after.val_nodes - before.val_nodes) as u64,
        after.val_hits - before.val_hits,
        (after.term_nodes - before.term_nodes) as u64,
        after.term_hits - before.term_hits,
        after.lazy_deferred - before.lazy_deferred,
        after.lazy_forced - before.lazy_forced,
    ]
}

/// FNV-1a over the `Debug` form of every run's `Stats` and `PageStats`:
/// equal fingerprints mean byte-identical statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, stats: &Stats, pages: &PageStats) {
        for b in format!("{stats:?}{pages:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The `key value` lines a child prints.
#[derive(Default)]
struct Report(String);

impl Report {
    fn num(&mut self, key: &str, v: f64) {
        writeln!(self.0, "k {key} {v}").expect("writing to a String cannot fail");
    }

    fn int(&mut self, key: &str, v: u64) {
        writeln!(self.0, "k {key} {v}").expect("writing to a String cannot fail");
    }

    fn ms(&mut self, key: &str, d: Duration) {
        self.num(key, d.as_secs_f64() * 1e3);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the parent reads back from a child.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub values: std::collections::BTreeMap<String, f64>,
    pub results: Vec<i64>,
    pub fingerprint: Option<u64>,
    pub spans: Vec<Span>,
    /// The factor that brings this sample's times to the reference host
    /// speed (see `calib`); 1 until the parent sets it.
    pub scale: f64,
}

impl Sample {
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample {
            scale: 1.0,
            ..Sample::default()
        };
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed line {line:?}");
            match f.as_slice() {
                ["k", key, v] => {
                    s.values
                        .insert(key.to_string(), v.parse().map_err(|_| bad())?);
                }
                ["result", v] => s.results.push(v.parse().map_err(|_| bad())?),
                ["fp", v] => {
                    s.fingerprint = Some(u64::from_str_radix(v, 16).map_err(|_| bad())?);
                }
                ["span", _, parent, name, start, end] => s.spans.push(Span {
                    name: name.to_string(),
                    start_ns: start.parse().map_err(|_| bad())?,
                    end_ns: end.parse().map_err(|_| bad())?,
                    parent: match *parent {
                        "-" => None,
                        p => Some(p.parse().map_err(|_| bad())?),
                    },
                }),
                _ => return Err(bad()),
            }
        }
        Ok(s)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// A time the child measured, at the reference host speed.
    pub fn time(&self, key: &str) -> f64 {
        self.get(key) * self.scale
    }

    /// The total of the spans called `name`, in milliseconds at the
    /// reference host speed.
    pub fn span_ms(&self, name: &str) -> f64 {
        trace::total_ms(&self.spans, name) * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cover_every_backend_once_and_round_trip() {
        let all = Config::all();
        for b in Backend::ALL {
            assert_eq!(
                all.iter()
                    .filter(|c| **c != Config::Audited && c.backend() == b)
                    .count(),
                1,
                "{b}"
            );
        }
        for c in all {
            assert_eq!(Config::parse(c.name()), Some(c));
        }
        assert_eq!(Config::Audited.backend(), Backend::Bytecode);
    }

    #[test]
    fn reports_parse_back() {
        let text = "k setup_s 0.5\nresult -3\nfp 00000000000000ff\nspan 0 - sample 1 9\nspan 1 0 setup 2 3\n";
        let s = Sample::parse(text).unwrap();
        assert_eq!(s.get("setup_s"), 0.5);
        assert_eq!(s.results, vec![-3]);
        assert_eq!(s.fingerprint, Some(255));
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!((s.scale, s.time("setup_s")), (1.0, 0.5));
        assert!(Sample::parse("k x").is_err());
    }
}
