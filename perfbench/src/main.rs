//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! For each workload (all of them unless `--workload` names one) the
//! parent builds the programs from the seed, computes the expected results
//! with the source-level evaluator and the expected statistics with one
//! in-process run, then samples for `--seconds`: one child process at a
//! time, each a fresh re-execution of this binary that compiles, certifies
//! and runs the workload once under one configuration. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it takes traced
//! samples and probes instead and reports the per-layer metrics, writing
//! the spans and telemetry events under `DIR/trace/`. `--smoke` takes one
//! sample of every kind per workload at seed 1 and compares the
//! deterministic counters with `expected_counters.json`.
//!
//! Between every two samples the parent times a fixed calibration kernel
//! in a fresh process (`calib`), and each sample's times are scaled to the
//! reference host speed by the kernels on either side of it, so that a host
//! running slower for a minute does not read as a slower program.
//!
//! Every metric is printed by name with its unit; `DIR/results.json`
//! (default `target/bench`) holds each metric's median, quartiles and
//! sample count. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod calib;
mod child;
mod json;
mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use scavenger::gc_lang::machine::Outcome;
use scavenger::telemetry::{validate_jsonl_trace, Recorder};
use scavenger::Backend;

use child::{Config, Fingerprint, Kind, Sample, COUNTERS};
use metrics::Metric;
use workloads::{Regime, Workload};

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR]";

/// Measuring time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

/// Stack for the source-level evaluator, which recurses once per call of
/// the program it evaluates and overflows a main-thread stack on long
/// churn loops that the machines run in constant stack.
const ORACLE_STACK: usize = 512 << 20;

const ORACLE_FUEL: u64 = 1_000_000_000;

const EXPECTED_COUNTERS: &str = include_str!("../expected_counters.json");

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/bench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (expected {})",
                        workloads::NAMES.join("|")
                    ));
                }
                o.workload = Some(value.clone());
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if o.smoke {
        o.seed = 1;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child") {
        return child_main(&args[1..]);
    }
    if args == ["--calibrate"] {
        println!("{}", calib::kernel());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The child side: `--child WORKLOAD SEED plain CONFIG | traced [EVENTS] |
/// probe PROGRAM PAUSE_AT`.
fn child_main(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let [name, seed, kind, rest @ ..] = args else {
            return None;
        };
        let w = workloads::build(name, seed.parse().ok()?)?;
        let kind = match (kind.as_str(), rest) {
            ("plain", [config]) => Kind::Plain(Config::parse(config)?),
            ("traced", []) => Kind::Traced(None),
            ("traced", [events]) => Kind::Traced(Some(events.clone())),
            ("probe", [program, pause_at]) => Kind::Probe {
                program: program.parse().ok().filter(|&i| i < w.programs.len())?,
                pause_at: pause_at.parse().ok()?,
            },
            _ => return None,
        };
        Some((w, kind))
    })();
    let Some((w, kind)) = parsed else {
        eprintln!("perfbench: bad child arguments {args:?}");
        return ExitCode::from(2);
    };
    match child::run(&w, &kind) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child ({} {kind:?}): {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// What one workload's samples showed.
struct WorkloadReport {
    name: &'static str,
    attempted: usize,
    /// Samples that failed.
    failed: usize,
    /// Why each failed sample failed, plus any invalid trace file.
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// The raw calibration kernel times of the run.
    calib_ms: Metric,
    counters: BTreeMap<String, u64>,
}

fn bench(o: &Options) -> Result<bool, String> {
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let trace_dir = o.out.join("trace");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;

    let mut reports = Vec::new();
    for name in names {
        let w = workloads::build(name, o.seed).expect("names come from workloads::NAMES");
        let report = run_workload(&exe, &w, o, &trace_dir)?;
        print_report(&report, o);
        reports.push(report);
    }
    write_file(&o.out.join("results.json"), &results_json(&reports, o))?;

    let mut correct = reports.iter().all(|r| r.failures.is_empty());
    if o.smoke {
        correct &= check_counters(&reports, &o.out)?;
    }
    println!("{}", summary_line(&reports, correct));
    Ok(correct)
}

/// The expected outcome of every sample of a workload.
struct Reference {
    /// Per program, from the source-level evaluator.
    results: Vec<i64>,
    /// Of the statistics every sample must reproduce exactly.
    fingerprint: u64,
    /// Machine steps per program.
    steps: Vec<u64>,
    /// Whether the run stays in the workload's regime.
    regime: Result<(), String>,
}

fn reference(w: &Workload) -> Result<Reference, String> {
    let sources: Vec<String> = w.programs.iter().map(|p| p.source.clone()).collect();
    let results = std::thread::Builder::new()
        .name("oracle".into())
        .stack_size(ORACLE_STACK)
        .spawn(move || {
            sources
                .iter()
                .map(|s| {
                    let p =
                        scavenger::lambda::parse::parse_program(s).map_err(|e| e.to_string())?;
                    scavenger::lambda::eval::run_program(&p, ORACLE_FUEL).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<i64>, String>>()
        })
        .map_err(|e| format!("cannot start the evaluator thread: {e}"))?
        .join()
        .map_err(|_| "the source evaluator panicked".to_string())??;

    let mut fingerprint = Fingerprint::default();
    let mut steps = Vec::new();
    let (mut gc_steps, mut collections, mut installs, mut promoted) = (0, 0, 0, 0);
    for (p, expected) in w.programs.iter().zip(&results) {
        let opts = Config::Default.options_for(p);
        let compiled = opts.compile(&p.source).map_err(|e| e.to_string())?;
        let recorder = Recorder::metrics_only().into_shared();
        let mut m = Backend::Bytecode.load(&compiled.program, opts.mem_config());
        m.set_observer(recorder.clone(), 0);
        match m.run(opts.fuel) {
            Ok(Outcome::Halted(r)) if r == *expected => {}
            other => {
                return Err(format!(
                    "{}: the reference run gave {other:?}, the evaluator {expected}",
                    w.name
                ))
            }
        }
        let stats = m.stats();
        fingerprint.add(stats, &m.memory().page_stats());
        steps.push(stats.steps);
        collections += stats.collections;
        installs += stats.forwarding_installs;
        let rec = recorder.borrow();
        gc_steps += rec.metrics.gc_steps;
        promoted += rec.metrics.words_promoted;
    }
    let total: u64 = steps.iter().sum();
    let regime = match w.regime {
        Regime::CollectorBound if gc_steps * 2 < total => Err(format!(
            "collector steps are {gc_steps} of {total}, under half"
        )),
        Regime::NoCollections if collections > 0 => Err(format!("{collections} collections ran")),
        Regime::Forwarding if installs == 0 => Err("no forwarding pointer was installed".into()),
        Regime::Promoting if promoted == 0 => Err("no words were promoted".into()),
        _ => Ok(()),
    };
    Ok(Reference {
        results,
        fingerprint: fingerprint.0,
        steps,
        regime,
    })
}

/// The child processes of one round, in the order they run.
fn plan(o: &Options, round: usize, r: &Reference, events: &Path) -> Vec<Kind> {
    let (longest, steps) = r
        .steps
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| **s)
        .map_or((0, 0), |(i, s)| (i, *s));
    let probe = Kind::Probe {
        program: longest,
        pause_at: steps / 2,
    };
    let traced = Kind::Traced((round == 0).then(|| events.display().to_string()));
    let configs = Config::all();
    if o.smoke {
        let mut kinds: Vec<Kind> = configs.into_iter().map(Kind::Plain).collect();
        kinds.extend([traced, probe]);
        kinds
    } else if o.trace {
        let bytecode = configs
            .into_iter()
            .find(|c| *c != Config::Audited && c.backend() == Backend::Bytecode)
            .expect("Backend::ALL includes bytecode");
        vec![
            traced,
            Kind::Plain(Config::Default),
            Kind::Plain(bytecode),
            Kind::Plain(Config::Audited),
            probe,
        ]
    } else {
        configs
            .into_iter()
            .filter(|c| metrics::timed(c.backend()))
            .map(Kind::Plain)
            .collect()
    }
}

fn run_workload(
    exe: &Path,
    w: &Workload,
    o: &Options,
    trace_dir: &Path,
) -> Result<WorkloadReport, String> {
    let r = reference(w)?;
    let events = trace_dir.join(format!("{}.events.jsonl", w.name));
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut samples: Vec<(Kind, Sample)> = Vec::new();
    let (mut attempted, mut failures) = (0, Vec::new());
    let mut failed = 0;
    // Kernel times, one before the first sample and one after each.
    let mut calib_s = vec![calib::measure(exe)?];
    'rounds: for round in 0.. {
        for kind in plan(o, round, &r, &events) {
            if round > 0 && (o.smoke || start.elapsed() >= budget) {
                break 'rounds;
            }
            attempted += 1;
            let outcome = sample(exe, w, o.seed, &kind, &r);
            let before = calib_s[calib_s.len() - 1];
            let after = calib::measure(exe)?;
            calib_s.push(after);
            match outcome {
                Ok(mut s) => {
                    s.scale = calib::scale(before, after);
                    samples.push((kind, s));
                }
                Err(e) => {
                    failed += 1;
                    failures.push(e);
                }
            }
        }
    }

    let traced: Vec<&Sample> = samples
        .iter()
        .filter(|(k, _)| matches!(k, Kind::Traced(_)))
        .map(|(_, s)| s)
        .collect();
    if !traced.is_empty() {
        write_spans(&trace_dir.join(format!("{}.spans.jsonl", w.name)), &traced)?;
        match std::fs::read_to_string(&events).map_err(|e| e.to_string()) {
            Ok(text) => {
                if let Err(e) = validate_jsonl_trace(&text) {
                    failures.push(format!("{}: invalid event trace: {e}", events.display()));
                }
            }
            Err(e) => failures.push(format!("{}: {e}", events.display())),
        }
    }

    let mut metrics = Vec::new();
    if o.smoke || !o.trace {
        metrics.extend(metrics::e2e(&samples));
    }
    if o.smoke || o.trace {
        metrics.extend(metrics::per_layer(&samples, &calib_s));
    }
    Ok(WorkloadReport {
        name: w.name,
        attempted,
        failed,
        failures,
        metrics,
        calib_ms: Metric::new("calib_ms", "ms", calib_s.iter().map(|t| t * 1e3).collect()),
        counters: counters(&samples),
    })
}

/// Runs one child and checks what it reports against the reference. A
/// child that fails in any way is a failed sample, never an abort.
fn sample(
    exe: &Path,
    w: &Workload,
    seed: u64,
    kind: &Kind,
    r: &Reference,
) -> Result<Sample, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name, &seed.to_string()]);
    let expected = match kind {
        Kind::Plain(c) => {
            cmd.args(["plain", c.name()]);
            r.results.clone()
        }
        Kind::Traced(events) => {
            cmd.arg("traced").args(events);
            r.results.clone()
        }
        Kind::Probe { program, pause_at } => {
            cmd.args(["probe", &program.to_string(), &pause_at.to_string()]);
            vec![r.results[*program]]
        }
    };
    let what = format!("{} {kind:?}", w.name);
    let out = cmd
        .output()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let s =
        Sample::parse(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("{what}: {e}"))?;
    if s.results != expected {
        return Err(format!(
            "{what}: results {:?}, expected {expected:?}",
            s.results
        ));
    }
    if !matches!(kind, Kind::Probe { .. }) && s.fingerprint != Some(r.fingerprint) {
        return Err(format!("{what}: statistics differ from the reference run"));
    }
    r.regime
        .clone()
        .map_err(|e| format!("{what}: out of regime: {e}"))?;
    trace::check(&s.spans).map_err(|e| format!("{what}: {e}"))?;
    Ok(s)
}

/// The deterministic counters of a workload: the run's statistics from the
/// default configuration, the collector counts from the traced sample, and
/// the interning deltas of every configuration.
fn counters(samples: &[(Kind, Sample)]) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    for (kind, s) in samples {
        match kind {
            Kind::Plain(config) => {
                for key in COUNTERS {
                    if key.starts_with("intern.") {
                        c.insert(format!("{key}.{}", config.name()), s.get(key) as u64);
                    } else if *config == Config::Default {
                        c.insert(key.to_string(), s.get(key) as u64);
                    }
                }
                if *config == Config::Default {
                    c.insert("peak_heap_words".into(), s.get("peak_heap_words") as u64);
                }
            }
            Kind::Traced(_) => {
                for key in ["gc.steps", "gc.words_copied", "gc.words_promoted"] {
                    c.insert(key.to_string(), s.get(key) as u64);
                }
            }
            Kind::Probe { .. } => {}
        }
    }
    c
}

/// Compares the observed counters with the checked-in ones and writes the
/// observed set to `DIR/counters.json` (copy it over
/// `expected_counters.json` after a change that moves a counter on purpose).
fn check_counters(reports: &[WorkloadReport], out: &Path) -> Result<bool, String> {
    let observed: json::Counters = reports
        .iter()
        .map(|r| (r.name.to_string(), r.counters.clone()))
        .collect();
    let path = out.join("counters.json");
    write_file(&path, &json::write_counters(&observed))?;
    let expected = json::parse_counters(EXPECTED_COUNTERS)
        .map_err(|e| format!("expected_counters.json: {e}"))?;
    let mut ok = true;
    for (w, got) in &observed {
        let want = expected.get(w).cloned().unwrap_or_default();
        let keys: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
        for k in keys {
            if got.get(k) != want.get(k) {
                ok = false;
                println!(
                    "counter mismatch: {w} {k}: expected {:?}, got {:?}",
                    want.get(k),
                    got.get(k)
                );
            }
        }
    }
    println!(
        "counters {} expected_counters.json (observed: {})",
        if ok { "match" } else { "DIFFER from" },
        path.display()
    );
    Ok(ok)
}

fn write_spans(path: &Path, traced: &[&Sample]) -> Result<(), String> {
    let mut text = String::new();
    for (sample, s) in traced.iter().enumerate() {
        for (id, span) in s.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"sample\": {sample}, \"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                json::string(&span.name),
                span.start_ns,
                span.end_ns
            ));
        }
    }
    write_file(path, &text)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_report(r: &WorkloadReport, o: &Options) {
    println!(
        "{} (seed {}): {} samples, {} failed",
        r.name, o.seed, r.attempted, r.failed
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    if let Some(c) = r.calib_ms.summary() {
        println!(
            "  times at the reference host speed: calibration kernel median {:.3} ms \
             (reference {:.3} ms), q1 {:.3} q3 {:.3} n={}",
            c.median,
            calib::REFERENCE_S * 1e3,
            c.q1,
            c.q3,
            c.n
        );
    }
    for m in &r.metrics {
        match m.summary() {
            Some(s) => println!(
                "  {:<26} {:>14.6} {:<6} q1 {:<12.6} q3 {:<12.6} n={}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("  {:<26} {:>14} {:<6} n=0", m.name, "-", m.unit),
        }
    }
}

fn results_json(reports: &[WorkloadReport], o: &Options) -> String {
    let entry = |m: &Metric| {
        let s = m.summary()?;
        Some(format!(
            "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            json::string(&m.name),
            json::string(m.unit),
            json::number(s.median),
            json::number(s.q1),
            json::number(s.q3),
            s.n
        ))
    };
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let failures: Vec<String> = r.failures.iter().map(|f| json::string(f)).collect();
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .filter_map(|m| Some(format!("      {}", entry(m)?)))
                .collect();
            format!(
                "    {{\"workload\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], {}, \"metrics\": {{\n{}\n    }}}}",
                json::string(r.name),
                r.attempted,
                r.failed,
                failures.join(", "),
                entry(&r.calib_ms).unwrap_or_else(|| "\"calib_ms\": null".into()),
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        o.seed,
        json::number(o.seconds),
        o.trace,
        o.smoke,
        rows.join(",\n")
    )
}

/// The last line of output. With one workload the metrics carry their own
/// names; a full set prefixes each with its workload.
fn summary_line(reports: &[WorkloadReport], correct: bool) -> String {
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = match reports.len() {
                1 => m.name.clone(),
                _ => format!("{}/{}", r.name, m.name),
            };
            let value = m.summary().map_or(0.0, |s| s.median);
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&name),
                json::number(value),
                json::string(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
