//! `psgc` — the command-line front end.
//!
//! Run `psgc --help` for the command and flag reference. Both the parser
//! and the help text are driven by one flag table ([`flag_specs`]), and
//! the collector/backend/growth alternatives come from the library's
//! `FromStr`/`Display` implementations, so the CLI cannot drift from what
//! the API accepts.
//!
//! Exit codes are distinct per failure class:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | runtime failure (stuck machine, out of fuel, out of memory, I/O) |
//! | 2 | command-line usage error |
//! | 3 | compile/typecheck/certification failure |
//! | 4 | heap invariant violation caught by `--verify-every` |

use std::process::ExitCode;

use scavenger::gc_lang::faults::{parse_plans, FaultPlan};
use scavenger::gc_lang::machine::Stats;
use scavenger::gc_lang::memory::{GrowthPolicy, MAX_PAGE_WORDS};
use scavenger::telemetry::{Recorder, SharedObserver};
use scavenger::{AuditMode, Backend, Collector, PipelineError, RunOptions, SupervisedOutcome};

const EXIT_RUNTIME: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_COMPILE: u8 = 3;
const EXIT_INVARIANT: u8 = 4;

/// `(name, argument placeholder, description)` for each command.
const COMMANDS: &[(&str, &str, &str)] = &[
    ("run", "FILE", "compile, certify, and run a program"),
    ("check", "FILE", "compile and certify, but do not run"),
    ("certify", "", "print and typecheck the collector itself"),
    ("eval", "FILE", "run the reference source evaluator only"),
    (
        "disasm",
        "FILE",
        "compile and print the bytecode instruction stream",
    ),
];

/// Everything the flags configure: the library's [`RunOptions`] plus the
/// CLI-only output switches.
#[derive(Default)]
struct Cli {
    opts: RunOptions,
    stats: bool,
    stats_intern: bool,
    stats_pages: bool,
    metrics: bool,
    trace: Option<String>,
    dump_bytecode: bool,
}

/// One flag: its name, value placeholder (`None` for boolean flags), help
/// line, and effect. The parser and the generated help both walk this
/// table.
struct FlagSpec {
    name: &'static str,
    metavar: Option<fn() -> String>,
    help: &'static str,
    apply: fn(&mut Cli, &str) -> Result<(), String>,
}

/// `a|b|c` over anything displayable.
fn alts<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join("|")
}

fn parse_number<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag} (expected a number)"))
}

fn flag_specs() -> [FlagSpec; 23] {
    [
        FlagSpec {
            name: "--collector",
            metavar: Some(|| alts(Collector::ALL)),
            help: "certified collector to link (default basic)",
            apply: |c, v| {
                c.opts.collector = v.parse()?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--backend",
            metavar: Some(|| alts(Backend::ALL)),
            help: "interpreter backend (default env; subst with --track-types)",
            apply: |c, v| {
                c.opts.backend = Some(v.parse()?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--budget",
            metavar: Some(|| "WORDS".into()),
            help: "base region budget in words (default 256)",
            apply: |c, v| {
                c.opts.budget = parse_number(v, "--budget")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--growth",
            metavar: Some(|| alts([GrowthPolicy::Fixed, GrowthPolicy::Adaptive])),
            help: "region budget growth policy (default adaptive)",
            apply: |c, v| {
                c.opts.growth = v.parse()?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--fuel",
            metavar: Some(|| "STEPS".into()),
            help: "step limit for the run (default 1000000000)",
            apply: |c, v| {
                c.opts.fuel = parse_number(v, "--fuel")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--track-types",
            metavar: None,
            help: "maintain the memory typing Ψ while running (slower)",
            apply: |c, _| {
                c.opts.track_types = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--verify-every",
            metavar: Some(|| "STEPS".into()),
            help: "audit the heap invariants every STEPS machine steps",
            apply: |c, v| {
                c.opts.verify_every = parse_number(v, "--verify-every")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--audit",
            metavar: Some(|| alts([AuditMode::Incremental, AuditMode::Full])),
            help: "audit strategy for --verify-every (default incremental)",
            apply: |c, v| {
                c.opts.audit = v.parse()?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--inject",
            metavar: Some(|| "KIND@STEP[:SEED][,...]".into()),
            help: "inject deterministic heap faults (e.g. flip-tag@100:7,double-free@250)",
            apply: |c, v| {
                c.opts.inject.extend(parse_plans(v)?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--supervise",
            metavar: None,
            help: "run under the supervisor: checkpoint, restart on deadline, triage aborts",
            apply: |c, _| {
                c.opts.supervise = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--checkpoint-every",
            metavar: Some(|| "STEPS".into()),
            help: "take a machine checkpoint every STEPS steps plus every GC boundary",
            apply: |c, v| {
                c.opts.checkpoint_every = parse_number(v, "--checkpoint-every")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--timeout-ms",
            metavar: Some(|| "MS".into()),
            help: "wall-clock deadline for the run in milliseconds",
            apply: |c, v| {
                c.opts.timeout_ms = Some(parse_number(v, "--timeout-ms")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--max-heap-words",
            metavar: Some(|| "WORDS".into()),
            help: "fail with a typed out-of-memory error past this many live words",
            apply: |c, v| {
                c.opts.max_heap_words = Some(parse_number(v, "--max-heap-words")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--page-words",
            metavar: Some(|| "WORDS".into()),
            help: "BiBOP page size in words (default 512, rounded to a power of two, max 65536)",
            apply: |c, v| {
                let words = parse_number(v, "--page-words")?;
                if words > MAX_PAGE_WORDS {
                    return Err(format!(
                        "--page-words {words} exceeds the largest page size, {MAX_PAGE_WORDS} words"
                    ));
                }
                c.opts.page_words = words;
                Ok(())
            },
        },
        FlagSpec {
            name: "--dump-bytecode",
            metavar: None,
            help: "print the compiled bytecode instruction stream before running",
            apply: |c, _| {
                c.dump_bytecode = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--no-superinstructions",
            metavar: None,
            help: "disable superinstruction fusion in the bytecode backend (A/B knob)",
            apply: |c, _| {
                c.opts.superinstructions = false;
                Ok(())
            },
        },
        FlagSpec {
            name: "--eager-intern",
            metavar: None,
            help: "intern every heap slot eagerly at put time (disable lazy ids-or-thunks slots)",
            apply: |c, _| {
                c.opts.eager_intern = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--trace",
            metavar: Some(|| "FILE".into()),
            help: "write a JSON-lines GC event trace to FILE",
            apply: |c, v| {
                c.trace = Some(v.to_string());
                Ok(())
            },
        },
        FlagSpec {
            name: "--metrics",
            metavar: None,
            help: "print aggregated GC metrics and histograms after the run",
            apply: |c, _| {
                c.metrics = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--sample",
            metavar: Some(|| "STEPS".into()),
            help: "emit a heap sample event every STEPS machine steps",
            apply: |c, v| {
                c.opts.step_interval = parse_number(v, "--sample")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--stats",
            metavar: None,
            help: "print machine statistics after the run",
            apply: |c, _| {
                c.stats = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--stats-intern",
            metavar: None,
            help: "print tag/type/term/value interner occupancy, memo sizes, and skip counts",
            apply: |c, _| {
                c.stats_intern = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--stats-pages",
            metavar: None,
            help: "print BiBOP page-store statistics after the run",
            apply: |c, _| {
                c.stats_pages = true;
                Ok(())
            },
        },
    ]
}

/// Prints the interner/memo report (`--stats-intern`) to stderr.
fn print_intern_stats() {
    eprintln!("intern:");
    eprintln!("{}", scavenger::gc_lang::intern::stats());
}

/// The help text, generated from [`COMMANDS`] and [`flag_specs`].
fn usage() -> String {
    let mut s = String::from("usage: psgc <command> [FILE] [flags]\n\ncommands:\n");
    for (name, arg, help) in COMMANDS {
        let head = if arg.is_empty() {
            (*name).to_string()
        } else {
            format!("{name} {arg}")
        };
        s.push_str(&format!("  {head:<14} {help}\n"));
    }
    s.push_str("\nflags:\n");
    for f in flag_specs() {
        let head = match f.metavar {
            Some(m) => format!("{} {}", f.name, m()),
            None => f.name.to_string(),
        };
        s.push_str(&format!("  {head:<38} {}\n", f.help));
    }
    s
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("psgc: {msg}");
    eprint!("{}", usage());
    ExitCode::from(EXIT_USAGE)
}

/// Sorts a pipeline error into the compile or runtime exit class.
fn pipeline_exit(e: &PipelineError) -> u8 {
    match e {
        PipelineError::Runtime(_) | PipelineError::OutOfFuel | PipelineError::DeadlineExceeded => {
            EXIT_RUNTIME
        }
        PipelineError::InvariantViolation(_) => EXIT_INVARIANT,
        _ => EXIT_COMPILE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => return usage_error("missing command"),
        Some("--help" | "-h" | "help") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(cmd) if !COMMANDS.iter().any(|(n, ..)| *n == cmd) => {
            return usage_error(&format!("unknown command {cmd:?}"));
        }
        Some(_) => {}
    }
    let cmd = args[0].as_str();

    let mut cli = Cli::default();
    let mut file: Option<&str> = None;
    let specs = flag_specs();
    let mut i = 1;
    while i < args.len() {
        let arg = args[i].as_str();
        if let "--help" | "-h" = arg {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        if let Some(spec) = specs.iter().find(|s| s.name == arg) {
            let value = if spec.metavar.is_some() {
                i += 1;
                match args.get(i) {
                    Some(v) => v.as_str(),
                    None => return usage_error(&format!("{} needs a value", spec.name)),
                }
            } else {
                ""
            };
            if let Err(e) = (spec.apply)(&mut cli, value) {
                return usage_error(&e);
            }
        } else if !arg.starts_with('-') && file.is_none() {
            file = Some(arg);
        } else {
            return usage_error(&format!("unexpected argument {arg:?}"));
        }
        i += 1;
    }

    match cmd {
        "certify" => cmd_certify(&cli),
        "eval" => match read_source(file) {
            Ok(src) => cmd_eval(&cli, &src),
            Err(code) => code,
        },
        "check" | "run" => match read_source(file) {
            Ok(src) => cmd_run(&mut cli, &src, cmd == "check"),
            Err(code) => code,
        },
        "disasm" => match read_source(file) {
            Ok(src) => cmd_disasm(&cli, &src),
            Err(code) => code,
        },
        _ => unreachable!("command validated above"),
    }
}

fn read_source(file: Option<&str>) -> Result<String, ExitCode> {
    let Some(path) = file else {
        return Err(usage_error("this command needs a FILE argument"));
    };
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("psgc: cannot read {path}: {e}");
        ExitCode::from(EXIT_RUNTIME)
    })
}

fn cmd_certify(cli: &Cli) -> ExitCode {
    let image = cli.opts.collector.image();
    for def in &image.code {
        println!("{}\n", scavenger::gc_lang::pretty::code_def_to_string(def));
    }
    let dialect = match cli.opts.collector {
        Collector::Basic => scavenger::gc_lang::syntax::Dialect::Basic,
        Collector::Forwarding => scavenger::gc_lang::syntax::Dialect::Forwarding,
        Collector::Generational => scavenger::gc_lang::syntax::Dialect::Generational,
    };
    let program = scavenger::gc_lang::machine::Program {
        dialect,
        code: image.code,
        main: scavenger::gc_lang::syntax::Term::Halt(scavenger::gc_lang::syntax::Value::Int(0)),
    };
    let code = match scavenger::gc_lang::tyck::Checker::check_program(&program) {
        Ok(()) => {
            println!("✓ {} collector certified", cli.opts.collector);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("✗ rejected: {e}");
            ExitCode::from(EXIT_COMPILE)
        }
    };
    if cli.stats_intern {
        print_intern_stats();
    }
    code
}

fn cmd_eval(cli: &Cli, src: &str) -> ExitCode {
    let p = match scavenger::lambda::parse::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("psgc: {e}");
            return ExitCode::from(EXIT_COMPILE);
        }
    };
    if let Err(e) = scavenger::lambda::typecheck::check_program(&p) {
        eprintln!("psgc: {e}");
        return ExitCode::from(EXIT_COMPILE);
    }
    match scavenger::lambda::eval::run_program(&p, cli.opts.fuel) {
        Ok(n) => {
            println!("{n}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("psgc: {e}");
            ExitCode::from(EXIT_RUNTIME)
        }
    }
}

fn cmd_disasm(cli: &Cli, src: &str) -> ExitCode {
    let compiled = match cli.opts.compile(src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("psgc: {e}");
            return ExitCode::from(pipeline_exit(&e));
        }
    };
    print!(
        "{}",
        scavenger::gc_lang::bytecode::disassemble(&compiled.program, cli.opts.superinstructions)
    );
    if cli.stats_intern {
        print_intern_stats();
    }
    ExitCode::SUCCESS
}

fn cmd_run(cli: &mut Cli, src: &str, check_only: bool) -> ExitCode {
    // A recorder is only attached when some output wants it; a full event
    // log only when a trace file will be written.
    let recorder = if cli.trace.is_some() || cli.metrics {
        let rec = if cli.trace.is_some() {
            Recorder::new()
        } else {
            Recorder::metrics_only()
        };
        let shared = rec.with_meta(cli.opts.meta()).into_shared();
        let obs: SharedObserver = shared.clone();
        cli.opts.observer = Some(obs);
        Some(shared)
    } else {
        None
    };

    let compiled = match cli.opts.compile(src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("psgc: {e}");
            return ExitCode::from(pipeline_exit(&e));
        }
    };
    if let Err(e) = compiled.typecheck() {
        eprintln!("psgc: certification failed: {e}");
        return ExitCode::from(EXIT_COMPILE);
    }
    if cli.dump_bytecode {
        print!(
            "{}",
            scavenger::gc_lang::bytecode::disassemble(
                &compiled.program,
                cli.opts.superinstructions
            )
        );
    }
    if check_only {
        println!("✓ certified ({} collector)", cli.opts.collector);
        if cli.stats_intern {
            print_intern_stats();
        }
        return ExitCode::SUCCESS;
    }

    if cli.opts.supervise {
        let sup = compiled.supervise(&cli.opts);
        let code = flush_telemetry(cli, &recorder);
        warn_unfired(&sup.unfired_faults);
        return match sup.outcome {
            SupervisedOutcome::Halted(result) => {
                println!("{result}");
                if cli.stats {
                    print_machine_stats(compiled.backend(), &sup.stats);
                    eprintln!("restarts:         {}", sup.restarts);
                }
                if cli.stats_intern {
                    print_intern_stats();
                }
                code
            }
            SupervisedOutcome::Triaged(report) => {
                println!("{}", report.to_json());
                ExitCode::from(EXIT_INVARIANT)
            }
            SupervisedOutcome::GaveUp { reason } => {
                eprintln!("psgc: supervisor gave up: {reason}");
                ExitCode::from(EXIT_RUNTIME)
            }
        };
    }

    let outcome = compiled.run_with(&cli.opts);

    // Flush telemetry even on failed runs: a trace ending in
    // `fuel_exhausted` is exactly what one wants to look at.
    let code = flush_telemetry(cli, &recorder);

    match outcome {
        Ok(run) => {
            println!("{}", run.result);
            warn_unfired(&run.unfired_faults);
            if cli.stats {
                print_machine_stats(compiled.backend(), &run.stats);
            }
            if cli.stats_pages {
                let p = &run.pages;
                eprintln!("page words:       {}", p.page_words);
                eprintln!(
                    "pages:            {} allocated, {} freed, {} live (peak {})",
                    p.allocated, p.freed, p.live, p.peak_live
                );
                eprintln!("reserved words:   {}", p.reserved_words);
                eprintln!("live data words:  {}", p.live_data_words);
            }
            if cli.stats_intern {
                print_intern_stats();
            }
            code
        }
        Err(e) => {
            eprintln!("psgc: {e}");
            ExitCode::from(pipeline_exit(&e))
        }
    }
}

/// Writes the trace file and prints metrics, if requested. Returns the
/// exit code so far (I/O failure downgrades an otherwise clean run).
fn flush_telemetry(
    cli: &Cli,
    recorder: &Option<std::rc::Rc<std::cell::RefCell<Recorder>>>,
) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    if let Some(rec) = recorder {
        let rec = rec.borrow();
        if let Some(path) = &cli.trace {
            if let Err(e) = std::fs::write(path, rec.to_jsonl()) {
                eprintln!("psgc: cannot write {path}: {e}");
                code = ExitCode::from(EXIT_RUNTIME);
            }
        }
        if cli.metrics {
            eprint!("{}", rec.metrics);
        }
    }
    code
}

/// Warns about `--inject` plans that never fired.
fn warn_unfired(faults: &[FaultPlan]) {
    for plan in faults {
        eprintln!(
            "psgc: warning: fault plan {plan} never fired (step past halt, or no matching site)"
        );
    }
}

/// The `--stats` block (shared by the plain and supervised run paths).
fn print_machine_stats(backend: Backend, s: &Stats) {
    eprintln!("backend:          {backend}");
    eprintln!(
        "allocations:      {} ({} words)",
        s.allocations, s.words_allocated
    );
    eprintln!("steps:            {}", s.steps);
    eprintln!("collections:      {}", s.collections);
    eprintln!("words reclaimed:  {}", s.words_reclaimed);
    eprintln!("peak live words:  {}", s.peak_data_words);
}
