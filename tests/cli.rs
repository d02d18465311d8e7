//! End-to-end tests of the `psgc` binary: generated help, the exit-code
//! contract, and the `--trace`/`--metrics` telemetry outputs for every
//! collector × backend combination.

use std::path::PathBuf;
use std::process::{Command, Output};

use scavenger::telemetry::validate_jsonl_trace;
use scavenger::{Backend, Collector};

mod common;
use common::Scratch;

const PROGRAM: &str = "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10";

fn psgc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psgc"))
        .args(args)
        .output()
        .expect("psgc runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("psgc exited normally")
}

#[test]
fn help_is_generated_from_the_flag_and_command_tables() {
    let out = psgc(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let help = String::from_utf8(out.stdout).unwrap();
    for cmd in ["run", "check", "certify", "eval", "disasm"] {
        assert!(help.contains(cmd), "help must list command {cmd}: {help}");
    }
    for flag in [
        "--collector",
        "--backend",
        "--budget",
        "--growth",
        "--fuel",
        "--track-types",
        "--verify-every",
        "--audit",
        "--inject",
        "--max-heap-words",
        "--page-words",
        "--eager-intern",
        "--trace",
        "--metrics",
        "--sample",
        "--stats",
        "--stats-intern",
        "--stats-pages",
        "--supervise",
        "--checkpoint-every",
        "--timeout-ms",
    ] {
        assert!(help.contains(flag), "help must list flag {flag}: {help}");
    }
    // The alternatives come from the library enums, not hand-written text.
    for c in Collector::ALL {
        assert!(help.contains(c.name()), "help must name collector {c}");
    }
    assert!(help.contains("subst|env|bytecode"));
    assert!(help.contains("fixed|adaptive"));
    assert!(help.contains("incremental|full"));
}

#[test]
fn page_words_above_the_maximum_is_a_usage_error() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write(
        "page_words.lam",
        "fun build (n : int) : int * int = if0 n then (0, 0) else (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 24)",
    );
    let prog = prog.to_str().unwrap();
    let run = |words: &str| psgc(&["run", prog, "--budget", "64", "--page-words", words]);
    // The largest page size runs the program like the default does.
    for words in ["512", "65536"] {
        let ok = run(words);
        assert_eq!(exit_code(&ok), 0, "{ok:?}");
        assert_eq!(String::from_utf8_lossy(&ok.stdout).trim(), "300");
    }
    // Past it, 2^28 words would allocate 17 GB of slot arrays and 2^33
    // words would shift page ordinals out of the `u32` location: usage
    // errors, not an abort or a runtime error on a correct program.
    for words in ["65537", "268435456", "8589934592", "18446744073709551615"] {
        let out = run(words);
        assert_eq!(exit_code(&out), 2, "--page-words {words}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("largest page size"),
            "{out:?}"
        );
    }
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("exit_codes.lam", PROGRAM);
    let prog = prog.to_str().unwrap();

    // 0: success.
    let ok = psgc(&["run", prog]);
    assert_eq!(exit_code(&ok), 0, "{ok:?}");
    assert_eq!(String::from_utf8_lossy(&ok.stdout).trim(), "3628800");

    // 2: usage errors — unknown command, unknown flag, bad flag value,
    // missing value, missing file.
    assert_eq!(exit_code(&psgc(&[])), 2);
    assert_eq!(exit_code(&psgc(&["frobnicate"])), 2);
    assert_eq!(exit_code(&psgc(&["run", prog, "--no-such-flag"])), 2);
    assert_eq!(
        exit_code(&psgc(&["run", prog, "--collector", "marksweep"])),
        2
    );
    assert_eq!(exit_code(&psgc(&["run", prog, "--budget", "many"])), 2);
    assert_eq!(exit_code(&psgc(&["run", prog, "--budget"])), 2);
    assert_eq!(exit_code(&psgc(&["run"])), 2);

    // 3: compile/typecheck failures.
    let bad = dir.write("ill_formed.lam", "fun (");
    assert_eq!(exit_code(&psgc(&["run", bad.to_str().unwrap()])), 3);
    let ill = dir.write("ill_typed.lam", "(1, 2) + 3");
    assert_eq!(exit_code(&psgc(&["run", ill.to_str().unwrap()])), 3);
    assert_eq!(exit_code(&psgc(&["eval", bad.to_str().unwrap()])), 3);

    // 1: runtime failures — fuel exhaustion, unreadable file, typed OOM.
    assert_eq!(exit_code(&psgc(&["run", prog, "--fuel", "10"])), 1);
    assert_eq!(exit_code(&psgc(&["run", "/nonexistent/psgc-test.lam"])), 1);
    let oom = psgc(&["run", prog, "--max-heap-words", "8"]);
    assert_eq!(exit_code(&oom), 1, "{oom:?}");
    assert!(
        String::from_utf8_lossy(&oom.stderr).contains("out of memory"),
        "{oom:?}"
    );

    // 2: malformed --inject specs are usage errors with context.
    assert_eq!(
        exit_code(&psgc(&["run", prog, "--inject", "rot-bits@5"])),
        2
    );
    assert_eq!(exit_code(&psgc(&["run", prog, "--inject", "flip-tag"])), 2);

    // 4: an injected fault caught by the per-step audit.
    let hit = psgc(&[
        "run",
        prog,
        "--track-types",
        "--verify-every",
        "1",
        "--inject",
        "flip-tag@20:1",
    ]);
    assert_eq!(exit_code(&hit), 4, "{hit:?}");
    assert!(
        String::from_utf8_lossy(&hit.stderr).contains("heap invariant violated"),
        "{hit:?}"
    );
}

/// Nesting past the parser's budget is a parse error, not a stack
/// overflow: 50 000 parentheses around an expression or a type exit 3 on
/// every command that parses source.
#[test]
fn deep_parentheses_are_a_parse_error() {
    let dir = Scratch::new("psgc-cli");
    let (open, close) = ("(".repeat(50_000), ")".repeat(50_000));
    let expr = dir.write("deep_expr.lam", &format!("{open}1{close}"));
    let ty = dir.write(
        "deep_ty.lam",
        &format!("fun f (x : {open}int{close}) : int = x\n f 1"),
    );
    for prog in [expr, ty] {
        let prog = prog.to_str().unwrap();
        for cmd in ["run", "check", "eval"] {
            let out = psgc(&[cmd, prog]);
            assert_eq!(exit_code(&out), 3, "{cmd} {prog}: {out:?}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("parentheses nested more than"),
                "{cmd} {prog}: {out:?}"
            );
        }
    }
}

#[test]
fn every_fault_spec_round_trips_through_the_cli_to_exit_code_4() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("inject_matrix.lam", PROGRAM);
    let prog = prog.to_str().unwrap();
    for kind in ps_gc_lang::faults::FaultKind::ALL {
        let plan = ps_gc_lang::faults::FaultPlan {
            kind,
            step: 20,
            seed: 3,
        };
        let out = psgc(&[
            "run",
            prog,
            "--budget",
            "64",
            "--track-types",
            "--verify-every",
            "1",
            "--inject",
            &plan.to_spec(),
        ]);
        assert_eq!(exit_code(&out), 4, "{kind}: {out:?}");
    }
}

#[test]
fn supervised_injection_prints_a_triage_report_and_exits_4() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("supervised_triage.lam", PROGRAM);
    let out = psgc(&[
        "run",
        prog.to_str().unwrap(),
        "--budget",
        "64",
        "--track-types",
        "--verify-every",
        "7",
        "--supervise",
        "--checkpoint-every",
        "4",
        "--inject",
        "underflow-budget@20:1",
    ]);
    assert_eq!(exit_code(&out), 4, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The report is the *only* stdout: one JSON object, machine-parseable.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with("{\"report\":\"triage\""), "{stdout}");
    assert!(
        stdout.contains("\"guess\":\"underflow-budget\""),
        "{stdout}"
    );
}

#[test]
fn multi_fault_specs_parse_and_unfired_plans_warn() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("multi_fault.lam", PROGRAM);
    let prog = prog.to_str().unwrap();

    // A comma-separated spec arms every plan; a plan whose step is past
    // the halt never fires and earns a stderr warning, clean exit.
    let out = psgc(&[
        "run",
        prog,
        "--inject",
        "flip-tag@900000:1,clobber-forward@990000:2",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("warning: fault plan flip-tag@900000:1 never fired"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: fault plan clobber-forward@990000:2 never fired"),
        "{stderr}"
    );

    // A malformed element anywhere in the list is a usage error.
    assert_eq!(
        exit_code(&psgc(&[
            "run",
            prog,
            "--inject",
            "flip-tag@20:1,rot-bits@5"
        ])),
        2
    );

    // The supervised path warns too (the battery program halts cleanly).
    let out = psgc(&["run", prog, "--supervise", "--inject", "flip-tag@900000:1"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("never fired"),
        "{out:?}"
    );
}

#[test]
fn trace_is_written_when_the_audit_catches_an_injected_fault() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("violation_trace.lam", PROGRAM);
    let trace_path = dir.path("violation_trace.jsonl");
    let out = psgc(&[
        "run",
        prog.to_str().unwrap(),
        "--track-types",
        "--verify-every",
        "1",
        "--inject",
        "truncate-tuple@20:1",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 4, "{out:?}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let summary = validate_jsonl_trace(&trace).expect("trace validates");
    assert_eq!(summary.count("invariant_violation"), 1);
    assert_eq!(summary.count("halt"), 0);
}

#[test]
fn trace_is_written_when_the_heap_cap_is_hit() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("oom_trace.lam", PROGRAM);
    let trace_path = dir.path("oom_trace.jsonl");
    let out = psgc(&[
        "run",
        prog.to_str().unwrap(),
        "--max-heap-words",
        "8",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let summary = validate_jsonl_trace(&trace).expect("trace validates");
    assert_eq!(summary.count("oom"), 1);
    assert_eq!(summary.count("halt"), 0);
}

#[test]
fn trace_and_metrics_for_every_collector_backend_combination() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("trace_matrix.lam", PROGRAM);
    let prog = prog.to_str().unwrap();
    for collector in Collector::ALL {
        for backend in Backend::ALL {
            let trace_path = dir.path(&format!("trace-{collector}-{backend}.jsonl"));
            let out = psgc(&[
                "run",
                prog,
                "--collector",
                &collector.to_string(),
                "--backend",
                &backend.to_string(),
                "--budget",
                "96",
                "--trace",
                trace_path.to_str().unwrap(),
                "--metrics",
                "--sample",
                "100",
            ]);
            assert_eq!(exit_code(&out), 0, "{collector}/{backend}: {out:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout).trim(),
                "3628800",
                "{collector}/{backend}"
            );
            // --metrics prints the aggregate block to stderr.
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("collections:"), "{collector}/{backend}: {err}");
            assert!(err.contains("copy sizes"), "{collector}/{backend}: {err}");

            // The trace file validates against the schema and shows a
            // complete, collector-consistent event stream.
            let trace = std::fs::read_to_string(&trace_path).expect("trace written");
            let summary = validate_jsonl_trace(&trace)
                .unwrap_or_else(|e| panic!("{collector}/{backend}: {e}"));
            assert_eq!(summary.count("meta"), 1, "{collector}/{backend}");
            assert_eq!(summary.count("summary"), 1, "{collector}/{backend}");
            assert_eq!(summary.count("halt"), 1, "{collector}/{backend}");
            assert!(summary.count("gc_begin") > 0, "{collector}/{backend}");
            assert_eq!(
                summary.count("gc_begin"),
                summary.count("gc_end"),
                "{collector}/{backend}: collections must balance"
            );
            assert!(summary.count("copy") > 0, "{collector}/{backend}");
            assert!(summary.count("step") > 0, "{collector}/{backend}");
            let meta_line = trace.lines().next().unwrap();
            assert!(
                meta_line.contains(&format!("\"collector\":\"{collector}\""))
                    && meta_line.contains(&format!("\"backend\":\"{backend}\"")),
                "{collector}/{backend}: {meta_line}"
            );
            // `promoted` marks copies into regions that predate the
            // collection. Basic copies only into its fresh to-space;
            // forwarding first puts the root package into the (full)
            // from-region before widening — exactly one such copy per
            // collection; generational promotes many survivors into the
            // old region.
            let promoted = trace
                .lines()
                .filter(|l| l.contains("\"promoted\":true"))
                .count();
            match collector {
                Collector::Basic => assert_eq!(promoted, 0, "basic has no old regions"),
                Collector::Forwarding => assert_eq!(
                    promoted,
                    summary.count("gc_begin"),
                    "forwarding puts one root into the from-region per collection"
                ),
                Collector::Generational => {
                    assert!(promoted > 0, "generational minor GCs must promote");
                }
            }
        }
    }
}

#[test]
fn trace_is_written_even_when_the_run_exhausts_fuel() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("fuel_trace.lam", PROGRAM);
    let trace_path = dir.path("fuel_trace.jsonl");
    let out = psgc(&[
        "run",
        prog.to_str().unwrap(),
        "--fuel",
        "50",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1);
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let summary = validate_jsonl_trace(&trace).expect("trace validates");
    assert_eq!(summary.count("fuel_exhausted"), 1);
    assert_eq!(summary.count("halt"), 0);
}

#[test]
fn stats_intern_reports_interner_occupancy() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("stats_intern.lam", PROGRAM);
    let out = psgc(&["run", prog.to_str().unwrap(), "--stats-intern"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("intern:"),
        "missing report header: {stderr}"
    );
    for row in [
        "tag nodes",
        "ty nodes",
        "term nodes",
        "val nodes",
        "tag norm memo",
        "ty norm memo",
        "tag canon memo",
        "ty canon memo",
        "tag fv memo",
        "ty fv memo",
        "term fv memo",
        "val fv memo",
        "term skips",
        "val skips",
    ] {
        assert!(stderr.contains(row), "missing row {row:?}: {stderr}");
    }
    // Compiling and certifying any program interns nodes and records hits.
    for prefix in ["tag nodes", "term nodes"] {
        let row = stderr.lines().find(|l| l.starts_with(prefix)).unwrap();
        let nodes: u64 = row
            .split_whitespace()
            .nth(2)
            .and_then(|w| w.parse().ok())
            .expect("node count parses");
        assert!(nodes > 0, "interner must be populated: {row}");
        assert!(row.contains("(hits "), "hit counter missing: {row}");
    }
}

#[test]
fn stats_intern_reports_lazy_slot_counters() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("stats_intern_lazy.lam", PROGRAM);
    let prog = prog.to_str().unwrap();
    let grab = |stderr: &str, label: &str| -> u64 {
        stderr
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("numeric {label:?} row expected in: {stderr}"))
    };
    for backend in ["env", "bytecode"] {
        let out = psgc(&["run", prog, "--backend", backend, "--stats-intern"]);
        assert_eq!(exit_code(&out), 0, "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for row in [
            "lazy deferred",
            "lazy forced",
            "lazy backfill",
            "lazy skipped",
        ] {
            assert!(stderr.contains(row), "missing row {row:?}: {stderr}");
        }
        let deferred = grab(&stderr, "lazy deferred");
        let forced = grab(&stderr, "lazy forced");
        let backfilled = grab(&stderr, "lazy backfill");
        let skipped = grab(&stderr, "lazy skipped");
        // The counters must sum consistently: every backfill is a force,
        // and every deferred slot is backfilled at most once, skipped, or
        // still live as a thunk.
        assert!(deferred > 0, "{backend}: the run must defer some slots");
        assert!(
            forced >= backfilled,
            "{backend}: {forced} forces < {backfilled} backfills"
        );
        assert!(
            backfilled + skipped <= deferred,
            "{backend}: {backfilled} backfills + {skipped} skips > {deferred} deferred"
        );

        // `--eager-intern` turns the representation off entirely.
        let out = psgc(&[
            "run",
            prog,
            "--backend",
            backend,
            "--eager-intern",
            "--stats-intern",
        ]);
        assert_eq!(exit_code(&out), 0, "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for label in [
            "lazy deferred",
            "lazy forced",
            "lazy backfill",
            "lazy skipped",
        ] {
            assert_eq!(
                grab(&stderr, label),
                0,
                "{backend}: {label} must be zero under --eager-intern"
            );
        }
    }
}

#[test]
fn stats_pages_reports_the_page_store() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("stats_pages.lam", PROGRAM);
    let out = psgc(&["run", prog.to_str().unwrap(), "--stats-pages"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for row in [
        "page words:",
        "pages:",
        "reserved words:",
        "live data words:",
    ] {
        assert!(stderr.contains(row), "missing row {row:?}: {stderr}");
    }
    let pages_row = stderr.lines().find(|l| l.starts_with("pages:")).unwrap();
    let allocated: u64 = pages_row
        .split_whitespace()
        .nth(1)
        .and_then(|w| w.parse().ok())
        .expect("allocated count parses");
    assert!(allocated > 0, "a run must allocate pages: {pages_row}");
}

#[test]
fn audit_mode_never_changes_observable_output() {
    // The incremental (default) and full audit strategies must agree on
    // everything the user can see: result, stats, metrics, and the whole
    // telemetry stream — on clean runs and on runs that catch a fault.
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("audit_modes.lam", PROGRAM);
    let prog = prog.to_str().unwrap();
    let run = |audit: &str, inject: Option<&str>, trace: &PathBuf| {
        let mut args = vec![
            "run",
            prog,
            "--track-types",
            "--verify-every",
            "1",
            "--audit",
            audit,
            "--stats",
            "--stats-pages",
            "--metrics",
            "--trace",
        ];
        let t = trace.to_str().unwrap();
        args.push(t);
        if let Some(spec) = inject {
            args.push("--inject");
            args.push(spec);
        }
        psgc(&args)
    };
    // Clean run: everything must be byte-identical.
    let trace_inc = dir.path("audit_inc.jsonl");
    let trace_full = dir.path("audit_full.jsonl");
    let inc = run("incremental", None, &trace_inc);
    let full = run("full", None, &trace_full);
    assert_eq!(exit_code(&inc), 0, "{inc:?}");
    assert_eq!(exit_code(&full), 0, "{full:?}");
    assert_eq!(inc.stdout, full.stdout, "results must agree");
    assert_eq!(
        inc.stderr, full.stderr,
        "stats/metrics/diagnostics must be byte-identical"
    );
    let a = std::fs::read(&trace_inc).expect("incremental trace");
    let b = std::fs::read(&trace_full).expect("full trace");
    assert_eq!(a, b, "traces must be byte-identical");

    // Fault runs: both modes must catch the fault at the same step (the
    // detail wording may differ — page-level vs region-level diagnosis).
    let violation_step = |trace: &PathBuf| {
        let text = std::fs::read_to_string(trace).expect("trace readable");
        let line = text
            .lines()
            .find(|l| l.contains("\"event\":\"invariant_violation\""))
            .expect("violation recorded")
            .to_string();
        let step = line
            .split("\"step\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .expect("step field");
        step.parse::<u64>().expect("step parses")
    };
    for inject in ["truncate-tuple@20:1", "stale-page-header@20:1"] {
        let trace_inc = dir.path("audit_inc_fault.jsonl");
        let trace_full = dir.path("audit_full_fault.jsonl");
        let inc = run("incremental", Some(inject), &trace_inc);
        let full = run("full", Some(inject), &trace_full);
        assert_eq!(exit_code(&inc), 4, "{inject}: {inc:?}");
        assert_eq!(exit_code(&full), 4, "{inject}: {full:?}");
        assert_eq!(
            violation_step(&trace_inc),
            violation_step(&trace_full),
            "{inject}: both audit modes must catch the fault at the same step"
        );
    }
}

/// Certification checks code blocks in block order on the calling thread,
/// and nothing else in a run depends on scheduling or hash seeds: two runs
/// of one program print byte-identical output and traces.
#[test]
fn certification_thread_count_never_changes_observable_output() {
    let dir = Scratch::new("psgc-cli");
    let prog = dir.write("repeat_run.lam", PROGRAM);
    let run = |trace: &PathBuf| {
        psgc(&[
            "run",
            prog.to_str().unwrap(),
            "--stats",
            "--metrics",
            "--trace",
            trace.to_str().unwrap(),
        ])
    };
    let trace_a = dir.path("repeat_run_a.jsonl");
    let trace_b = dir.path("repeat_run_b.jsonl");
    let a = run(&trace_a);
    let b = run(&trace_b);
    assert_eq!(exit_code(&a), 0);
    assert_eq!(exit_code(&b), 0);
    assert_eq!(a.stdout, b.stdout, "stats/metrics must be byte-identical");
    assert_eq!(a.stderr, b.stderr, "diagnostics must be byte-identical");
    let a = std::fs::read(&trace_a).expect("first trace");
    let b = std::fs::read(&trace_b).expect("second trace");
    assert_eq!(a, b, "telemetry event stream must be byte-identical");
}
