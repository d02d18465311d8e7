//! E13 — hash-consed terms/values and parallel certification.
//!
//! Two infrastructure measurements of the interned *program* layer
//! (`gc_lang::intern` extended from tags/types to terms and values):
//!
//! 1. **Battery throughput on both backends.** The Fig. 5 substitution
//!    machine clones its continuation at every `let` and re-substitutes
//!    the whole program on every step; with interned terms a continuation
//!    "clone" is a `u32` copy and `Subst` skips any subtree whose
//!    free-variable fingerprint misses the domain, handing the same id
//!    back. The environment machine benefits on its frame loads and the
//!    resolved-control materialization. Before/after numbers live in
//!    EXPERIMENTS.md §E13 (before = the pre-refactor tree, same harness).
//!
//! 2. **Parallel certification.** Code blocks are checked under the same
//!    immutable `Ψ|cd`, so `check_program` fans them out over a scoped
//!    thread pool (`PS_CERT_THREADS`); the arenas and memos they share are
//!    read lock-free (`ChunkedSlab`/`ConcurrentInterner`), so workers do
//!    not serialize on the interning layer. This times the warm check of
//!    each collector image at 1/2/4/8 workers. On a single-core host the
//!    table can only show parity (threads time-slice); the printed
//!    `parallelism` line records what the host offered.
//!
//! ```text
//! cargo run --release --example e13_term_interning
//! ```

use std::time::Instant;

use scavenger::gc_lang::machine::{Outcome, Program};
use scavenger::gc_lang::syntax::{Dialect, Term, Value};
use scavenger::gc_lang::tyck::Checker;
use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{Backend, Collector, Compiled, RunOptions};

const REPS: u32 = 5;
/// Warm certification of one image is sub-millisecond; time it in batches
/// so the clock resolution does not dominate.
const CERT_BATCH: u32 = 50;

fn dialect(c: Collector) -> Dialect {
    match c {
        Collector::Basic => Dialect::Basic,
        Collector::Forwarding => Dialect::Forwarding,
        Collector::Generational => Dialect::Generational,
    }
}

/// The battery workloads, shared verbatim with the before-tree harness,
/// each with the region budget it runs at.
fn battery() -> Vec<(String, Compiled, usize)> {
    [3u32, 5, 7]
        .iter()
        .map(|&depth| {
            (
                format!("tree depth {depth} / basic"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic),
                (2usize << depth) + 96,
            )
        })
        .chain([(
            "dag depth 6 / forwarding".to_string(),
            compile_ast(&live_dag_churn(6, 120), Collector::Forwarding),
            128,
        )])
        .chain([(
            "tree depth 5 / generational".to_string(),
            compile_ast(&live_tree_churn(5, 120), Collector::Generational),
            160,
        )])
        .collect()
}

/// Best-of-`REPS` wall-clock of a plain (untracked) run, plus its step
/// count, on the chosen backend.
fn time_run(compiled: &Compiled, budget: usize, backend: Backend) -> (u64, f64) {
    let config = RunOptions::builder().budget(budget).build().mem_config();
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..REPS {
        let mut m = backend.load(&compiled.program, config);
        let t0 = Instant::now();
        match m.run(1_000_000_000).expect("runs") {
            Outcome::Halted(_) => {}
            other => panic!("abnormal outcome: {other:?}"),
        }
        best = best.min(t0.elapsed().as_secs_f64());
        steps = m.stats().steps;
    }
    (steps, best)
}

/// Best per-call seconds for a warm `check_program` over `CERT_BATCH`
/// calls, repeated `REPS` times, at the given worker count.
fn time_certification(program: &Program, threads: usize) -> f64 {
    std::env::set_var("PS_CERT_THREADS", threads.to_string());
    // Warm the arenas and memo tables outside the timed region.
    Checker::check_program(program).expect("collector certifies");
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..CERT_BATCH {
            Checker::check_program(program).expect("collector certifies");
        }
        best = best.min(t0.elapsed().as_secs_f64() / f64::from(CERT_BATCH));
    }
    best
}

fn main() {
    println!("E13: term/value interning and parallel certification");

    for (label, backend) in [
        ("substitution machine", Backend::Subst),
        ("environment machine", Backend::Env),
    ] {
        println!("\n-- battery runs, {label} (plain, untracked) --");
        println!(
            "{:<34} {:>8} {:>12} {:>12}",
            "workload", "steps", "wall ms", "steps/s"
        );
        for (name, compiled, budget) in &battery() {
            let (steps, secs) = time_run(compiled, *budget, backend);
            println!(
                "{name:<34} {steps:>8} {:>12.2} {:>12.0}",
                secs * 1e3,
                steps as f64 / secs
            );
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("\n-- warm check_program, scaling over PS_CERT_THREADS --");
    println!("host parallelism: {cores} core(s)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "collector", "1 (ms)", "2 (ms)", "4 (ms)", "8 (ms)", "x@4"
    );
    for c in Collector::ALL {
        let image = c.image();
        let program = Program {
            dialect: dialect(c),
            code: image.code,
            main: Term::Halt(Value::Int(0)),
        };
        let times: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| time_certification(&program, n))
            .collect();
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.2}x",
            c.to_string(),
            times[0] * 1e3,
            times[1] * 1e3,
            times[2] * 1e3,
            times[3] * 1e3,
            times[0] / times[2]
        );
    }
    std::env::remove_var("PS_CERT_THREADS");
}
