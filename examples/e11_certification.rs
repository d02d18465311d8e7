//! E11 — certification throughput: wall-clock of `check_program` over the
//! three collector images, and of `track_types` runs over the workload
//! battery.
//!
//! The paper's central claim is that an *ordinary typechecker* certifies
//! the collector (Fig. 6/8/10, Props. 6.3–6.5), which makes certification
//! the reproduction's hot path: every `normalize_ty`/`tag_eq` call used to
//! re-walk freshly `Rc`-cloned trees and re-run `alpha_eq` from scratch.
//! With hash-consed tags/types the same calls are id-keyed memo lookups.
//! This example measures both certification proper and the `track_types`
//! interpreter mode (which rebuilds `Ψ` entries — and, for the forwarding
//! collector, renormalizes widened tags — on the machine's fast path):
//!
//! ```text
//! cargo run --release --example e11_certification
//! ```
//!
//! Each certification row reports the first (cold, empty memo tables) call
//! and the best of `REPS` further calls; battery rows report best-of-`REPS`
//! wall-clock of a complete tracked run on the substitution machine (the
//! oracle backend that `track_types` defaults to). The before/after
//! comparison lives in EXPERIMENTS.md § E11.

use std::time::Instant;

use scavenger::gc_lang::machine::{Outcome, Program};
use scavenger::gc_lang::memory::{GrowthPolicy, MemConfig};
use scavenger::gc_lang::syntax::{Dialect, Term, Value};
use scavenger::gc_lang::tyck::Checker;
use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{Backend, Collector, Compiled};

const REPS: u32 = 5;

fn dialect(c: Collector) -> Dialect {
    match c {
        Collector::Basic => Dialect::Basic,
        Collector::Forwarding => Dialect::Forwarding,
        Collector::Generational => Dialect::Generational,
    }
}

/// `(cold seconds, best warm seconds)` for certifying one collector image.
fn time_certification(c: Collector) -> (f64, f64) {
    let image = c.image();
    let program = Program {
        dialect: dialect(c),
        code: image.code,
        main: Term::Halt(Value::Int(0)),
    };
    let t0 = Instant::now();
    Checker::check_program(&program).expect("collector certifies");
    let cold = t0.elapsed().as_secs_f64();
    let mut best = cold;
    for _ in 0..REPS {
        let t0 = Instant::now();
        Checker::check_program(&program).expect("collector certifies");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (cold, best)
}

/// Best-of-`REPS` wall-clock of a full `track_types` run, plus its step
/// count (identical across reps — the machine is deterministic).
fn time_tracked_run(compiled: &Compiled, budget: usize) -> (u64, f64) {
    let config = MemConfig {
        region_budget: budget,
        growth: GrowthPolicy::Adaptive,
        track_types: true,
        max_heap_words: None,
        page_words: 512,
    };
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..REPS {
        let mut m = Backend::Subst.load(&compiled.program, config);
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

fn main() {
    println!("E11: certification and track_types throughput");
    println!("\n-- check_program over the collector images --");
    println!("{:<16} {:>12} {:>12}", "collector", "cold ms", "warm ms");
    for c in Collector::ALL {
        let (cold, warm) = time_certification(c);
        println!(
            "{:<16} {:>12.3} {:>12.3}",
            c.to_string(),
            cold * 1e3,
            warm * 1e3
        );
    }

    println!("\n-- track_types battery runs (substitution machine) --");
    println!(
        "{:<34} {:>8} {:>12} {:>12}",
        "workload", "steps", "wall ms", "steps/s"
    );
    let cases: Vec<(String, Compiled, usize)> = [3u32, 5, 7]
        .iter()
        .map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / basic"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic),
                budget,
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
        .collect();
    for (name, compiled, budget) in &cases {
        let (steps, secs) = time_tracked_run(compiled, *budget);
        println!(
            "{name:<34} {steps:>8} {:>12.2} {:>12.0}",
            secs * 1e3,
            steps as f64 / secs
        );
    }
}
