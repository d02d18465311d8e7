//! E14 — bytecode VM throughput: the register-based bytecode backend
//! versus the environment machine (and the Fig. 5 substitution oracle as
//! a baseline), on the E9 workloads.
//!
//! The environment machine still walks the interned term graph at every
//! step and keeps a persistent environment spine; the bytecode VM
//! pre-resolves every variable to a register slot at compile time and
//! dispatches over a flat instruction stream, with let-spines and
//! `put`-pair allocations fused into superinstructions. This example times
//! complete runs of identical compiled programs on all three backends and
//! reports steps/second:
//!
//! ```text
//! cargo run --release --example e14_bytecode_throughput
//! ```
//!
//! Byte-identity of results, statistics, and telemetry across the
//! backends is asserted by the battery and backend-agreement suites; this
//! example measures only wall-clock throughput.

use std::time::Instant;

use scavenger::workloads::{compile_ast, live_tree_churn};
use scavenger::{Backend, Collector, Compiled, RunOptions};

/// Times one full run at the given region budget, returning (steps,
/// seconds).
fn timed_run(c: &Compiled, budget: usize, backend: Backend) -> (u64, f64) {
    let opts = RunOptions::builder()
        .collector(Collector::Basic) // collector ignored by run_with
        .budget(budget)
        .backend(backend)
        .build();
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// Best-of-n steps/second for every backend in [`Backend::ALL`], reps
/// interleaved so all samples see the same scheduler conditions.
fn steps_per_sec(c: &Compiled, budget: usize, reps: u32) -> (u64, Vec<f64>) {
    let mut best = vec![0.0f64; Backend::ALL.len()];
    let mut steps = 0u64;
    for _ in 0..reps {
        for (i, backend) in Backend::ALL.into_iter().enumerate() {
            let (s, secs) = timed_run(c, budget, backend);
            if i == 0 {
                steps = s;
            } else {
                assert_eq!(s, steps, "backends must take identical step counts");
            }
            best[i] = best[i].max(s as f64 / secs);
        }
    }
    (steps, best)
}

fn main() {
    println!("E14: steps/second, bytecode VM vs environment machine");
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>7}",
        "workload", "steps", "subst st/s", "env st/s", "bc st/s", "bc/env"
    );
    let mut geo_env = 0.0f64;
    let mut n = 0u32;
    // E1 rows: live tree of depth d with a tight budget — collection-heavy,
    // so the control term carries the whole collector continuation.
    // E4 rows: the same mutator with a large budget — mutator-dominated.
    let cases: Vec<(String, Compiled, usize)> = [3u32, 5, 7, 9]
        .iter()
        .map(|&depth| {
            (
                format!("e1 tree depth {depth} (gc)"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic),
                (2usize << depth) + 96,
            )
        })
        .chain([6u32, 8].iter().map(|&depth| {
            (
                format!("e4 tree depth {depth} (mut)"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic),
                1 << (depth + 3),
            )
        }))
        .collect();
    for (name, compiled, budget) in &cases {
        let (steps, best) = steps_per_sec(compiled, *budget, 5);
        let [subst, env, bc] = best[..] else {
            unreachable!("three backends")
        };
        let speedup = bc / env;
        geo_env += speedup.ln();
        n += 1;
        println!("{name:<26} {steps:>10} {subst:>12.0} {env:>12.0} {bc:>12.0} {speedup:>6.1}x");
    }
    println!(
        "\ngeometric-mean speedup over the environment machine: {:.1}x",
        (geo_env / f64::from(n)).exp()
    );
}
