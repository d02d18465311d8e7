//! E9 — interpreter throughput: the environment machine versus the Fig. 5
//! substitution machine, on the E1 and E4 workloads.
//!
//! The substitution machine deep-clones the whole continuation at every
//! step (O(|term|) per step); the environment machine shares it via `Rc`
//! and resolves variables lazily (O(1) per step modulo value sizes). This
//! example times complete runs of identical compiled programs on both
//! backends and reports steps/second:
//!
//! ```text
//! cargo run --release --example e9_throughput
//! ```

use std::time::Instant;

use scavenger::workloads::{compile_ast, live_tree_churn};
use scavenger::{Backend, Collector, Compiled, RunOptions};

/// Times one full run on the given backend at the given region budget,
/// returning (steps, seconds).
fn timed_run(c: &Compiled, backend: Backend, budget: usize) -> (u64, f64) {
    let opts = RunOptions::builder()
        .backend(backend)
        .budget(budget)
        .build();
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// Best-of-n steps/second for both backends, reps interleaved so the two
/// samples see the same scheduler conditions.
fn steps_per_sec(c: &Compiled, budget: usize, reps: u32) -> (u64, u64, f64, f64) {
    let (mut best_s, mut best_e) = (0.0f64, 0.0f64);
    let (mut steps_s, mut steps_e) = (0, 0);
    for _ in 0..reps {
        let (s, secs) = timed_run(c, Backend::Subst, budget);
        steps_s = s;
        best_s = best_s.max(s as f64 / secs);
        let (s, secs) = timed_run(c, Backend::Env, budget);
        steps_e = s;
        best_e = best_e.max(s as f64 / secs);
    }
    (steps_s, steps_e, best_s, best_e)
}

fn main() {
    println!("E9: steps/second, substitution machine vs environment machine");
    println!(
        "{:<26} {:>10} {:>14} {:>14} {:>9}",
        "workload", "steps", "subst st/s", "env st/s", "speedup"
    );
    let mut geomean = 0.0f64;
    let mut n = 0u32;
    // E1 rows: live tree of depth d with a tight budget — collection-heavy,
    // so the control term carries the whole collector continuation.
    // E4 row: the same mutator with a large budget — mutator-dominated.
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
        let (steps_s, steps_e, subst, env) = steps_per_sec(compiled, *budget, 5);
        assert_eq!(steps_s, steps_e, "backends must take identical step counts");
        let speedup = env / subst;
        geomean += speedup.ln();
        n += 1;
        println!("{name:<26} {steps_s:>10} {subst:>14.0} {env:>14.0} {speedup:>8.1}x");
    }
    println!(
        "\ngeometric-mean speedup: {:.1}x",
        (geomean / f64::from(n)).exp()
    );
}
