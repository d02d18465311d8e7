//! E10 — telemetry overhead: throughput with no observer attached versus
//! the same runs with a metrics-only `Recorder` observing every event.
//!
//! The disabled path is a single `Option::is_none()` check inside each
//! inlined hook, so a machine with no observer attached should run within
//! a couple of percent of the pre-telemetry interpreter. This example
//! measures that directly on the E9 workloads: each row times identical
//! compiled programs (a) bare, (b) with a `Recorder` in metrics-only mode,
//! and reports the enabled/disabled throughput ratio.
//!
//! ```text
//! cargo run --release --example e10_observer_overhead
//! ```

use std::time::Instant;

use scavenger::telemetry::{Recorder, SharedObserver};
use scavenger::workloads::{compile_ast, live_tree_churn};
use scavenger::{Backend, Collector, Compiled, RunOptions};

/// Times one full run at the given region budget, optionally with a
/// metrics-only recorder attached.
fn timed_run(c: &Compiled, backend: Backend, budget: usize, observe: bool) -> (u64, f64) {
    let mut opts = RunOptions::builder()
        .backend(backend)
        .budget(budget)
        .build();
    if observe {
        let obs: SharedObserver = Recorder::metrics_only().into_shared();
        opts.observer = Some(obs);
    }
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// Best-of-n steps/second bare vs observed, reps interleaved so both
/// samples see the same scheduler conditions.
fn steps_per_sec(c: &Compiled, backend: Backend, budget: usize, reps: u32) -> (u64, f64, f64) {
    let (mut best_bare, mut best_obs) = (0.0f64, 0.0f64);
    let mut steps = 0;
    for _ in 0..reps {
        let (s, secs) = timed_run(c, backend, budget, false);
        steps = s;
        best_bare = best_bare.max(s as f64 / secs);
        let (s, secs) = timed_run(c, backend, budget, true);
        assert_eq!(s, steps, "observer must not change the step count");
        best_obs = best_obs.max(s as f64 / secs);
    }
    (steps, best_bare, best_obs)
}

fn main() {
    println!("E10: observer overhead, bare vs metrics-only Recorder");
    println!(
        "{:<30} {:>10} {:>13} {:>13} {:>9}",
        "workload", "steps", "bare st/s", "observed st/s", "ratio"
    );
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
    for backend in [Backend::Env, Backend::Subst] {
        let mut geomean = 0.0f64;
        let mut n = 0u32;
        println!("\nbackend: {backend}");
        for (name, compiled, budget) in &cases {
            let (steps, bare, observed) = steps_per_sec(compiled, backend, *budget, 5);
            let ratio = observed / bare;
            geomean += ratio.ln();
            n += 1;
            println!("{name:<30} {steps:>10} {bare:>13.0} {observed:>13.0} {ratio:>8.3}");
        }
        println!(
            "geometric-mean observed/bare ratio: {:.3}",
            (geomean / f64::from(n)).exp()
        );
    }
    println!(
        "\nThe disabled-observer cost (vs the pre-telemetry build) is the E9\n\
         comparison: rerun `cargo run --release --example e9_throughput` and\n\
         compare against the recorded E9 numbers in EXPERIMENTS.md."
    );
}
