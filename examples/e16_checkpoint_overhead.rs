//! E16 — machine checkpoint overhead: wall-clock cost of the supervisor's
//! copy-on-reference snapshots as a function of the checkpoint interval.
//!
//! A checkpoint clones the BiBOP page store's image plus the resolved
//! control term, statistics, and pending fault plans into a four-deep
//! ring ([`scavenger::gc_lang::snapshot`]). The page store is a vector of
//! `Arc`-shared pages under the hood, so a clone is reference-count bumps,
//! not a heap copy — the price shows up only when a later write
//! copy-on-writes a shared page. This example measures that price: each
//! workload runs bare and at checkpoint intervals 1024, 256, and 64 (every
//! configuration also checkpoints at each GC boundary), interleaved so all
//! samples see the same scheduler conditions.
//!
//! The supervision contract asserted elsewhere (tests/snapshot_resume.rs):
//! a checkpointing run is byte-identical to a bare run — same result, same
//! Stats, same telemetry modulo `snapshot` events — and a run resumed from
//! any checkpoint into any backend reproduces the uninterrupted run
//! exactly. This example measures only the wall-clock overhead.
//!
//! ```text
//! cargo run --release --example e16_checkpoint_overhead
//! ```

use std::time::Instant;

use scavenger::workloads::{compile_ast, live_tree_churn};
use scavenger::{Backend, Collector, Compiled, RunOptions};

/// Checkpoint intervals measured against the bare run (0 = no checkpoints).
const INTERVALS: [u64; 4] = [0, 1024, 256, 64];

/// Runs per timed sample: single runs are sub-millisecond, so each sample
/// times a batch to keep scheduler noise below the effect being measured.
const BATCH: u32 = 8;

/// Times one batch of runs of `c` checkpointing every `every` steps.
fn timed_run(c: &Compiled, budget: usize, backend: Backend, every: u64) -> (u64, f64) {
    let opts = RunOptions::builder()
        .collector(Collector::Basic) // collector ignored by run_with
        .budget(budget)
        .backend(backend)
        .checkpoint_every(every)
        .build();
    let t0 = Instant::now();
    let mut steps = 0;
    for _ in 0..BATCH {
        let run = c.run_with(&opts).expect("runs");
        steps = run.stats.steps;
    }
    (steps, t0.elapsed().as_secs_f64() / f64::from(BATCH))
}

/// Best-of-n wall seconds per interval, reps interleaved.
fn best_times(c: &Compiled, budget: usize, backend: Backend, reps: u32) -> (u64, [f64; 4]) {
    let mut best = [f64::INFINITY; 4];
    let mut steps = 0;
    for _ in 0..reps {
        for (i, every) in INTERVALS.into_iter().enumerate() {
            let (s, secs) = timed_run(c, budget, backend, every);
            if i == 0 {
                steps = s;
            } else {
                assert_eq!(s, steps, "checkpointing must not change the step count");
            }
            best[i] = best[i].min(secs);
        }
    }
    (steps, best)
}

fn main() {
    println!("E16: checkpoint overhead vs interval (plus a checkpoint at every GC)");
    println!(
        "{:<34} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "workload", "steps", "bare ms", "x(1024)", "x(256)", "x(64)"
    );
    let churn = "fun churn (n : int) : int = if0 n then 0 else \
                 (let p = ((n, n), (n, n)) in fst (fst p) - n + churn (n - 1))\n \
                 churn 60";
    // Long churn counts: per-run fixed costs (machine construction, final
    // ring teardown) must amortize so the ratio reflects the steady-state
    // per-step overhead, not process setup.
    let mut cases: Vec<(String, Compiled, usize)> = [3u32, 5]
        .iter()
        .map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / basic"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic),
                budget,
            )
        })
        .chain([4u32].iter().map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / generational"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Generational),
                budget,
            )
        }))
        .collect();
    for collector in [Collector::Basic, Collector::Forwarding] {
        let compiled = RunOptions::builder()
            .collector(collector)
            .budget(64)
            .build()
            .compile(churn)
            .expect("battery churn compiles");
        cases.push((format!("battery gc-stress / {collector}"), compiled, 64));
    }
    let mut all = [0.0f64; 3];
    let mut all_n = 0u32;
    for backend in Backend::ALL {
        let mut geo = [0.0f64; 3];
        let mut n = 0u32;
        println!("\nbackend: {backend}");
        for (name, compiled, budget) in &cases {
            let (steps, [bare, x1024, x256, x64]) = best_times(compiled, *budget, backend, 5);
            let xs = [x1024 / bare, x256 / bare, x64 / bare];
            for ((g, a), x) in geo.iter_mut().zip(all.iter_mut()).zip(xs) {
                *g += x.ln();
                *a += x.ln();
            }
            n += 1;
            all_n += 1;
            println!(
                "{name:<34} {steps:>9} {:>9.2} {:>7.2} {:>7.2} {:>7.2}",
                bare * 1e3,
                xs[0],
                xs[1],
                xs[2]
            );
        }
        let gm = geo.map(|g| (g / f64::from(n)).exp());
        println!(
            "geometric-mean slowdown: {:.3}x @1024, {:.3}x @256, {:.3}x @64",
            gm[0], gm[1], gm[2]
        );
    }
    let gm = all.map(|g| (g / f64::from(all_n)).exp());
    println!(
        "\noverall geometric-mean slowdown (workloads x backends): \
         {:.3}x @1024, {:.3}x @256, {:.3}x @64",
        gm[0], gm[1], gm[2]
    );
}
