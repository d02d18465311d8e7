//! E12 — heap-auditor overhead: throughput with `--verify-every` disabled
//! versus sparse (every 64 steps) and exhaustive (every step) auditing.
//!
//! The auditor (`gc_lang::verify`) re-derives the Fig. 7 machine-state
//! invariants from the live heap: each audit is a full reachability walk
//! plus per-region word accounting and (under `track_types`) a Ψ
//! conformance sweep, so its cost scales with the live heap and with how
//! often it fires. Disabled is a single integer compare per step. This
//! example times identical compiled programs at `verify_every` ∈
//! {0, 64, 1} and reports the audited/bare slowdown per workload.
//!
//! ```text
//! cargo run --release --example e12_audit_overhead
//! ```

use std::time::Instant;

use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{AuditMode, Backend, Collector, Compiled, RunOptions};

/// Times one full run of `c` at the given audit interval. Ψ tracking is on
/// in all configurations so the bare run pays the same bookkeeping and the
/// difference is the audit alone. The audit strategy is pinned to the full
/// walk: E12 has always measured the exhaustive `⊢ M : Ψ` re-derivation,
/// and the incremental dirty-page auditor (now the default; measured by
/// E15) would otherwise replace it silently.
fn timed_run(c: &Compiled, budget: usize, backend: Backend, every: u64) -> (u64, f64) {
    let opts = RunOptions::builder()
        .collector(Collector::Basic) // collector ignored by run_with
        .budget(budget)
        .backend(backend)
        .track_types(true)
        .verify_every(every)
        .audit(AuditMode::Full)
        .build();
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// Best-of-n wall seconds at each audit interval, reps interleaved so all
/// three samples see the same scheduler conditions.
fn best_times(c: &Compiled, budget: usize, backend: Backend, reps: u32) -> (u64, [f64; 3]) {
    let mut best = [f64::INFINITY; 3];
    let mut steps = 0;
    for _ in 0..reps {
        for (i, every) in [0u64, 64, 1].into_iter().enumerate() {
            let (s, secs) = timed_run(c, budget, backend, every);
            if i == 0 {
                steps = s;
            } else {
                assert_eq!(s, steps, "the audit must not change the step count");
            }
            best[i] = best[i].min(secs);
        }
    }
    (steps, best)
}

fn main() {
    println!("E12: heap-auditor overhead, verify-every 0 vs 64 vs 1");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "workload", "steps", "bare ms", "n=64 ms", "n=1 ms", "x(64)", "x(1)"
    );
    // Exhaustive (n=1) auditing costs hundreds of × on the substitution
    // backend — it re-walks the whole substituted program every step — so
    // the workloads here are deliberately small; the *ratios* are what E12
    // records, and they are stable across sizes.
    let cases: Vec<(String, Compiled, usize)> = [3u32, 5]
        .iter()
        .map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / basic"),
                compile_ast(&live_tree_churn(depth, 15), Collector::Basic),
                budget,
            )
        })
        .chain([4u32].iter().map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("dag depth {depth} / forwarding"),
                compile_ast(&live_dag_churn(depth, 15), Collector::Forwarding),
                budget,
            )
        }))
        .chain([4u32].iter().map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / generational"),
                compile_ast(&live_tree_churn(depth, 15), Collector::Generational),
                budget,
            )
        }))
        .collect();
    for backend in Backend::ALL {
        let (mut geo64, mut geo1) = (0.0f64, 0.0f64);
        let mut n = 0u32;
        println!("\nbackend: {backend}");
        for (name, compiled, budget) in &cases {
            let (steps, [bare, sparse, dense]) = best_times(compiled, *budget, backend, 3);
            let (x64, x1) = (sparse / bare, dense / bare);
            geo64 += x64.ln();
            geo1 += x1.ln();
            n += 1;
            println!(
                "{name:<34} {steps:>9} {:>9.2} {:>9.2} {:>9.2} {x64:>7.2} {x1:>7.2}",
                bare * 1e3,
                sparse * 1e3,
                dense * 1e3
            );
        }
        println!(
            "geometric-mean slowdown: {:.2}x at n=64, {:.2}x at n=1",
            (geo64 / f64::from(n)).exp(),
            (geo1 / f64::from(n)).exp()
        );
    }
    println!(
        "\nThe byte-identity of audited and unaudited runs (results, Stats,\n\
         telemetry) is asserted by the battery and backend-agreement suites;\n\
         this example measures only the wall-clock cost."
    );
}
