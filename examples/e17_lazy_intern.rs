//! E17 — lazy value interning: throughput and audit cost with
//! ids-or-thunks heap slots versus the eager-interning baseline.
//!
//! Two measurements over the E9/E14 throughput rows and the E15 audit
//! rows, interleaved best-of-5 (every configuration is timed inside the
//! same rep loop, so all samples see the same scheduler conditions):
//!
//! * **throughput** — steps/second per backend, lazy (the default) and
//!   with `--eager-intern`, plus the bytecode-over-env speedup the E14
//!   target is stated against;
//! * **audit ratio** — wall-clock of a `--verify-every 1 --audit
//!   incremental` run over the bare run (both with Ψ tracking on, as in
//!   E15), per backend.
//!
//! ```text
//! cargo run --release --example e17_lazy_intern [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` runs a single workload at 2 reps (the tier-1 wiring);
//! `--json PATH` additionally writes the machine-readable `BENCH_E17.json`
//! that `scripts/bench.sh` checks in. Byte-identity of results, stats,
//! and telemetry between lazy and eager runs is asserted by the
//! `lazy_slots` lockstep suite; this example measures only wall-clock.

use std::fmt::Write as _;
use std::time::Instant;

use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{AuditMode, Backend, Collector, Compiled, RunOptions};

/// One workload: its name, program, and the region budget it runs at.
type Case = (String, Compiled, usize);

/// Times one full run, returning (steps, seconds).
fn timed_run(
    (_, c, budget): &Case,
    backend: Backend,
    eager: bool,
    track: bool,
    every: u64,
) -> (u64, f64) {
    let opts = RunOptions::builder()
        .collector(Collector::Basic) // collector ignored by run_with
        .budget(*budget)
        .backend(backend)
        .eager_intern(eager)
        .track_types(track)
        .verify_every(every)
        .audit(AuditMode::Incremental)
        .build();
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// One measured workload row.
struct Row {
    name: String,
    steps: u64,
    /// Best steps/second per backend, lazy slots (the default).
    lazy_sps: [f64; 3],
    /// Best steps/second per backend under `--eager-intern`.
    eager_sps: [f64; 3],
    /// verify-every-1 incremental wall over bare wall, Ψ tracked, per
    /// backend (lazy slots).
    audit_ratio: [f64; 3],
}

/// Measures every configuration of one workload, reps interleaved.
fn measure(c: &Case, reps: u32) -> Row {
    let name = &c.0;
    let mut steps = 0u64;
    let mut lazy_best = [f64::INFINITY; 3];
    let mut eager_best = [f64::INFINITY; 3];
    let mut bare_tracked = [f64::INFINITY; 3];
    let mut audited = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (i, backend) in Backend::ALL.into_iter().enumerate() {
            let (s, lazy) = timed_run(c, backend, false, false, 0);
            let (se, eager) = timed_run(c, backend, true, false, 0);
            let (sb, bare) = timed_run(c, backend, false, true, 0);
            let (sa, inc) = timed_run(c, backend, false, true, 1);
            if steps == 0 {
                steps = s;
            }
            assert!(
                s == steps && se == steps && sb == steps && sa == steps,
                "{name}/{backend}: configurations disagree on step count"
            );
            lazy_best[i] = lazy_best[i].min(lazy);
            eager_best[i] = eager_best[i].min(eager);
            bare_tracked[i] = bare_tracked[i].min(bare);
            audited[i] = audited[i].min(inc);
        }
    }
    let sps = |secs: [f64; 3]| secs.map(|t| steps as f64 / t);
    Row {
        name: name.to_string(),
        steps,
        lazy_sps: sps(lazy_best),
        eager_sps: sps(eager_best),
        audit_ratio: [0, 1, 2].map(|i| audited[i] / bare_tracked[i]),
    }
}

fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    (sum / f64::from(n.max(1))).exp()
}

/// The E9/E14 throughput rows plus the E15 audit-flavor rows.
fn workloads(smoke: bool) -> Vec<Case> {
    if smoke {
        return vec![(
            "e1 tree depth 5 (gc)".to_string(),
            compile_ast(&live_tree_churn(5, 120), Collector::Basic),
            (2usize << 5) + 96,
        )];
    }
    [3u32, 5, 7, 9]
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
        .chain([4u32].iter().map(|&depth| {
            (
                format!("dag depth {depth} (forwarding)"),
                compile_ast(&live_dag_churn(depth, 15), Collector::Forwarding),
                (2usize << depth) + 96,
            )
        }))
        .chain([4u32].iter().map(|&depth| {
            (
                format!("tree depth {depth} (generational)"),
                compile_ast(&live_tree_churn(depth, 15), Collector::Generational),
                (2usize << depth) + 96,
            )
        }))
        .collect()
}

fn to_json(rows: &[Row], reps: u32) -> String {
    let names = ["subst", "env", "bytecode"];
    let trip = |xs: &[f64; 3]| {
        names
            .iter()
            .zip(xs)
            .map(|(n, x)| format!("\"{n}\": {x:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n  \"experiment\": \"E17\",\n");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let ratios = names
            .iter()
            .zip(&r.audit_ratio)
            .map(|(n, x)| format!("\"{n}\": {x:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"steps\": {}, \
             \"steps_per_sec\": {{{}}}, \
             \"eager_steps_per_sec\": {{{}}}, \
             \"audit_ratio_incremental\": {{{}}}}}",
            r.name,
            r.steps,
            trip(&r.lazy_sps),
            trip(&r.eager_sps),
            ratios
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let bc_env = geomean(rows.iter().map(|r| r.lazy_sps[2] / r.lazy_sps[1]));
    let ratio_geo: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!(
                "\"{n}\": {:.3}",
                geomean(rows.iter().map(|r| r.audit_ratio[i]))
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "  \"geomean\": {{\"bytecode_over_env\": {bc_env:.3}, \
         \"audit_ratio_incremental\": {{{}}}}}",
        ratio_geo.join(", ")
    );
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps = if smoke { 2 } else { 5 };

    println!("E17: lazy ids-or-thunks slots vs eager interning");
    println!(
        "{:<30} {:>10} {:>11} {:>11} {:>11} {:>7} {:>7} {:>7} {:>7}",
        "workload",
        "steps",
        "env st/s",
        "bc st/s",
        "bc eager",
        "bc/env",
        "x(sub)",
        "x(env)",
        "x(bc)"
    );
    let cases = workloads(smoke);
    let mut rows = Vec::new();
    for case in &cases {
        let row = measure(case, reps);
        println!(
            "{:<30} {:>10} {:>11.0} {:>11.0} {:>11.0} {:>6.1}x {:>6.2} {:>6.2} {:>6.2}",
            row.name,
            row.steps,
            row.lazy_sps[1],
            row.lazy_sps[2],
            row.eager_sps[2],
            row.lazy_sps[2] / row.lazy_sps[1],
            row.audit_ratio[0],
            row.audit_ratio[1],
            row.audit_ratio[2],
        );
        rows.push(row);
    }
    println!(
        "\ngeomean bytecode/env: {:.1}x (eager baseline {:.1}x); \
         audit ratios subst {:.2}x, env {:.2}x, bytecode {:.2}x",
        geomean(rows.iter().map(|r| r.lazy_sps[2] / r.lazy_sps[1])),
        geomean(rows.iter().map(|r| r.eager_sps[2] / r.eager_sps[1])),
        geomean(rows.iter().map(|r| r.audit_ratio[0])),
        geomean(rows.iter().map(|r| r.audit_ratio[1])),
        geomean(rows.iter().map(|r| r.audit_ratio[2])),
    );
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&rows, reps)).expect("write JSON");
        println!("wrote {path}");
    }
}
