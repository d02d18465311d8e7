//! Generational collection (§8): minor collections copy only the young
//! region and stop at references into the old generation.
//!
//! A churning workload runs under the basic and the generational
//! collectors; we print how much each collection copied. Under Fig. 11 the
//! old region is never dropped and survivors promoted to it are never
//! copied again — so per-collection copy work stays flat while the basic
//! collector re-copies the whole live heap every time.
//!
//! ```text
//! cargo run --example generations
//! ```

use scavenger::{Collector, PipelineError, RunOptions};

const SRC: &str = "fun live (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = live (n - 1) in (n + fst rest, n))\n\
    fun churn (k : int) : int = if0 k then 0 else (let junk = (k, (k, k)) in churn (k - 1))\n\
    fun main (n : int) : int = (let keep = live 12 in (let z = churn 120 in fst keep))\n\
    main 0";

fn main() -> Result<(), PipelineError> {
    for collector in [Collector::Basic, Collector::Generational] {
        let opts = RunOptions::builder()
            .collector(collector)
            .budget(128)
            .fuel(400_000_000)
            .build();
        let compiled = opts.compile(SRC)?;
        compiled.typecheck()?;
        let run = compiled.run_with(&opts)?;
        println!("== {} collector ==", collector);
        println!(
            "result: {}   collections: {}",
            run.result, run.stats.collections
        );
        for (i, ev) in run.stats.reclaim_events.iter().enumerate().take(12) {
            println!(
                "  collection {i:>2}: reclaimed {:>5} words, live (kept) {:>5} words",
                ev.words_reclaimed(),
                ev.kept_words
            );
        }
        if run.stats.reclaim_events.len() > 12 {
            println!("  … {} more", run.stats.reclaim_events.len() - 12);
        }
        println!();
    }
    println!("Note: under the generational collector the old region accumulates");
    println!("promoted survivors and is never copied by a minor collection; the");
    println!("basic collector re-copies the entire live heap every time.");
    Ok(())
}
