//! Quickstart: compile an ML-like program down to λGC, certify the whole
//! thing (mutator **and** collector) with the λGC typechecker, and run it
//! through real in-language collections.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use scavenger::{Collector, PipelineError, RunOptions};

const PROGRAM: &str = r#"
-- Sum the squares of 1..n, building a throwaway pair per step so the
-- heap churns and the collector has something to do.
fun sumsq (n : int) : int =
  if0 n then 0 else
  (let p = (n * n, n) in fst p + sumsq (n - 1))

sumsq 50
"#;

fn main() -> Result<(), PipelineError> {
    // A deliberately tiny region budget so `ifgc` fires often.
    let opts = RunOptions::builder()
        .collector(Collector::Basic)
        .budget(128)
        .fuel(100_000_000)
        .build();

    println!("compiling source → CPS → λCLOS → λGC (linked with the Fig. 12 collector)…");
    let compiled = opts.compile(PROGRAM)?;

    println!("typechecking the WHOLE λGC program (Definition 6.3)…");
    compiled.typecheck()?;
    println!("  ✓ certified: no trusted collector remains.");

    let run = compiled.run_with(&opts)?;
    let oracle = compiled.reference_result(1_000_000)?;
    println!(
        "result: {} (reference evaluator says {})",
        run.result, oracle
    );
    assert_eq!(run.result, oracle);

    let s = &run.stats;
    println!("machine steps:        {}", s.steps);
    println!("words allocated:      {}", s.words_allocated);
    println!("collections:          {}", s.collections);
    println!("words reclaimed:      {}", s.words_reclaimed);
    println!("peak live heap:       {} words", s.peak_data_words);
    println!("typecase dispatches:  {}", s.typecase_dispatches);
    Ok(())
}
