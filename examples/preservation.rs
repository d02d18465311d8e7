//! Watching Proposition 6.4 happen: run a program one machine step at a
//! time, re-checking `⊢ (M, e)` after every step, straight through a
//! collection. Prints a compact trace of what the machine is doing.
//!
//! ```text
//! cargo run --example preservation
//! ```

use scavenger::gc_lang::machine::{Machine, StepOutcome, SubstMachine};
use scavenger::gc_lang::wf::{check_state, WfOptions};
use scavenger::{Collector, PipelineError, RunOptions};

const SRC: &str =
    "fun f (n : int) : int = if0 n then 42 else (let p = (n, n) in snd p - n + f (n - 1))\n f 8";

fn main() -> Result<(), PipelineError> {
    let opts = RunOptions::builder()
        .collector(Collector::Basic)
        .budget(32)
        .track_types(true)
        .build();
    let compiled = opts.compile(SRC)?;
    compiled.typecheck()?;
    // `check_state` reads the substitution machine's closed term.
    let mut machine = SubstMachine::load(&compiled.program, opts.mem_config());
    let mut step = 0u64;
    let mut checked = 0u64;
    loop {
        match machine.step().expect("progress (Prop. 6.5)") {
            StepOutcome::Halted(n) => {
                println!(
                    "halted with {n} after {step} steps; {checked} states re-checked well formed"
                );
                assert_eq!(n, 42);
                break;
            }
            StepOutcome::Continue => {
                check_state(&machine, WfOptions::default())
                    .unwrap_or_else(|e| panic!("preservation violated at step {step}: {e}"));
                checked += 1;
                if step.is_multiple_of(200) {
                    println!(
                        "step {step:>5}: live {:>4} words in {} regions, {} collections so far",
                        machine.memory().data_words(),
                        machine.memory().region_names().count() - 1,
                        machine.stats().collections
                    );
                }
            }
        }
        step += 1;
    }
    println!(
        "collections: {}, words reclaimed: {}",
        machine.stats().collections,
        machine.stats().words_reclaimed
    );
    Ok(())
}
