//! Every intermediate representation of the pipeline, printed: source,
//! CPS'd source, λCLOS (§3), and the final λGC program (Fig. 3's image)
//! with the collector it links against.
//!
//! ```text
//! cargo run --example stages
//! cargo run --example stages -- "let x = (1, 2) in fst x + snd x"
//! ```

use scavenger::{Collector, PipelineError, RunOptions};

const DEFAULT: &str = "fun double (x : int) : int = x + x\n double (double 10) + 2";

fn main() -> Result<(), PipelineError> {
    let src = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT.to_string());

    println!("══ 1. source ══════════════════════════════════════════\n{src}\n");

    let parsed = scavenger::lambda::parse::parse_program(&src).map_err(PipelineError::Parse)?;
    scavenger::lambda::typecheck::check_program(&parsed).map_err(PipelineError::SourceType)?;
    let oracle = scavenger::lambda::eval::run_program(&parsed, 10_000_000)
        .expect("terminating source program");

    let cps = scavenger::clos::cps::cps_program(&parsed).map_err(PipelineError::Cps)?;
    println!("══ 2. after CPS conversion (still source syntax) ══════");
    println!("{}\n", scavenger::lambda::print::program(&cps));

    let clos = scavenger::clos::cc::cc_program(&cps).map_err(PipelineError::Cc)?;
    println!("══ 3. λCLOS (closed CPS + existential closures, §3) ═══");
    println!("{}\n", scavenger::clos::print::program(&clos));

    let opts = RunOptions::builder()
        .collector(Collector::Basic)
        .budget(128)
        .fuel(100_000_000)
        .build();
    let compiled = opts.compile(&src)?;
    compiled.typecheck()?;
    println!("══ 4. λGC (Fig. 3 translation; collector at cd.0–cd.5) ");
    let n_collector = Collector::Basic.image().code.len();
    for (i, def) in compiled.program.code.iter().enumerate().skip(n_collector) {
        println!("-- cd.{i} --");
        println!("{}\n", scavenger::gc_lang::pretty::code_def_to_string(def));
    }
    println!("-- main --");
    println!(
        "{}\n",
        scavenger::gc_lang::pretty::term_to_string(&compiled.program.main)
    );

    let run = compiled.run_with(&opts)?;
    println!("══ 5. execution ═══════════════════════════════════════");
    println!(
        "result {} (oracle {}), {} machine steps, {} collections",
        run.result, oracle, run.stats.steps, run.stats.collections
    );
    assert_eq!(run.result, oracle);
    Ok(())
}
