//! The certification story: print the collector the way the paper's
//! figures do, then typecheck it with the λGC typechecker — the
//! "mechanically checkable proof of safety" of §2 applied to the collector
//! itself.
//!
//! ```text
//! cargo run --example certify          # basic collector (Fig. 12)
//! cargo run --example certify -- forwarding
//! cargo run --example certify -- generational
//! ```

use scavenger::gc_lang::machine::Program;
use scavenger::gc_lang::pretty;
use scavenger::gc_lang::syntax::{Term, Value};
use scavenger::gc_lang::tyck::Checker;
use scavenger::Collector;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "basic".into());
    let collector: Collector = which.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let image = collector.image();
    println!("── the {collector} collector, as λGC code ──\n");
    for def in &image.code {
        println!("{}\n", pretty::code_def_to_string(def));
    }
    let dialect = image.dialect;
    let program = Program {
        dialect,
        code: image.code,
        main: Term::Halt(Value::Int(0)),
    };
    print!("typechecking under the {dialect} static semantics… ");
    match Checker::check_program(&program) {
        Ok(()) => println!("✓ certified"),
        Err(e) => {
            println!("✗ REJECTED\n{e}");
            std::process::exit(1);
        }
    }
}
