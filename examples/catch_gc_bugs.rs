//! §2's software-engineering argument, live: inject classic GC bugs into
//! the certified basic collector and watch the λGC typechecker reject each
//! one — bugs that an untyped collector would turn into silent heap
//! corruption.
//!
//! ```text
//! cargo run --example catch_gc_bugs
//! ```

use ps_ir::Symbol;
use scavenger::gc_lang::machine::Program;
use scavenger::gc_lang::subst::Subst;
use scavenger::gc_lang::syntax::{Dialect, Region, Term, Value};
use scavenger::gc_lang::tyck::Checker;
use scavenger::Collector;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn verdict(name: &str, code: Vec<scavenger::gc_lang::syntax::CodeDef>) {
    let program = Program {
        dialect: Dialect::Basic,
        code,
        main: Term::Halt(Value::Int(0)),
    };
    match Checker::check_program(&program) {
        Ok(()) => println!("  {name:<44} ACCEPTED"),
        Err(e) => {
            let msg = e.to_string();
            let first = msg.lines().next().unwrap_or("");
            println!("  {name:<44} REJECTED ({})", &first[..first.len().min(60)]);
        }
    }
}

fn main() {
    println!("certifying collector variants under the λGC typechecker:\n");

    verdict("pristine Fig. 12 collector", Collector::Basic.image().code);

    // Bug 1: allocate the copied pair in FROM-space.
    let mut image = Collector::Basic.image();
    let blk = image
        .code
        .iter_mut()
        .find(|d| d.name == s("copypair2"))
        .unwrap();
    blk.body = Subst::one_rgn(s("r2"), Region::Var(s("r1"))).term(&blk.body);
    verdict("copy allocates in from-space", image.code);

    // Bug 2: gcend frees the TO-space instead of the from-space.
    let mut image = Collector::Basic.image();
    let blk = image
        .code
        .iter_mut()
        .find(|d| d.name == s("gcend"))
        .unwrap();
    blk.body = Subst::one_rgn(s("r2"), Region::Var(s("r1"))).term(&blk.body);
    verdict("collector frees the freshly copied data", image.code);

    // Bug 3: skip copying, hand out a from-space pointer.
    let mut image = Collector::Basic.image();
    let blk = image.code.iter_mut().find(|d| d.name == s("copy")).unwrap();
    if let Term::Typecase {
        tag,
        int_arm,
        arrow_arm,
        prod_arm,
        exist_arm,
    } = &blk.body
    {
        blk.body = Term::Typecase {
            tag: *tag,
            int_arm: *int_arm,
            arrow_arm: *arrow_arm,
            prod_arm: (prod_arm.0, prod_arm.1, *int_arm),
            exist_arm: *exist_arm,
        };
    }
    verdict("copy returns from-space pointers for pairs", image.code);

    // Not-a-bug: never freeing anything is safe (just leaky) — exactly the
    // paper's distinction between safety and completeness.
    let mut image = Collector::Basic.image();
    let blk = image
        .code
        .iter_mut()
        .find(|d| d.name == s("gcend"))
        .unwrap();
    blk.body = Term::app(
        Value::Var(s("f")),
        [],
        [Region::Var(s("r2"))],
        [Value::Var(s("y"))],
    );
    verdict("collector that never frees (leaky but safe)", image.code);

    println!("\nSafety — not completeness of reclamation — is what the types");
    println!("certify (§2.1: \"concentrate on type-safety rather than correctness\").");
}
