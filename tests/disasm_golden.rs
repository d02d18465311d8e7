//! Golden-file test for the bytecode disassembler: `psgc disasm` must
//! print a byte-stable instruction stream for two battery programs under
//! each collector, which pins the Fig. 3 translation of every dialect
//! (and its gensym'd names) along with the instruction set.
//!
//! Symbol names in the listing come from a process-global gensym counter,
//! so stability is only guaranteed per process; the test therefore goes
//! through the `psgc` binary (one fresh process per listing), exactly as a
//! user would. To regenerate after an intentional instruction-set or
//! translation change:
//!
//! ```text
//! cargo run --bin psgc -- disasm <program.lam> --collector <collector>
//! ```
//!
//! and redirect into `tests/golden/<golden>.disasm`.

use std::path::PathBuf;
use std::process::Command;

mod common;
use common::Scratch;

const FACTORIAL: &str = "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 9";

const GC_STRESS: &str = "fun churn (n : int) : int = if0 n then 0 else \
       (let p = ((n, n), (n, n)) in fst (fst p) - n + churn (n - 1))\n \
     churn 60";

/// `(golden file stem, collector, program)`.
const PROGRAMS: &[(&str, &str, &str)] = &[
    ("factorial", "basic", FACTORIAL),
    ("gc-stress", "basic", GC_STRESS),
    ("factorial-forwarding", "forwarding", FACTORIAL),
    ("gc-stress-forwarding", "forwarding", GC_STRESS),
    ("factorial-generational", "generational", FACTORIAL),
    ("gc-stress-generational", "generational", GC_STRESS),
];

fn disasm(src_path: &str, collector: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_psgc"))
        .args(["disasm", src_path, "--collector", collector])
        .output()
        .expect("psgc runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8(out.stdout).expect("disassembly is UTF-8")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.disasm"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn disassembly_matches_the_golden_files() {
    let dir = Scratch::new("psgc-disasm");
    for (name, collector, src) in PROGRAMS {
        let prog = dir.write(&format!("{name}.lam"), src);
        let prog = prog.to_str().unwrap();
        let listing = disasm(prog, collector);
        assert_eq!(
            listing,
            golden(name),
            "{name}: disassembly drifted from tests/golden/{name}.disasm \
             (regenerate with `psgc disasm` if the change is intentional)"
        );
        // A second fresh process must reproduce the listing byte-for-byte.
        assert_eq!(
            listing,
            disasm(prog, collector),
            "{name}: listing not stable"
        );
    }
}
