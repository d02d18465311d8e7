//! Runs `perfbench --smoke`: one sample of every kind on every workload at
//! seed 1, every result checked against the evaluator, every deterministic
//! counter compared exactly with `expected_counters.json`, and the traced
//! run's span and event files validated.

use std::process::Command;

// Unoptimised frames are large enough that the recursive front end
// overflows the main thread's stack on these programs (ROADMAP item 5), and
// the benchmark measures optimised builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn smoke_counters_match_the_checked_in_ones() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "perfbench --smoke failed ({}):\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{last}"
    );
    for w in [
        "gc-tree",
        "mutator",
        "dag-forwarding",
        "gc-generational",
        "compile",
    ] {
        for file in ["spans", "events"] {
            let path = out.join("trace").join(format!("{w}.{file}.jsonl"));
            assert!(path.is_file(), "{} missing", path.display());
        }
    }
}
