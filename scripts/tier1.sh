#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   scripts/tier1.sh
#
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# The demo examples drive the library surface end to end; `cargo test`
# only compiles them, so run every one in examples/ and fail on a non-zero
# exit.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done
# Every collector image must certify.
for collector in basic forwarding generational; do
  ./target/release/psgc certify --collector "$collector" >/dev/null
done
# The bytecode VM end-to-end: a program that allocates and collects under
# a tight budget, audited against Fig. 7 every 64 steps, plus the
# disassembler over the same source (its golden-file test, one listing per
# collector, runs in `cargo test` above).
tmp="$(mktemp --suffix=.lam)"
chain="$(mktemp --suffix=.lam)"
trap 'rm -f "$tmp" "$chain"' EXIT
printf 'fun build (n : int) : int * int = if0 n then (0, 0) else (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 24)' > "$tmp"
./target/release/psgc run "$tmp" --backend bytecode --verify-every 64 --budget 64 --stats >/dev/null
./target/release/psgc disasm "$tmp" >/dev/null
# Front-end depth guard: an 800-binding arithmetic `let` chain, twice the
# compile workload's, must run to exactly what the evaluator prints. The
# recursive passes overflow the 8 MiB main stack at about 2 700 bindings
# under each collector (x86-64), so this keeps the depth they must reach
# in view.
awk 'BEGIN {
  print "let x0 = 7 in"
  for (i = 1; i <= 800; i++) {
    op = substr("+-*", i % 3 + 1, 1)
    printf "let x%d = x%d %s %d in\n", i, i - 1, op, (op == "*") ? 1 : i % 9 + 1
  }
  print "x800"
}' > "$chain"
want="$(./target/release/psgc eval "$chain")"
got="$(./target/release/psgc run "$chain")"
if [ "$got" != "$want" ]; then
  echo "tier-1: 800-binding let chain: psgc run printed '$got', psgc eval '$want'" >&2
  exit 1
fi
# The incremental (dirty-page) auditor at full blast: the same program
# audited every step must be byte-identical to the unaudited run — stdout,
# stats, metrics, page counters — on every collector × backend, without
# and with the memory typing Ψ tracked (with it, the auditor also re-checks
# each slot written since its `put` against its Ψ type, while a checkpoint
# every 16 steps shares the Ψ-bearing pages copy-on-write). Typed runs are
# also held to the full audit every 8 steps, which sends every live slot
# through the checker on every backend. `cmp` on the whole observable
# output is the gate.
for types in "" --track-types; do
  checkpoints=()
  audits=("--verify-every 1 --audit incremental")
  if [ -n "$types" ]; then
    checkpoints=(--checkpoint-every 16)
    audits+=("--verify-every 8 --audit full")
  fi
  for collector in basic forwarding generational; do
    for backend in subst env bytecode; do
      run=(./target/release/psgc run "$tmp" --collector "$collector" --backend "$backend" --budget 64 $types --stats --stats-pages --metrics)
      plain="$("${run[@]}" 2>&1)"
      for audit in "${audits[@]}"; do
        audited="$("${run[@]}" $audit "${checkpoints[@]}" 2>&1)"
        if [ "$plain" != "$audited" ]; then
          echo "tier-1: $audit changed observable output on $collector/$backend ${types:-untyped}" >&2
          diff <(printf '%s\n' "$plain") <(printf '%s\n' "$audited") >&2 || true
          exit 1
        fi
      done
    done
  done
done
# The supervisor end-to-end: inject a clobbered forwarding pointer into
# the same program under forwarding collection and let the supervisor
# restore + replay it on the oracle. The triage report on stdout must be
# byte-identical to the golden file (exact violating step included), and
# the exit code must be 4 — the invariant-violation class.
triage="$(./target/release/psgc run "$tmp" --collector forwarding --budget 64 \
  --track-types --verify-every 7 --supervise --checkpoint-every 32 \
  --inject clobber-forward@100 2>/dev/null)" && supervised_rc=0 || supervised_rc=$?
if [ "$supervised_rc" -ne 4 ]; then
  echo "tier-1: supervised fault run exited $supervised_rc, want 4" >&2
  exit 1
fi
cmp <(printf '%s\n' "$triage") tests/golden/triage_clobber_forward.json
# The benchmark's exact-counter gate: `perfbench --smoke` checks one sample
# of every kind on every workload against the evaluator and compares every
# deterministic counter (steps, gc.*, pages.*, mem.*, intern.*) with
# perfbench/expected_counters.json.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Panic audit: the language runtime and the collectors must stay free of
# panicking escape hatches outside tests (clippy.toml relaxes the lints
# inside #[cfg(test)]).
cargo clippy -p ps-gc-lang -p ps-collectors -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
# Unsafe audit: every other crate root forbids `unsafe_code`, so the
# interner's slabs in ps-ir hold the repository's only `unsafe` blocks, and
# each must state why it is sound in a `// SAFETY:` comment.
cargo clippy -p ps-ir -- -D warnings -D clippy::undocumented_unsafe_blocks
# Rustdoc gate: every intra-doc link must resolve, so docs cannot keep
# pointing at APIs that were renamed or removed.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo fmt --check
echo "tier-1: OK"
