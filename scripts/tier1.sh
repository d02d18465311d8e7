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
# Certification parallelizes over code blocks by default; exercise the
# serial path too so both sides of the PS_CERT_THREADS split stay green.
PS_CERT_THREADS=1 ./target/release/psgc certify --collector generational >/dev/null
PS_CERT_THREADS=4 ./target/release/psgc certify --collector generational >/dev/null
# The bytecode VM end-to-end: a program that allocates and collects under
# a tight budget, audited against Fig. 7 every 64 steps, plus the
# disassembler over the same source and its golden-file test.
tmp="$(mktemp --suffix=.lam)"
chain="$(mktemp --suffix=.lam)"
trap 'rm -f "$tmp" "$chain"' EXIT
printf 'fun build (n : int) : int * int = if0 n then (0, 0) else (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 24)' > "$tmp"
./target/release/psgc run "$tmp" --backend bytecode --verify-every 64 --budget 64 --stats >/dev/null
./target/release/psgc disasm "$tmp" >/dev/null
# Front-end depth guard: an 800-binding arithmetic `let` chain, twice the
# compile workload's, must run to exactly what the evaluator prints. The
# recursive passes overflow the stack between 900 and 1 000 bindings, so
# this keeps the depth they must reach in view.
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
# stats, metrics, page counters — on every backend. `cmp` on the whole
# observable output is the gate.
for backend in subst env bytecode; do
  plain="$(./target/release/psgc run "$tmp" --backend "$backend" --budget 64 --stats --stats-pages --metrics 2>&1)"
  audited="$(./target/release/psgc run "$tmp" --backend "$backend" --budget 64 --verify-every 1 --audit incremental --stats --stats-pages --metrics 2>&1)"
  if [ "$plain" != "$audited" ]; then
    echo "tier-1: incremental audit changed observable output on $backend" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$audited") >&2 || true
    exit 1
  fi
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
cargo test -q --test disasm_golden
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
# Rustdoc gate: every intra-doc link must resolve, so docs cannot keep
# pointing at APIs that were renamed or removed.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo fmt --check
echo "tier-1: OK"
