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
# Certification parallelizes over code blocks by default; exercise the
# serial path too so both sides of the PS_CERT_THREADS split stay green.
PS_CERT_THREADS=1 ./target/release/psgc certify --collector generational >/dev/null
PS_CERT_THREADS=4 ./target/release/psgc certify --collector generational >/dev/null
# The bytecode VM end-to-end: a program that allocates and collects under
# a tight budget, audited against Fig. 7 every 64 steps, plus the
# disassembler over the same source and its golden-file test.
tmp="$(mktemp --suffix=.lam)"
trap 'rm -f "$tmp"' EXIT
printf 'fun build (n : int) : int * int = if0 n then (0, 0) else (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 24)' > "$tmp"
./target/release/psgc run "$tmp" --backend bytecode --verify-every 64 --budget 64 --stats >/dev/null
./target/release/psgc disasm "$tmp" >/dev/null
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
# E17 perf-tracking smoke: one workload at 2 reps must run end-to-end and
# emit well-shaped JSON (the full run writes the checked-in BENCH_E17.json).
scripts/bench.sh --smoke >/dev/null
# The benchmark's exact-counter gate: `perfbench --smoke` checks one sample
# of every kind on every workload against the evaluator and compares every
# deterministic counter (steps, gc.*, pages.*, mem.*, intern.*) with
# perfbench/expected_counters.json.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace -- -D warnings
# Panic audit: the language runtime and the collectors must stay free of
# panicking escape hatches outside tests (clippy.toml relaxes the lints
# inside #[cfg(test)]).
cargo clippy -p ps-gc-lang -p ps-collectors -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
cargo fmt --check
echo "tier-1: OK"
