#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): formatting, release build, the
# benchmark crate's build, the root test suite, the unit tests of the
# VM, RNG, campaign, checkpoint, evaluation and cache crates, the
# parallel-determinism integration tests, and the build of every bench
# target plus the two fast-path gates. Run from anywhere; exits non-zero
# on the first failure.
#
#   --conform   additionally run the quick conformance gate
#               (`repro conform --quick`, see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

conform=0
for arg in "$@"; do
  case "$arg" in
    --conform) conform=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: formatting (cargo fmt --check) =="
cargo fmt --all --check

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: benchmark crate builds against the library API =="
cargo build --release --manifest-path perfbench/Cargo.toml

echo "== tier-1: root test suite =="
cargo test -q

echo "== tier-1: softcore, sdc-model, toolchain, fleet, farron and analysis unit tests =="
cargo test -q --release -p softcore -p sdc-model -p toolchain -p fleet -p farron -p analysis

echo "== tier-1: parallel determinism (threads=1 vs threads=8) =="
cargo test -q --release --test parallel_determinism

echo "== tier-1: chaos determinism (storm + kill/resume) =="
cargo test -q --release --test chaos_determinism

echo "== tier-1: chaos smoke run (--quick --chaos) =="
ck="$(mktemp -u "${TMPDIR:-/tmp}/tier1-chaos-XXXXXX.json")"
./target/release/repro table1 --quick --chaos "offline=0.05,preempt=0.10,seed=7" --checkpoint "$ck"
rm -f "$ck"

echo "== tier-1: every bench target builds =="
cargo bench -q --no-run -p bench

echo "== tier-1: softcore fast-path regression gate (bench --quick) =="
cargo bench -q -p bench --bench softcore_hotpath -- --quick

echo "== tier-1: campaign executor regression gate (bench --quick) =="
cargo bench -q -p bench --bench campaign_hotpath -- --quick

echo "== tier-1: clippy (workspace) =="
cargo clippy -q --workspace -- -D warnings -D clippy::perf

if [[ "$conform" -eq 1 ]]; then
  echo "== tier-1: conformance gate (quick) =="
  ./target/release/repro conform --quick
fi

echo "tier-1: OK"
