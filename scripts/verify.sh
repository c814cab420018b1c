#!/usr/bin/env sh
# The repository's verification gate. Run from anywhere:
#
#   scripts/verify.sh
#
# Steps, each of which fails the script on any error:
#   1. release build of the workspace
#   2. clippy over every target, warnings denied
#   3. rustdoc over the workspace, warnings (broken or private
#      intra-doc links) denied
#   4. the workspace test suites in debug, then in release (release
#      codegen has caught bugs the debug build hides)
#   5. `randsync gate --filter smoke`: the fail-closed property catalog
#      (Thm 3.3, Lemma 3.6, Thms 4.2/4.4, the Thm 2.1 bound and the
#      equivalence properties) plus the witness regression corpus; the
#      report must also say "passed":true
#   6. `randsync gate --filter explore-counts`: the exact raw, canonical
#      and POR configuration counts of fixed workloads (~6 s in release,
#      which is why it is not in the smoke set)
#   7. the benchmark package `rsbench` (its own manifest and lock file,
#      linking the workspace crates by path): clippy over every target,
#      warnings denied, then its tests in release; `--locked` fails on a
#      lock file that has drifted instead of rewriting it
set -eu

cd "$(dirname "$0")/.."

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test -q --workspace
cargo test -q --release --workspace

./target/release/randsync gate --filter smoke --report target/verify_gate_report.json
grep -q '"passed":true' target/verify_gate_report.json \
    || { echo "FAIL: gate report disagrees with its exit status"; exit 1; }
./target/release/randsync gate --filter explore-counts

cargo clippy --locked --manifest-path rsbench/Cargo.toml --all-targets -- -D warnings
cargo test -q --release --locked --manifest-path rsbench/Cargo.toml

echo "verify.sh: all gates passed"
