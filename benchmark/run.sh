#!/usr/bin/env bash
# Release build, the full suite and the selfcheck in one command:
#
#     benchmark/run.sh [seed]
#
# Prints to the terminal and to benchmark/out/run-<seed>.txt. The header
# records what the numbers depend on besides the code: cores, compiler,
# commit, seed and the device's append + fsync floor.
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-1}"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/relc-benchmark"
mkdir -p out
{
    echo "header nproc=$(nproc)"
    echo "header rustc=$(rustc --version)"
    echo "header commit=$(git -C .. rev-parse --short HEAD 2>/dev/null || echo unknown)"
    echo "header seed=$seed"
    echo "header $("$bin" --fsync-probe)"
    "$bin" --seed "$seed"
    "$bin" --selfcheck --seed "$seed"
} 2>&1 | tee "out/run-$seed.txt"
