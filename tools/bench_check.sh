#!/bin/sh
# Performance-regression gate: re-run every gated bench section in smoke
# mode and check it against the committed baseline BENCH_PERF.json. The
# bounds live in one place, the `gates` table in bench/main.ml; see
# doc/PERFORMANCE.md, "The regression gate". The release profile matters:
# the dev profile passes -opaque, which disables the cross-module inlining
# the allocation-free fast path depends on.
#
# Run from the repository root: sh tools/bench_check.sh

set -eu

cd "$(dirname "$0")/.."

exec dune exec --profile release bench/main.exe -- perf cache scale faults adapt par --smoke --check BENCH_PERF.json
