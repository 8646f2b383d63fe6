#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments
# (see README.md). Run from anywhere; it works from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perf/main.exe
exec ./_build/default/perf/main.exe "$@"
