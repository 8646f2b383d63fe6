#!/usr/bin/env bash
# Flake runner: reruns one named check N times in a `git archive` copy of a
# revision and reports how often it failed, with each failing reading.
#
#   bash bench/flake.sh N CHECK [REV]
#
# CHECK is one of
#   smoke        the perf smoke (perf/main.exe --smoke), as `dune runtest` runs it
#   test:NAME    one test executable, e.g. test:test_burst (test/*/NAME.ml)
#   bench:ID     one quick-tier bench experiment, e.g. bench:E2
#
# REV defaults to HEAD; `git stash create` prints a commit that holds the
# uncommitted changes to tracked files. The copy is exported under TMPDIR
# (default /tmp) and removed on exit. Exit status: 0 when every run passed,
# 1 when some run failed, 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: bash bench/flake.sh N smoke|test:NAME|bench:ID [REV]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
n=$1
check=$2
rev=${3:-HEAD}
case $n in '' | *[!0-9]*) usage ;; esac

cd "$(dirname "$0")/.."
dir=$(mktemp -d "${TMPDIR:-/tmp}/apna-flake.XXXXXX")
trap 'rm -rf "$dir"' EXIT
git archive "$rev" | tar -x -C "$dir"

case $check in
  smoke)
    target=perf/main.exe
    args=(--smoke)
    ;;
  test:*)
    name=${check#test:}
    src=$(cd "$dir" && ls test/*/"$name".ml 2>/dev/null | head -n 1)
    [ -n "$src" ] || { echo "flake: no test/*/$name.ml at $rev" >&2; exit 2; }
    target=${src%.ml}.exe
    args=()
    ;;
  bench:*)
    target=bench/main.exe
    args=(--quick "${check#bench:}")
    ;;
  *) usage ;;
esac

dune build --root "$dir" --no-print-directory --display=quiet "./$target"
exe="$dir/_build/default/$target"

fails=0
for i in $(seq 1 "$n"); do
  if out=$(cd "$dir" && "$exe" "${args[@]}" 2>&1); then
    :
  else
    status=$?
    fails=$((fails + 1))
    echo "run $i: exit $status"
    # The failing readings: residuals outside their bound, failed gates
    # and failed test cases.
    grep -E 'outside|GATE FAIL|\[FAIL\]|[1-9][0-9]* failed' <<<"$out" | sed 's/^/  /' || true
  fi
done
echo "flake: $check failed $fails of $n runs at $(git rev-parse --short "$rev")"
[ "$fails" -eq 0 ]
