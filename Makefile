# Convenience targets; dune does the real work.

.PHONY: all build test bench check ab linkage-gate recorder-gate bigint-gate scenario-gate clean

# Linkage exclusivity: the privacy broker is the only sanctioned path from
# an EphID back to a host identity. Any direct Audit.bindings_of /
# Audit.find_sender caller outside lib/broker/ (and audit's own
# definition) bypasses budgets and the decision journal — fail the build.
linkage-gate:
	@violations=$$(grep -rn "Audit\.bindings_of\|Audit\.find_sender" \
	  lib bin bench examples test \
	  --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/broker/" | grep -v "^lib/core/audit\." || true); \
	if [ -n "$$violations" ]; then \
	  echo "linkage-gate: direct audit linkage outside the broker:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "linkage-gate: OK (all EphID->HID linkage goes through lib/broker)"

# One flight recorder: Apna_obs.Event is the only trace ring. lib/obs/span.ml
# survives as an alias only because perf/ (frozen by BENCHMARK.json) still
# calls Span.set_enabled; any other `Span.` use would grow a second ring.
recorder-gate:
	@violations=$$(grep -rn '\bSpan\.' \
	  lib bin bench examples test \
	  --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/obs/span\.ml:" || true); \
	if [ -n "$$violations" ]; then \
	  echo "recorder-gate: Span. used outside perf/ and lib/obs/span.ml:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "recorder-gate: OK (Event is the only flight recorder)"

# Curve and scalar code runs on limbs (Fe25519, Scalar25519). Bigint
# survives only to derive the SHA-2 round constants; any other use in
# lib/, bin/ or bench/ would put generic bignum arithmetic back on a hot
# path. Tests may still use it as an oracle.
bigint-gate:
	@violations=$$(grep -rnw 'Bigint' \
	  lib bin bench \
	  --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/crypto/bigint\.ml:" | grep -v "^lib/crypto/sha2_constants\.ml:" || true); \
	if [ -n "$$violations" ]; then \
	  echo "bigint-gate: Bigint used outside bigint.ml and sha2_constants.ml:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "bigint-gate: OK (curve and scalar arithmetic stay on limbs)"

# One way to build a world: the CLI and the benches get bootstrapped hosts
# from Apna.Scenario.host, never by calling Host.bootstrap themselves.
# (Examples may still narrate Fig. 2 with an explicit call.)
scenario-gate:
	@violations=$$(grep -rn 'Host\.bootstrap' \
	  bin bench \
	  --include='*.ml' --include='*.mli' || true); \
	if [ -n "$$violations" ]; then \
	  echo "scenario-gate: Host.bootstrap outside Apna.Scenario:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "scenario-gate: OK (bin/ and bench/ build their worlds with Apna.Scenario)"

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# CI gate: full build, every test suite, a flight-recorder smoke (apnad
# trace must export a Chrome trace that trace_check validates: a JSON
# array whose every element carries name/ph/ts), one quick-tier run of
# the benchmark harness (all 18 experiments; it exits non-zero if any
# gate fails and writes a parse-checked BENCH_results.json), a broker
# journal dump and the linkage, recorder, bigint and scenario grep gates.
check: linkage-gate recorder-gate bigint-gate scenario-gate
	dune build @all
	dune runtest
	dune exec bin/apnad.exe -- trace --loss 0.05 --drops --chrome /tmp/apna_chrome_trace.json > /dev/null
	dune exec bin/trace_check.exe /tmp/apna_chrome_trace.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick
	test -s BENCH_results.json
	dune exec bin/apnad.exe -- broker --dump /tmp/apna_broker_journal.txt > /dev/null
	test -s /tmp/apna_broker_journal.txt
	@echo "check: OK (trace smoke, all bench gates at the quick tier, linkage, recorder, bigint and scenario gates clean, BENCH_results.json written and validated)"

# A/B comparison on one BENCHMARK.json workload: N alternating pairs of
# `perf/run.sh --workload W --trace 0` runs, BASE (exported under $TMPDIR,
# default /tmp) against the working tree, with medians, quartiles, pair
# wins and the resolved/unresolved verdict per end-to-end metric.
#   make ab BASE=<rev> W=<workload> [N=10] [SEED=1] [SECONDS=12]
N ?= 10
ab:
	@if [ -z "$(BASE)" ] || [ -z "$(W)" ]; then \
	  echo "usage: make ab BASE=<rev> W=<workload> [N=10] [SEED=n] [SECONDS=s]"; exit 2; fi
	dune build bench/ab.exe
	./_build/default/bench/ab.exe --base $(BASE) --workload $(W) -n $(N) \
	  $(if $(SEED),--seed $(SEED)) $(if $(SECONDS),--seconds $(SECONDS))

clean:
	dune clean
	rm -f BENCH_results.json
