# Convenience targets; dune does the real work.

.PHONY: all build test bench check linkage-gate clean

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
# journal dump and the linkage grep gate.
check: linkage-gate
	dune build @all
	dune runtest
	dune exec bin/apnad.exe -- trace --loss 0.05 --drops --chrome /tmp/apna_chrome_trace.json > /dev/null
	dune exec bin/trace_check.exe /tmp/apna_chrome_trace.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick
	test -s BENCH_results.json
	dune exec bin/apnad.exe -- broker --dump /tmp/apna_broker_journal.txt > /dev/null
	test -s /tmp/apna_broker_journal.txt
	@echo "check: OK (trace smoke, all bench gates at the quick tier, linkage gate clean, BENCH_results.json written and validated)"

clean:
	dune clean
	rm -f BENCH_results.json
