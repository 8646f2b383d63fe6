# Convenience targets; dune does the real work.

.PHONY: all build test bench check ab flake linkage-gate recorder-gate bigint-gate scenario-gate roles-gate aes-gate mac-gate counter-gate clean

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

# No bignum in what a deployment runs: curve and scalar code runs on limbs
# (Fe25519, Scalar25519) and the SHA-2 constants are literal tables.
# Bigint lives in test/crypto as an oracle; any use of it in lib/, bin/ or
# bench/ fails.
bigint-gate:
	@violations=$$(grep -rnw 'Bigint' \
	  lib bin bench \
	  --include='*.ml' --include='*.mli' || true); \
	if [ -n "$$violations" ]; then \
	  echo "bigint-gate: Bigint used in lib/, bin/ or bench/:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "bigint-gate: OK (no Bigint in lib/, bin/ or bench/)"

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

# One implementation per role: only the RS (registry.ml) signs id_info and
# only the host (host.ml) checks it, and the NAT-mode access point runs
# Fig. 2, the RS and the MS check through Host, Registry and Management
# instead of doing their key generation, signing, kHA derivation or EphID
# decryption itself.
roles-gate:
	@violations=$$( (grep -rn 'id_info_bytes' lib \
	  --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/core/registry\.mli\?:" | grep -v "^lib/core/host\.ml:"; \
	  grep -n 'X25519\.generate\|Ed25519\.sign\|Keys\.derive_host_as\|Ephid\.parse_bytes' \
	  lib/core/access_point.ml | sed 's|^|lib/core/access_point.ml:|') || true); \
	if [ -n "$$violations" ]; then \
	  echo "roles-gate: a role implemented outside its module:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "roles-gate: OK (id_info only in Registry and Host; Access_point reuses Host, Registry and Management)"

# AES runs only the Fig. 6 EphID construction: Aes and its GCM mode, the
# EphID codec and the AS key derivation. Payload and control messages go
# through Aead (ChaCha20-Poly1305), which must not fall back on Aes or on
# an HMAC composition. (perf/ still times Aes.Ctr as a frozen primitive
# row.)
aes-gate:
	@violations=$$( (grep -rn '\bAes\.' lib --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/crypto/aes\.mli\?:" | grep -v "^lib/crypto/gcm\.mli\?:" \
	  | grep -v "^lib/core/ephid\.mli\?:" | grep -v "^lib/core/keys\.mli\?:"; \
	  grep -nw 'Aes\|Hmac' lib/crypto/aead.ml | sed 's|^|lib/crypto/aead.ml:|') || true); \
	if [ -n "$$violations" ]; then \
	  echo "aes-gate: AES outside the EphID construction, or Aead built on Aes/Hmac:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "aes-gate: OK (Aes only in aes, gcm, ephid and keys; Aead names neither Aes nor Hmac)"

# The packet MAC is hash-then-PRF (Poly1305 and ChaCha20): no SHA-256 or
# HMAC on the per-packet path, from the host's seal through the border
# router's check. Hmac stays for HKDF, the DRBG, the broker, Path_proof
# and the AA's batch MAC.
mac-gate:
	@violations=$$(grep -nw 'Hmac\|Sha256' \
	  lib/core/pkt_auth.ml lib/core/border_router.ml lib/core/host.ml || true); \
	if [ -n "$$violations" ]; then \
	  echo "mac-gate: HMAC or SHA-256 on the packet path:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "mac-gate: OK (no Hmac or Sha256 in pkt_auth, border_router or host)"

# One counting concept: a role counts in its own record of plain ints and
# the metrics registry reads it (Counter.register_fn / Gauge.register_fn).
# No pushed counter or gauge in lib/ outside lib/obs, and `M.enabled` only
# at the opt-in sites listed below, which do extra work while the registry
# is enabled:
#   - border_router.ml: the allocs-per-packet measurement (two Gc reads per
#     burst), which E17's observed gate reads.
# (Histograms, Tally registrations and pushed series check the flag inside
# lib/obs.)
COUNTER_GATE_ALLOW = ^lib/core/border_router\.ml:[0-9]+:  let measure = M\.enabled M\.default in$$
counter-gate:
	@violations=$$( (grep -rnE '\b(Counter\.incr|Gauge\.set|Gauge\.add)\b' lib \
	  --include='*.ml' --include='*.mli' | grep -v "^lib/obs/"; \
	  grep -rnE '\b(M|Metrics)\.enabled\b' lib --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/obs/" | grep -vE '$(COUNTER_GATE_ALLOW)') || true); \
	if [ -n "$$violations" ]; then \
	  echo "counter-gate: a pushed metric or an enabled check outside lib/obs:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "counter-gate: OK (lib/ counts in role records; the registry reads them)"

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
# journal dump and the linkage, recorder, bigint, scenario, roles, aes, mac
# and counter grep gates.
check: linkage-gate recorder-gate bigint-gate scenario-gate roles-gate aes-gate mac-gate counter-gate
	dune build @all
	dune runtest
	dune exec bin/apnad.exe -- trace --loss 0.05 --drops --chrome /tmp/apna_chrome_trace.json > /dev/null
	dune exec bin/trace_check.exe /tmp/apna_chrome_trace.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick
	test -s BENCH_results.json
	dune exec bin/apnad.exe -- broker --dump /tmp/apna_broker_journal.txt > /dev/null
	test -s /tmp/apna_broker_journal.txt
	@echo "check: OK (trace smoke, all bench gates at the quick tier, linkage, recorder, bigint (no Bigint outside test/), scenario, roles, aes, mac and counter gates clean, BENCH_results.json written and validated)"

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

# Flake runner: reruns one named check N times in a `git archive` copy of
# REV (default HEAD) and prints the failure count and each failing reading.
#   make flake CHECK=smoke|test:NAME|bench:ID [N=10] [REV=HEAD]
flake:
	@if [ -z "$(CHECK)" ]; then \
	  echo "usage: make flake CHECK=smoke|test:NAME|bench:ID [N=10] [REV=HEAD]"; exit 2; fi
	@bash bench/flake.sh $(N) $(CHECK) $(if $(REV),$(REV),HEAD)

clean:
	dune clean
	rm -f BENCH_results.json
