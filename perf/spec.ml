(* What the benchmark runs and what it reports: the workload table and the
   metric table. BENCHMARK.json at the repository root mirrors both. *)

type kind =
  | Stream of { payload : int; observed : bool }
      (** Long-lived per-flow sessions, one frame in flight per session. *)
  | Churn of { payload : int }
      (** Short client-server flows to a receive-only server EphID. *)

type workload = {
  name : string;
  why : string;
  kind : kind;
  probe : int;  (** ops in the probe phase (one in flight) at the reference length *)
  load : int;  (** ops in the load phase at the reference length *)
  concurrency : int;  (** ops in flight during the load phase *)
}

(* The op is a frame on the stream workloads and a flow on churn. Sizes are
   fixed in work, given for a run of [reference_seconds]; --seconds scales
   them linearly, so two commits run with the same --seconds do exactly the
   same work. *)
let reference_seconds = 12.0

let workloads =
  [
    {
      name = "bulk-1400";
      why =
        "1400 B payloads: AEAD seal/open and the packet MAC (HMAC-SHA256, \
         AES-CTR) dominate; every frame hits the EphID cache";
      kind = Stream { payload = 1400; observed = false };
      probe = 24_000;
      load = 64_000;
      concurrency = 32;
    };
    {
      name = "small-64";
      why =
        "64 B payloads: bare forwarding, where per-packet fixed costs \
         (framing, allocation, engine dispatch, lookups) weigh most";
      kind = Stream { payload = 64; observed = false };
      probe = 120_000;
      load = 320_000;
      concurrency = 32;
    };
    {
      name = "small-64-observed";
      why =
        "small-64 with metrics, spans, flight recorder and telemetry on: the \
         only workload that exercises lib/obs";
      kind = Stream { payload = 64; observed = true };
      probe = 100_000;
      load = 260_000;
      concurrency = 32;
    };
    {
      name = "churn";
      why =
        "short 0-RTT flows with per-flow EphID issue and release: control \
         plane (X25519, Ed25519, issuance) and cache invalidation";
      kind = Churn { payload = 512 };
      probe = 240;
      load = 640;
      concurrency = 16;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** allowed worsening, as a share of the baseline median *)
}

let m name unit_ better bound = { name; unit_; better; bound }

(* End-to-end metrics, measured with tracing off, each with the bound by
   which it may worsen. Bounds come from the spread (quartile distance over
   median) of ten-seed sweeps on a shared 2-vCPU VM, whose neighbours set
   the noise floor. *)
let end_to_end =
  [
    m "setup_s" "s" Lower 0.25;
    m "ops_per_s" "1/s" Higher 0.20;
    m "op_us_p50" "us" Lower 0.15;
    m "heap_peak_mb" "MB" Lower 0.10;
  ]

(* Reported but not gated: the latency tail, p99 on the stream workloads
   and p90 on churn (the highest percentile a round's probe supports).
   Each stall of the VM delays the one frame in flight; in a noisy sweep
   stalls hit more than 1% of frames and the tail's spread passed 25%, the
   largest bound allowed. *)
let ungated = [ m "op_us_tail" "us" Lower 0. ]

(* Per-layer metrics: no bound. Spans are self time per op from the traced
   probe; ledger entries are replayed in isolation on captured inputs;
   counts come from the untraced load phase. *)
let per_layer =
  let span n = m n "us/op" Lower 0. and ns n = m n "ns/call" Lower 0. in
  [
    span "host.send.us";
    span "host.connect.us";
    span "host.close.us";
    span "as_node.egress.us";
    span "as_node.transit.us";
    span "as_node.deliver.us";
    span "as_node.control.us";
    span "engine.other.us";
    ns "session.seal.ns";
    ns "session.open.ns";
    ns "pkt_auth.seal.ns";
    ns "border_router.egress.ns";
    ns "border_router.transit.ns";
    ns "border_router.ingress.ns";
    m "border_router.egress_burst.ns_per_pkt" "ns/pkt" Lower 0.;
    ns "crypto.aead.seal.ns";
    ns "crypto.aead.open.ns";
    m "crypto.sha256.ns_per_block" "ns/block" Lower 0.;
    ns "crypto.hmac_sha256.ns";
    m "crypto.aes.ns_per_block" "ns/block" Lower 0.;
    ns "ephid.parse.ns";
    ns "crypto.x25519.ns";
    ns "crypto.ed25519.sign.ns";
    ns "crypto.ed25519.verify.ns";
    ns "keys.make_ephid_keys.ns";
    ns "management.issue_direct.ns";
    ns "trust.verify_cert.ns";
    ns "session.create.ns";
    ns "engine.step.ns";
    m "border_router.cache_hit_ratio" "ratio" Higher 0.;
    m "border_router.cache_hits" "count" Higher 0.;
    m "border_router.cache_misses" "count" Lower 0.;
    m "border_router.cache_invalidations" "count" Lower 0.;
    m "border_router.drops" "count" Lower 0.;
    m "revocation.generation_per_op" "count/op" Lower 0.;
    m "management.issued_per_op" "count/op" Lower 0.;
    m "host.packets_per_op" "count/op" Lower 0.;
    m "engine.steps_per_op" "count/op" Lower 0.;
    m "network.transits_per_op" "count/op" Lower 0.;
    m "gc.minor_words_per_op" "words/op" Lower 0.;
    m "gc.promoted_words_per_op" "words/op" Lower 0.;
    m "gc.major_collections_per_1k_ops" "count/1k-op" Lower 0.;
    m "host.rpc_retries" "count" Lower 0.;
    m "host.rpc_timeouts" "count" Lower 0.;
    m "ledger.residual_frac" "ratio" Lower 0.;
    m "trace.overhead_frac" "ratio" Lower 0.;
  ]

let find_metric name =
  List.find_opt (fun (x : metric) -> x.name = name) (end_to_end @ ungated @ per_layer)
