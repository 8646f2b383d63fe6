(* E17: batched fast path — burst vs packet-at-a-time egress at 64B
   (where per-packet overhead weighs most, the Fig. 8 worst case). The
   cached burst row is the allocation headline: steady state must run at
   ~0 GC minor words per packet, under its bench/baseline.json ceiling.
   The same burst with metrics and the flight recorder on is gated under
   the same ceiling: instrumentation must not allocate either.
   Throughput is gated within the run (burst no slower than single), as
   the median ratio of interleaved rounds, not against an absolute
   ns/pkt, which tracks the load on the machine more than the code. The
   Mpps column is modelled (Fixtures.mpps_modelled_16core). *)

open Apna
open Harness
open Fixtures
module M = Apna_obs.Metrics
module Event = Apna_obs.Event

let frame = 64

let run tier =
  let allocs_ceiling = baseline ~id:"E17" tier "burst_cached_allocs_per_pkt" in
  let observed_ceiling =
    baseline ~id:"E17" tier "burst_cached_allocs_per_pkt_observed"
  in
  M.set_enabled M.default false;
  Event.set_enabled Event.default false;
  let n = Border_router.max_burst in
  let samples = by_tier tier ~quick:100 ~full:400 in
  let build ~cached =
    let fx = make_br_fixture ~ephid_cache:(if cached then 8192 else 0) () in
    (fx, Array.init n (fun _ -> make_packet fx ~frame))
  in
  let cached = build ~cached:true and uncached = build ~cached:false in
  let store = Border_router.Burst.create () in
  let run_single (fx, pkts) () =
    for i = 0 to n - 1 do
      egress_ok fx pkts.(i) ()
    done
  in
  let run_burst (fx, pkts) () =
    Border_router.egress_burst fx.br ~now:now0 pkts ~n store;
    for i = 0 to n - 1 do
      Option.iter
        (fun e -> failwith (Error.to_string e))
        (Border_router.Burst.error store i)
    done
  in
  (* One f () = n packets; median of monotonic batch samples, like E2's
     cache comparison. *)
  let ns_per_pkt f =
    percentile (latency_samples ~samples ~batch:4 f) 50 /. float_of_int n
  in
  let allocs_per_pkt f =
    f () (* warm: caches filled, burst store grown *);
    let rounds = by_tier tier ~quick:50 ~full:200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * n)
  in
  let rows =
    [
      ("single_cached", run_single cached);
      ("burst_cached", run_burst cached);
      ("single_uncached", run_single uncached);
      ("burst_uncached", run_burst uncached);
    ]
    |> List.map (fun (name, f) -> (name, ns_per_pkt f, allocs_per_pkt f))
  in
  line "";
  line "%dB frames, bursts of %d, p50 of %d batches (m16 = modelled 16-core):" frame n
    samples;
  line "%-16s | %10s %10s | %10s" "path" "ns/pkt" "Mpps m16" "allocs/pkt";
  line "%s" (String.make 56 '-');
  List.iter
    (fun (name, ns, a) ->
      line "%-16s | %10.0f %10.2f | %10.2f" name ns (mpps_modelled_16core ns) a)
    rows;
  let get name =
    let _, ns, a = List.find (fun (r, _, _) -> r = name) rows in
    (ns, a)
  in
  let single_cached_ns, _ = get "single_cached" in
  let burst_cached_ns, burst_cached_allocs = get "burst_cached" in
  let single_uncached_ns, _ = get "single_uncached" in
  line "";
  line "burst speedup: %.2fx vs single cached, %.2fx vs single uncached (the E2 full pipeline)"
    (single_cached_ns /. burst_cached_ns)
    (single_uncached_ns /. burst_cached_ns);
  let rounds = by_tier tier ~quick:11 ~full:21 in
  let burst_over_single =
    interleaved_ratio ~rounds ~samples:(samples / 4) ~batch:4 (run_burst cached)
      (run_single cached)
  in
  line "burst / single cached: %.3f (median of %d interleaved rounds)"
    burst_over_single rounds;
  let overflows = Border_router.arena_overflows (fst cached).br in
  line "arena overflows: %d (scratch stayed in the preallocated slots)" overflows;

  (* The cost of the instrumentation itself: the same cached burst with
     metrics and the flight recorder on. The allocs-per-packet gauge then
     holds the last of those bursts. *)
  M.set_enabled M.default true;
  Event.set_enabled Event.default true;
  let observed_allocs = allocs_per_pkt (run_burst cached) in
  let gauge_v = Border_router.allocs_per_packet (fst cached).br in
  Event.set_enabled Event.default false;
  Event.clear Event.default;
  M.set_enabled M.default false;
  line "burst_cached with metrics + recorder on: %.2f allocs/pkt" observed_allocs;
  line "gauge apna_br_allocs_per_packet after the last instrumented burst: %.1f w/pkt"
    gauge_v;
  let gates =
    [
      gate "burst_cached_allocs_per_pkt" burst_cached_allocs (At_most allocs_ceiling);
      gate "burst_cached_allocs_per_pkt_observed" observed_allocs
        (At_most observed_ceiling);
      gate "burst_over_single_cached_ns" burst_over_single (At_most 1.10);
    ]
  in
  ( J.Obj
      [
        ("frame_bytes", J.Int frame);
        ("burst_size", J.Int n);
        ( "paths",
          J.Obj
            (List.map
               (fun (name, ns, a) ->
                 ( name,
                   J.Obj
                     [
                       ("ns_per_pkt", J.Float ns);
                       ("mpps_modelled_16core", J.Float (mpps_modelled_16core ns));
                       ("allocs_per_pkt", J.Float a);
                     ] ))
               rows) );
        ("burst_cached_ns_per_pkt", J.Float burst_cached_ns);
        ("burst_cached_allocs_per_pkt", J.Float burst_cached_allocs);
        ("burst_cached_allocs_per_pkt_observed", J.Float observed_allocs);
        ("speedup_vs_single_cached", J.Float (single_cached_ns /. burst_cached_ns));
        ("speedup_vs_single_uncached", J.Float (single_uncached_ns /. burst_cached_ns));
        ("allocs_gauge_one_instrumented_burst", J.Float gauge_v);
        ("arena_overflows", J.Int overflows);
      ],
    gates )

let experiment =
  {
    id = "E17";
    title = "BURST-PIPELINE";
    paper_ref = "batched allocation-free egress (DESIGN.md, Batched fast path)";
    run;
  }
