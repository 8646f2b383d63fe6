(* E2: border router forwarding (Fig. 8). The Mpps and Gbps columns are
   modelled (Fixtures.mpps_modelled_16core), not measured. *)

open Apna
open Harness
open Fixtures
module M = Apna_obs.Metrics
module Event = Apna_obs.Event

(* The paper's testbed NICs: 6 x 2 x 10 GbE. *)
let line_gbps = 120.0

(* Summarize samples through an observability histogram registered as
   apna_bench_stage_ns{stage=...} — the same machinery `apnad stats`
   scrapes — and return the JSON fields. *)
let stage_summary_json name samples =
  let hi = 1.25 *. Array.fold_left Float.max 1.0 samples in
  let h =
    M.Histogram.register M.default
      ~labels:[ ("stage", name) ]
      ~help:"Per-stage single-packet latency sampled by the bench harness"
      ~buckets:512 ~lo:0.0 ~hi "apna_bench_stage_ns"
  in
  let was = M.enabled M.default in
  M.set_enabled M.default true;
  Array.iter (M.Histogram.observe h) samples;
  M.set_enabled M.default was;
  J.Obj
    [
      ("count", J.Int (M.Histogram.count h));
      ("mean_ns", J.Float (M.Histogram.mean h));
      ("p50_ns", J.Float (M.Histogram.percentile h 0.5));
      ("p90_ns", J.Float (M.Histogram.percentile h 0.9));
      ("p99_ns", J.Float (M.Histogram.percentile h 0.99));
    ]

(* The egress pipeline stages of Fig. 4, timed in isolation plus end to
   end: 1 EphID decrypt, host-info + route lookups, 1 MAC verify. *)
let pipeline_stages fx pkt =
  let raw = Ephid.to_bytes fx.host_ephid in
  [
    ( "ephid_parse",
      fun () ->
        match Ephid.of_bytes raw with
        | Ok e -> ignore (Ephid.parse fx.keys e)
        | Error _ -> () );
    ("host_lookup", fun () -> ignore (Host_info.find fx.host_info fx.hid));
    ( "mac_verify",
      fun () -> ignore (Pkt_auth.verify ~auth_key:fx.host_kha.auth pkt) );
    ( "route_lookup",
      fun () ->
        ignore
          (Apna_net.Topology.next_hop fx.topology ~src:fx.keys.aid
             ~dst:(Apna_net.Addr.aid_of_int 64501)) );
    ("egress_total", egress_ok fx pkt);
  ]

let run tier =
  let fx = make_br_fixture () in
  (* Baseline: plain IPv4 forwarding with a 100k-route LPM table. *)
  let baseline = Apna_baseline.Ipv4_router.create () in
  Apna_baseline.Ipv4_router.synthetic_table baseline ~seed:7L ~routes:100_000;
  Apna_baseline.Ipv4_router.add_route baseline ~prefix:0 ~len:0 ~next_hop:1;
  line "";
  line "m16 = modelled: single-core ns/pkt scaled to the paper's 16 cores";
  line "%-7s | %11s %11s | %13s %13s %9s | %13s %9s" "size" "APNA ns/pkt"
    "IPv4 ns/pkt" "APNA Mpps m16" "IPv4 Mpps m16" "line Mpps" "APNA Gbps m16"
    "line Gbps";
  line "%s" (String.make 108 '-');
  let results =
    List.map
      (fun size ->
        let apna_ns =
          time_per_op ~iters:(iters tier 20_000) (egress_ok fx (make_packet fx ~frame:size))
          *. 1e9
        in
        let ip_pkt =
          Apna_net.Ipv4_header.to_bytes
            (Apna_net.Ipv4_header.make ~protocol:17
               ~src:(Apna_net.Addr.hid_of_int 0x0a000001)
               ~dst:(Apna_net.Addr.hid_of_int 0x08080808)
               ~payload_len:(size - Apna_net.Ipv4_header.size)
               ())
          ^ String.make (size - Apna_net.Ipv4_header.size) 'x'
        in
        let ipv4_ns =
          time_per_op ~iters:(iters tier 100_000) (fun () ->
              match Apna_baseline.Ipv4_router.forward baseline ip_pkt with
              | Apna_baseline.Ipv4_router.Forwarded _ -> ()
              | Apna_baseline.Ipv4_router.Dropped e -> failwith e)
          *. 1e9
        in
        let apna_mpps = mpps_modelled_16core apna_ns in
        let line_mpps = line_gbps *. 1e9 /. (8.0 *. float_of_int size) /. 1e6 in
        let apna_gbps =
          Float.min apna_mpps line_mpps *. 1e6 *. 8.0 *. float_of_int size /. 1e9
        in
        line "%5dB | %11.0f %11.0f | %13.2f %13.2f %9.2f | %13.1f %9.1f" size
          apna_ns ipv4_ns apna_mpps (mpps_modelled_16core ipv4_ns) line_mpps apna_gbps
          line_gbps;
        (size, apna_ns, ipv4_ns, apna_mpps, apna_gbps))
      Apna_workload.Packet_mix.paper_sizes
  in
  line "";
  line "shape check (paper): pps falls as size grows; bit-rate rises with size";
  (* Every adjacent pair of sizes must keep the order, not just the first
     and last rows; the first pair that breaks it is named. *)
  let monotone name ok =
    let rec first_break = function
      | (s1, _, _, m1, g1) :: ((s2, _, _, m2, g2) :: _ as rest) ->
          if ok (m1, g1) (m2, g2) then first_break rest else Some (s1, s2)
      | _ -> None
    in
    match first_break results with
    | None -> Printf.sprintf "%s: true" name
    | Some (s1, s2) -> Printf.sprintf "%s: false (%dB -> %dB)" name s1 s2
  in
  line "  %s   %s"
    (monotone "Mpps monotone decreasing" (fun (m1, _) (m2, _) -> m2 < m1))
    (monotone "Gbps increasing" (fun (_, g1) (_, g2) -> g2 > g1));
  (* Substrate-scaled line rate: at what aggregate capacity would this
     implementation saturate the wire at every size, as the paper's
     hardware does at 120 Gbps? *)
  let min_gbps_capacity =
    List.fold_left
      (fun acc (size, _, _, mpps, _) -> Float.min acc (mpps *. 8.0 *. float_of_int size /. 1e3))
      infinity results
  in
  line "substrate-scaled line rate: with <= %.1f Gbps provisioned (m16), this"
    min_gbps_capacity;
  line "OCaml router is line-rate at every packet size (the paper's Fig. 8 regime).";

  (* Per-stage latency percentiles (the paper's 1 decrypt + 2 lookups +
     1 MAC decomposition), via the observability histograms. *)
  let pkt = make_packet fx ~frame:512 in
  let samples = by_tier tier ~quick:100 ~full:500 in
  line "";
  line "per-stage latency (512B packet, %d samples of 32-op batches):" samples;
  line "%-14s %10s %10s %10s %10s" "stage" "mean ns" "p50 ns" "p90 ns" "p99 ns";
  let stages_json =
    List.map
      (fun (name, f) ->
        let j = stage_summary_json name (latency_samples ~samples ~batch:32 f) in
        let get k = match J.member k j with Some v -> Option.get (J.number v) | None -> nan in
        line "%-14s %10.0f %10.0f %10.0f %10.0f" name (get "mean_ns")
          (get "p50_ns") (get "p90_ns") (get "p99_ns");
        (name, j))
      (pipeline_stages fx pkt)
  in

  (* The price of the observability layer: the same egress path with the
     default registry and flight recorder off (the default), with metrics
     on, then with the recorder on too. *)
  let egress = egress_ok fx pkt in
  let off_ns = time_per_op ~iters:(iters tier 20_000) egress *. 1e9 in
  M.set_enabled M.default true;
  let metrics_ns = time_per_op ~iters:(iters tier 20_000) egress *. 1e9 in
  Event.set_enabled Event.default true;
  let recorder_ns = time_per_op ~iters:(iters tier 20_000) egress *. 1e9 in
  Event.set_enabled Event.default false;
  Event.clear Event.default;
  M.set_enabled M.default false;
  let vs_off ns = (ns -. off_ns) /. off_ns *. 100.0 in
  line "";
  line "observability overhead on egress (disabled: %.0f ns/pkt):" off_ns;
  line "  metrics              %6.0f ns/pkt (%+.1f%%)" metrics_ns (vs_off metrics_ns);
  line "  metrics + recorder   %6.0f ns/pkt (%+.1f%%)" recorder_ns (vs_off recorder_ns);

  (* Validated-EphID cache: steady-state cost of a flow's 2nd..Nth packet
     (cache hit skips AES-CTR decrypt + CBC-MAC verify, the revocation-list
     probe and the host_info lookup) against the full Fig. 4 pipeline on
     the cache-disabled fixture. The saving is a fixed ~per-packet amount,
     so it weighs most at small frames where the (unavoidable, size-
     proportional) packet-MAC verify is cheapest. Medians of monotonic
     batch samples keep the comparison out of timer noise. *)
  let fxc = make_br_fixture ~ephid_cache:8192 () in
  let p50 fx frame =
    percentile (latency_samples ~samples ~batch:32 (egress_ok fx (make_packet fx ~frame))) 50
  in
  let cache_rows =
    List.map
      (fun frame ->
        let u = p50 fx frame in
        (frame, u, p50 fxc frame))
      [ 64; 512 ]
  in
  let cs = Border_router.ephid_cache_stats fxc.br in
  line "";
  line "validated-EphID cache (steady-state flow, p50 of %d batches):" samples;
  line "%-7s | %12s %12s | %12s %12s | %8s" "size" "uncached ns" "cached ns"
    "unc Mpps m16" "hit Mpps m16" "speedup";
  line "%s" (String.make 76 '-');
  List.iter
    (fun (frame, u, c) ->
      line "%5dB | %12.0f %12.0f | %12.2f %12.2f | %7.2fx" frame u c
        (mpps_modelled_16core u) (mpps_modelled_16core c) (u /. c))
    cache_rows;
  line "cache: %d hits, %d misses, %d invalidations, %d entries" cs.hits
    cs.misses cs.invalidations
    (Border_router.ephid_cache_size fxc.br);

  ( J.Obj
      [
        ( "frames",
          J.List
            (List.map
               (fun (size, apna_ns, ipv4_ns, apna_mpps, apna_gbps) ->
                 J.Obj
                   [
                     ("size_bytes", J.Int size);
                     ("apna_ns_per_pkt", J.Float apna_ns);
                     ("ipv4_ns_per_pkt", J.Float ipv4_ns);
                     ("apna_mpps_modelled_16core", J.Float apna_mpps);
                     ("apna_gbps_modelled_16core", J.Float apna_gbps);
                   ])
               results) );
        ("stages_ns", J.Obj stages_json);
        ( "obs_overhead",
          J.Obj
            [
              ("egress_ns_disabled", J.Float off_ns);
              ("egress_ns_metrics", J.Float metrics_ns);
              ("egress_ns_metrics_recorder", J.Float recorder_ns);
            ] );
        ( "ephid_cache",
          J.Obj
            [
              ( "frames",
                J.List
                  (List.map
                     (fun (frame, u, c) ->
                       J.Obj
                         [
                           ("size_bytes", J.Int frame);
                           ("uncached_ns_per_pkt", J.Float u);
                           ("cached_ns_per_pkt", J.Float c);
                           ("uncached_mpps_modelled_16core", J.Float (mpps_modelled_16core u));
                           ("cached_mpps_modelled_16core", J.Float (mpps_modelled_16core c));
                           ("speedup", J.Float (u /. c));
                         ])
                     cache_rows) );
              ("hits", J.Int cs.hits);
              ("misses", J.Int cs.misses);
              ("invalidations", J.Int cs.invalidations);
            ] );
      ],
    [] )

let experiment =
  {
    id = "E2";
    title = "BR-FORWARDING";
    paper_ref = "Fig. 8(a) packet-rate / Fig. 8(b) bit-rate";
    run;
  }
