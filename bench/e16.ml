(* E16: TRACE-SCALE — the §V-A3 claim made measurable.

   Replays the full 1,266,598-host diurnal trace, time-compressed
   (Trace.compress), through the real stack: every host enters host_info
   via the Registry's bulk-admission path, issuance latency is measured on
   the real encrypted MS wire path (single and batched), and every flow's
   first packet runs the complete border-router egress pipeline at the
   source AS plus the ingress pipeline at the destination AS. A pair of
   full Host.t endpoints (whose prefetcher uses the batch issuance RPC)
   keeps a live session exchanging data frames throughout the replay, and
   periodic checkpoints advance simulated time, revoke a trickle of
   EphIDs and run the Revocation/Audit gcs.

   Two deliberate stand-ins keep the replay honest about what it measures:
   the bulk population's data EphIDs are minted directly with the AS keys
   (same wire format, same per-packet pipeline cost; the MS issuance cost
   is measured separately on real sampled requests rather than paid
   1.27 M times), and flows between bulk hosts carry one packet each (the
   per-flow marginal cost; sustained per-packet forwarding is E2's
   measurement).

   Gates: wall-clock flows/s over the peak window must beat the paper's
   3,888 flows/s arrival peak, and p99 per-grant issuance latency plus the
   live-heap growth must stay under their bench/baseline.json ceilings.
   Growth is the peak live words minus a reading taken at E16's entry, so
   whatever earlier experiments in the same process left live does not
   count. *)

open Apna
open Apna_crypto
open Harness
open Fixtures
module M = Apna_obs.Metrics

let g_population =
  M.Gauge.register M.default "apna_scale_population"
    ~help:"Hosts admitted into host_info by the E16 trace replay"

let g_peak_live_words =
  M.Gauge.register M.default "apna_scale_peak_live_words"
    ~help:"Peak live heap words observed during the E16 trace replay"

let g_peak_flows_per_s =
  M.Gauge.register M.default "apna_scale_peak_flows_per_s"
    ~help:"Wall-clock flows/s sustained over the E16 peak window"

let c_flows =
  M.Counter.register M.default "apna_scale_flows_replayed_total"
    ~help:"Flows replayed end-to-end by E16 (egress + ingress checked)"

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

let secs_since t0 = ns_since t0 /. 1e9

(* Issuance latency on the real encrypted wire path, single vs batched,
   over the first [samples] admitted hosts. Client key generation (X25519
   + Ed25519 keygen) happens ahead of need in real hosts — the
   prefetcher — so it is excluded from the timed request round. Returns
   per-request ns arrays. *)
let issuance_samples ms ~epoch0 ~batch_size ~samples (admissions : Registry.admission array) =
  let time_round f =
    let t0 = Monotonic_clock.now () in
    f ();
    ns_since t0
  in
  let single_ns = Array.make samples 0.0 and batch_ns = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    let a = admissions.(i) in
    let src_ephid = Ephid.to_bytes a.ctrl_ephid in
    let corr = Int64.of_int i in
    let keys1 = Keys.make_ephid_keys rng in
    single_ns.(i) <-
      time_round (fun () ->
          let req =
            Management.Client.make_request ~rng ~corr ~kha:a.kha ~keys:keys1
              ~lifetime:Lifetime.Medium
          in
          let reply = ok_or_fail (Management.handle_request ms ~now:epoch0 ~src_ephid req) in
          ignore (ok_or_fail (Management.Client.read_reply ~kha:a.kha reply)));
    let keys_n = List.init batch_size (fun _ -> Keys.make_ephid_keys rng) in
    batch_ns.(i) <-
      time_round (fun () ->
          let req =
            Management.Client.make_batch_request ~rng ~corr ~kha:a.kha ~keys:keys_n
              ~lifetime:Lifetime.Medium
          in
          let reply = ok_or_fail (Management.handle_request ms ~now:epoch0 ~src_ephid req) in
          let certs = ok_or_fail (Management.Client.read_batch_reply ~kha:a.kha reply) in
          if List.length certs <> batch_size then failwith "batch reply count mismatch")
  done;
  (single_ns, batch_ns)

let run tier =
  (* Fail on a missing baseline before spending minutes on the replay. *)
  let p99_ceiling = baseline ~id:"E16" tier "p99_issuance_us_per_grant" in
  let growth_ceiling = baseline ~id:"E16" tier "peak_growth_words" in
  let entry_live_words = live_words () in
  M.set_enabled M.default true;
  let paper = Apna_workload.Trace.paper_config in
  (* Full tier: the whole paper population, the day compressed 2000x
     (~43 s of simulated time, ~100k flows). Quick tier: a 40k-host slice,
     the day compressed into 3 s. *)
  let population = by_tier tier ~quick:40_000 ~full:paper.hosts in
  let factor = by_tier tier ~quick:28_800.0 ~full:2_000.0 in
  let cfg = Apna_workload.Trace.compress { paper with hosts = population } ~factor in
  line "population %d hosts, day compressed %.0fx -> %.1f s window, peak at %.1f s"
    population factor cfg.duration_s cfg.peak_at_s;
  line "live heap at entry: %d words" entry_live_words;

  let net = Network.create ~seed:"trace-scale" () in
  let src_as = Network.add_as net 100 ~retention:true ~expected_hosts:population () in
  let dst_as = Network.add_as net 300 () in
  Network.connect_as net 100 300 ();
  let epoch0 = Network.now_unix net in

  (* Phase 1 — bulk admission: the whole population enters the sharded
     registry/host_info through Registry.admit, then gets a data-plane
     EphID minted with the AS keys. Keeping [admissions] and [data_ephids]
     live is what the peak-live-words gauge measures. *)
  let reg = As_node.registry src_as in
  let as_keys = As_node.keys src_as in
  let t0 = Monotonic_clock.now () in
  let admissions =
    Array.init population (fun i ->
        Registry.admit reg ~now:epoch0 ~credential:(Printf.sprintf "h%d" i)
          ~shared_secret:(Drbg.generate rng 32))
  in
  let admit_s = secs_since t0 in
  let data_expiry = epoch0 + (2 * 86_400) in
  let t0 = Monotonic_clock.now () in
  let data_ephids =
    Array.map
      (fun (a : Registry.admission) ->
        Ephid.to_bytes (Ephid.issue_random as_keys rng ~hid:a.hid ~expiry:data_expiry))
      admissions
  in
  let mint_s = secs_since t0 in
  M.Gauge.set g_population (float_of_int population);
  let live_after_admit = live_words () in
  line "admitted %d hosts in %.1f s (%.0f hosts/s), data EphIDs in %.1f s" population
    admit_s
    (float_of_int population /. admit_s)
    mint_s;
  line "live heap after admission: %d words (%.1f words/host)" live_after_admit
    (float_of_int live_after_admit /. float_of_int population);
  line "registry shards: %d, customer lookup cost: O(1) (last_lookup_cost=%d)"
    (Host_info.shard_count (As_node.host_info src_as))
    (ignore (Registry.credential_of_hid reg admissions.(0).hid);
     Registry.last_lookup_cost reg);

  (* Phase 2 — issuance latency. *)
  let ms = As_node.management src_as in
  let batch_size = 8 in
  let samples = by_tier tier ~quick:40 ~full:400 in
  let single_ns, batch_ns = issuance_samples ms ~epoch0 ~batch_size ~samples admissions in
  let single_p50 = percentile single_ns 50 /. 1e3
  and single_p99 = percentile single_ns 99 /. 1e3 in
  let per_grant p = percentile batch_ns p /. float_of_int batch_size /. 1e3 in
  let grant_p50 = per_grant 50 and grant_p99 = per_grant 99 in
  line "";
  line "issuance latency over %d sampled requests (encrypted wire path):" samples;
  line "  single grant:              p50 %8.0f us   p99 %8.0f us" single_p50 single_p99;
  line "  batched, per grant (n=%d): p50 %8.0f us   p99 %8.0f us" batch_size grant_p50
    grant_p99;
  line "  batch requests served: %d (amortizes envelope + DRBG across %d grants)"
    (Management.batch_request_count ms)
    batch_size;

  (* Live endpoints: a full Host.t pair whose prefetcher refills over the
     batch RPC, with a session that exchanges data frames at every
     checkpoint of the replay. *)
  let alice = Network.add_host net ~as_number:100 ~name:"alice" ~credential:"alice@scale" () in
  let bob = Network.add_host net ~as_number:300 ~name:"bob" ~credential:"bob@scale" () in
  bootstrap [ alice; bob ];
  let session =
    connect ~data0:"scale-live" net alice ~remote:(endpoint net bob).cert
  in
  (* Telemetry rides the replay's checkpoints: each one advances simulated
     time (the sampler ticks through the advance) and re-arms the tick for
     the next stretch. *)
  let tel = Telemetry.attach net in

  (* Destination side: a small rack of admitted servers at AS 300 the bulk
     flows address; the ingress pipeline resolves and delivers to their
     HIDs. *)
  let n_servers = 16 in
  let dst_reg = As_node.registry dst_as in
  let dst_keys = As_node.keys dst_as in
  let server_ephids =
    Array.init n_servers (fun i ->
        let a =
          Registry.admit dst_reg ~now:epoch0 ~credential:(Printf.sprintf "srv%d" i)
            ~shared_secret:(Drbg.generate rng 32)
        in
        Ephid.to_bytes (Ephid.issue_random dst_keys rng ~hid:a.hid ~expiry:data_expiry))
  in

  (* Phase 3 — the replay. One packet per flow: header build + host MAC
     seal + egress pipeline at AS 100 + ingress pipeline at AS 300.
     Checkpoints every 1/32 of the window advance simulated time, revoke a
     trickle of data EphIDs, gc the revocation list and the retention log,
     and push a live data frame through the real session. The peak window
     [peak-10%, peak+10%] is timed separately (checkpoints deferred while
     inside it) and gated against the paper's 3,888/s. *)
  let src_br = As_node.border_router src_as in
  let dst_br = As_node.border_router dst_as in
  let audit = Option.get (As_node.audit src_as) in
  let revoked = As_node.revoked src_as in
  let src_aid = Apna_net.Addr.aid_of_int 100 in
  let dst_aid = Apna_net.Addr.aid_of_int 300 in
  let wrng = Apna_sim.Rng.create 1616L in
  let cp_every = cfg.duration_s /. 32.0 in
  let win_lo = cfg.peak_at_s -. (0.10 *. cfg.duration_s)
  and win_hi = cfg.peak_at_s +. (0.10 *. cfg.duration_s) in
  let flows = ref 0
  and drops = ref 0
  and delivered = ref 0
  and live_frames = ref 0
  and revoked_n = ref 0
  and gc_removed = ref 0
  and audit_gc_removed = ref 0 in
  let peak_flows = ref 0 and peak_ns = ref 0.0 and peak_t0 = ref Int64.zero in
  let in_window = ref false in
  let peak_live_words = ref live_after_admit in
  let next_cp = ref cp_every in
  let sim_advanced = ref 0.0 in
  let checkpoint at =
    (* Keep the network clock abreast of trace time for the live pair. *)
    Network.advance_time net (at -. !sim_advanced);
    sim_advanced := at;
    let now = Network.now_unix net in
    (* A trickle of revocations with short expiries: later checkpoints'
       gcs collect them, proving the sweep runs against live load. *)
    for _ = 1 to 2 do
      let v = Apna_sim.Rng.int wrng population in
      Revocation.revoke revoked
        (Result.get_ok (Ephid.of_bytes data_ephids.(v)))
        ~expiry:(now + int_of_float (2.0 *. cp_every) + 1);
      incr revoked_n
    done;
    gc_removed := !gc_removed + Revocation.gc revoked ~now;
    audit_gc_removed := !audit_gc_removed + Audit.gc audit ~now;
    (match Host.send alice session (Printf.sprintf "live-%d" now) with
    | Ok () -> incr live_frames
    | Error _ -> ());
    Telemetry.kick tel;
    Network.run net
  in
  let t_replay = Monotonic_clock.now () in
  Apna_workload.Trace.iter wrng cfg (fun flow ->
      (* Peak-window bracketing (flows arrive in start order). *)
      if (not !in_window) && flow.start >= win_lo && flow.start < win_hi then begin
        in_window := true;
        peak_t0 := Monotonic_clock.now ()
      end
      else if !in_window && flow.start >= win_hi then begin
        in_window := false;
        peak_ns := ns_since !peak_t0;
        (* Live-words sample right after the hottest part of the day. *)
        peak_live_words := max !peak_live_words (live_words ())
      end;
      if (not !in_window) && flow.start >= !next_cp then begin
        checkpoint flow.start;
        next_cp := !next_cp +. cp_every
      end;
      let a = admissions.(flow.host) in
      let header =
        Apna_net.Apna_header.make ~src_aid ~src_ephid:data_ephids.(flow.host) ~dst_aid
          ~dst_ephid:server_ephids.(flow.host mod n_servers)
          ()
      in
      let pkt =
        Pkt_auth.seal ~auth_key:a.kha.auth
          (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
             ~payload:"trace-scale flow")
      in
      let now = epoch0 + int_of_float flow.start in
      (match Border_router.egress_check src_br ~now pkt with
      | Ok _ -> (
          match Border_router.ingress_check dst_br ~now pkt with
          | Ok (Border_router.Deliver _) -> incr delivered
          | Ok (Border_router.Forward _) -> failwith "unexpected transit"
          | Error _ -> incr drops)
      | Error _ -> incr drops);
      incr flows;
      if !in_window then incr peak_flows;
      M.Counter.incr c_flows);
  let replay_s = secs_since t_replay in
  let overall_fps = float_of_int !flows /. replay_s in
  let peak_fps = float_of_int !peak_flows /. (!peak_ns /. 1e9) in
  peak_live_words := max !peak_live_words (live_words ());
  let growth = !peak_live_words - entry_live_words in
  M.Gauge.set g_peak_live_words (float_of_int !peak_live_words);
  M.Gauge.set g_peak_flows_per_s peak_fps;
  line "";
  line "replayed %d flows in %.1f s wall (%.0f flows/s overall)" !flows replay_s overall_fps;
  line "  delivered %d, dropped %d (%d EphIDs revoked mid-replay)" !delivered !drops
    !revoked_n;
  line "  revocation gc removed %d, audit gc removed %d (cost: last sweep %d/%d probes)"
    !gc_removed !audit_gc_removed
    (Revocation.last_gc_cost revoked)
    (Audit.last_gc_cost audit);
  line "  live session: %d data frames interleaved" !live_frames;
  line "  peak window [%.1f, %.1f): %d flows in %.2f s wall = %.0f flows/s" win_lo win_hi
    !peak_flows (!peak_ns /. 1e9) peak_fps;
  line "  peak live heap: %d words, %d above entry (%.1f words/host)" !peak_live_words
    growth
    (float_of_int growth /. float_of_int population);
  (* Drain: jump past the §VIII-H retention window and the revocation
     expiries, then gc both — the heap-driven sweeps must reclaim a full
     day of retained state in one pass, at a cost proportional to what
     they remove, and the heap must shrink back. *)
  let drain_now = Network.now_unix net + (8 * 86_400) in
  let t0 = Monotonic_clock.now () in
  let drain_audit = Audit.gc audit ~now:drain_now in
  let drain_revoked = Revocation.gc revoked ~now:drain_now in
  let drain_ms = ns_since t0 /. 1e6 in
  let audit_drain_cost = Audit.last_gc_cost audit in
  let live_after_drain = live_words () in
  (* The population and network must stay live across the stat, or the
     collector reclaims them and the number measures nothing. *)
  ignore (Sys.opaque_identity (net, admissions, data_ephids, server_ephids));
  line "  drain (+8 days): audit gc removed %d (%d probes), revocation gc removed %d, %.1f ms"
    drain_audit audit_drain_cost drain_revoked drain_ms;
  line "  live heap after drain: %d words" live_after_drain;
  let gates =
    [
      gate "peak_flows_per_s" peak_fps (At_least paper.peak_rate);
      gate "p99_issuance_us_per_grant" grant_p99 (At_most p99_ceiling);
      gate "peak_growth_words" (float_of_int growth) (At_most growth_ceiling);
    ]
  in
  Telemetry.tick_now tel;
  Telemetry.stop tel;
  M.set_enabled M.default false;
  ( J.Obj
      [
        ("population", J.Int population);
        ("compression_factor", J.Float factor);
        ("window_s", J.Float cfg.duration_s);
        ( "admission",
          J.Obj
            [
              ("seconds", J.Float admit_s);
              ("hosts_per_s", J.Float (float_of_int population /. admit_s));
              ("live_words_after", J.Int live_after_admit);
            ] );
        ( "issuance",
          J.Obj
            [
              ("samples", J.Int samples);
              ("batch_size", J.Int batch_size);
              ("single_p50_us", J.Float single_p50);
              ("single_p99_us", J.Float single_p99);
              ("batch_per_grant_p50_us", J.Float grant_p50);
              ("batch_per_grant_p99_us", J.Float grant_p99);
            ] );
        ( "replay",
          J.Obj
            [
              ("flows", J.Int !flows);
              ("wall_s", J.Float replay_s);
              ("flows_per_s", J.Float overall_fps);
              ("delivered", J.Int !delivered);
              ("dropped", J.Int !drops);
              ("revoked_mid_replay", J.Int !revoked_n);
              ("revocation_gc_removed", J.Int !gc_removed);
              ("audit_gc_removed", J.Int !audit_gc_removed);
              ("live_session_frames", J.Int !live_frames);
              ( "drain",
                J.Obj
                  [
                    ("audit_removed", J.Int drain_audit);
                    ("audit_probes", J.Int audit_drain_cost);
                    ("revocation_removed", J.Int drain_revoked);
                    ("wall_ms", J.Float drain_ms);
                    ("live_words_after", J.Int live_after_drain);
                  ] );
            ] );
        ( "peak",
          J.Obj
            [
              ("window_lo_s", J.Float win_lo);
              ("window_hi_s", J.Float win_hi);
              ("flows", J.Int !peak_flows);
              ("wall_s", J.Float (!peak_ns /. 1e9));
              ("flows_per_s", J.Float peak_fps);
              ("paper_peak_flows_per_s", J.Float paper.peak_rate);
            ] );
        ( "memory",
          J.Obj
            [
              ("entry_live_words", J.Int entry_live_words);
              ("peak_live_words", J.Int !peak_live_words);
              ("peak_growth_words", J.Int growth);
              ( "growth_words_per_host",
                J.Float (float_of_int growth /. float_of_int population) );
            ] );
        ( "telemetry",
          J.Obj
            [
              ("rules_fired", rules_json (Apna_obs.Alert.fired_rules (Telemetry.alerts tel)));
              ("timeline", Telemetry.export tel);
            ] );
      ],
    gates )

let experiment =
  {
    id = "E16";
    title = "TRACE-SCALE";
    paper_ref = "§V-A3: 1,266,598 hosts, 3,888 flows/s peak";
    run;
  }
