(* E18: adversarial-scale accountability (§IV-E, §VIII-G2 under attack).

   One tier of the misbehavior-campaign sweep: a {!Apna_workload.Campaign}
   schedule turns [fraction] of the population malicious, and the four
   behaviors hit the live network simultaneously —

     unwanted-traffic   real bot hosts flood victim endpoints, whose
                        on_data auto-shutoff drives the revocation storm
                        (per-packet bot EphIDs make every grant a fresh
                        revocation-list entry);
     replay-flood       frames the victims already accepted, re-submitted
                        at the attacker border router;
     ephid-bruteforce   random 16-byte EphID guesses at the same router;
     shutoff-spam       forged / duplicate-evidence / expired-evidence
                        requests injected straight into the AA's bounded
                        admission queue.

   The accountability agent runs with deliberately tight limits so the
   storm exercises every hardening layer: the token buckets refuse, the
   bounded queue sheds spam before evidence, drains are budgeted, and
   revocations propagate as batches. Telemetry rides the run; the 1% tier
   is the acceptance tier (≥99% legit delivery, bounded backlog with
   shed > 0, propagation p99 reported, every AA request and every
   border-router drop accounted by reason, shutoff-stall +
   revocation-storm alerts fired and resolved). The quick tier runs only
   the 1% tier. *)

open Apna
open Apna_crypto
open Harness
open Fixtures
module W = Apna_workload
module M = Apna_obs.Metrics
module Alert = Apna_obs.Alert
module Event = Apna_obs.Event

let aid_of = Apna_net.Addr.aid_of_int
let population = 9_000

(* AA policy tuned so the storm lands on the bounded queue rather than the
   token buckets: requester buckets are generous enough that victim
   evidence floods the admission queue, and the budgeted drain (budget /
   interval = 40/s) becomes the bottleneck — grants then run at drain
   speed, which sits above the 25/s revocation-storm threshold, while the
   queue pegs past the 8-deep shutoff-stall threshold. *)
let aa_limits =
  {
    Accountability.default_limits with
    rate_burst = 128;
    rate_per_s = 32.0;
    queue_cap = 16;
    drain_budget = 12;
    drain_interval_s = 0.25;
  }

(* Synthetic shutoff spam, prepared up front so injection is cheap, keyed
   by (host, event time in ms). Forged requests reuse one spammer cert
   (burning its token bucket is what demotes the tail to the shed-first
   low-priority queue); duplicate spam replays one once-valid request;
   expired spam quotes a source EphID whose validity window has passed. *)
let spam_requests ~rng ~now n500 n501 events =
  let keys500 = As_node.keys n500 and keys501 = As_node.keys n501 in
  let spam_victim i =
    let keys = Keys.make_ephid_keys rng in
    let ephid =
      Ephid.issue_random keys501 rng
        ~hid:(Apna_net.Addr.hid_of_int (0x0bf0_0000 + i))
        ~expiry:(now + 3_600)
    in
    let cert =
      Cert.issue keys501 ~ephid ~expiry:(now + 3_600) ~kx_pub:keys.kx_public
        ~sig_pub:(Ed25519.public_key keys.sig_keypair) ~aa_ephid:ephid
    in
    (cert, keys)
  in
  let spam_evidence ~spam_hid ~(spam_kha : Keys.host_as) ~(dst_cert : Cert.t) ~expiry ~payload =
    let src = Ephid.issue_random keys500 rng ~hid:spam_hid ~expiry in
    let header =
      Apna_net.Apna_header.make ~src_aid:(aid_of 64500) ~src_ephid:(Ephid.to_bytes src)
        ~dst_aid:(aid_of 64501) ~dst_ephid:(Ephid.to_bytes dst_cert.ephid) ()
    in
    Pkt_auth.seal ~auth_key:spam_kha.auth
      (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload)
  in
  let tbl : (int * int, Msgs.t list) Hashtbl.t = Hashtbl.create 32 in
  let seq = ref 0 in
  List.iter
    (fun (e : W.Campaign.event) ->
      match e.behavior with
      | W.Campaign.Shutoff_spam kind ->
          incr seq;
          let i = !seq in
          let spam_hid = Apna_net.Addr.hid_of_int (0x0af0_0000 + i) in
          let spam_kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
          Host_info.register (As_node.host_info n500) spam_hid spam_kha;
          let dst_cert, dst_keys = spam_victim i in
          let evidence ~expiry payload =
            spam_evidence ~spam_hid ~spam_kha ~dst_cert ~expiry ~payload
          in
          let batch =
            match kind with
            | W.Campaign.Forged ->
                let rogue = Keys.make_ephid_keys rng in
                List.init e.volume (fun k ->
                    let bytes =
                      Apna_net.Packet.to_bytes
                        (evidence ~expiry:(now + 3_600) (Printf.sprintf "forged-%d-%d" i k))
                    in
                    Msgs.Shutoff_request
                      {
                        packet = bytes;
                        signature = Ed25519.sign rogue.sig_keypair bytes;
                        cert = Cert.to_bytes dst_cert;
                      })
            | W.Campaign.Duplicate_evidence ->
                let packet = evidence ~expiry:(now + 3_600) (Printf.sprintf "dup-%d" i) in
                let req = Shutoff.make_request ~packet ~dst_cert ~dst_keys in
                List.init e.volume (fun _ -> req)
            | W.Campaign.Expired_evidence ->
                List.init e.volume (fun k ->
                    let packet =
                      evidence ~expiry:(now - 10) (Printf.sprintf "stale-%d-%d" i k)
                    in
                    Shutoff.make_request ~packet ~dst_cert ~dst_keys)
          in
          Hashtbl.replace tbl (e.host, int_of_float (e.at *. 1_000.0)) batch
      | _ -> ())
    events;
  tbl

(* Sum of per-reason count deltas since [base] across routers. *)
let drop_deltas routers_and_bases =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (br, base) ->
      List.iter
        (fun (reason, count) ->
          let get = Option.value ~default:0 in
          let d = count - get (List.assoc_opt reason base) in
          if d > 0 then Hashtbl.replace tbl reason (d + get (Hashtbl.find_opt tbl reason)))
        (Border_router.drop_reasons br))
    routers_and_bases;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

type tier_result = {
  fraction : float;
  row : J.t;
  fired : string list;
  timeline : J.t;
  gates : gate list;  (** Empty unless this is the acceptance tier. *)
}

let campaign_tier ~fraction ~acceptance =
  let trace_cfg =
    {
      W.Trace.paper_config with
      W.Trace.hosts = population;
      peak_rate = 100.0;
      duration_s = 10.0;
      peak_at_s = 5.0;
    }
  in
  let cfg =
    {
      (W.Campaign.default ~trace:trace_cfg ~fraction) with
      W.Campaign.events_per_host = 2.0;
      volume_mean = 10.0;
    }
  in
  let events = W.Campaign.generate ~seed:(Printf.sprintf "e18-%.4f" fraction) cfg in
  let n_bots = W.Campaign.malicious_count cfg in
  line "";
  line "tier %.1f%%: %d/%d hosts malicious, %d campaign events" (fraction *. 100.0) n_bots
    population (List.length events);
  List.iter
    (fun (label, n) -> line "    %-24s %d events" label n)
    (W.Campaign.count_by_behavior events);
  let net =
    Scenario.line ~seed:(Printf.sprintf "e18-%.4f" fraction) ~aa_limits [ 64500; 64501 ]
  in
  let n500 = Network.node_exn net 64500 and n501 = Network.node_exn net 64501 in
  let hosts ?granularity as_number prefix ids =
    List.map
      (fun i ->
        let name = Printf.sprintf "%s%d" prefix i in
        Scenario.host ?granularity net ~as_number ~name ~credential:name)
      ids
  in
  (* Legitimate population: clients in the attacker AS (their traffic
     shares the stormed egress pipeline) talking to servers across the
     inter-AS link — the ≥99% delivery gate. *)
  let n_clients = 10 and n_servers = 3 and n_victims = 4 in
  let clients = hosts 64500 "c" (List.init n_clients Fun.id) in
  let servers = hosts 64501 "s" (List.init n_servers Fun.id) in
  let victims = hosts 64501 "v" (List.init n_victims Fun.id) in
  Network.run net;
  let endpoints hs =
    Array.of_list (List.map (Scenario.endpoint ~lifetime:Lifetime.Long net) hs)
  in
  let server_eps = endpoints servers in
  let inboxes = List.map Scenario.inbox servers in
  let victim_eps = endpoints victims in
  (* Victim defence + replay capture: every decrypted frame becomes
     shutoff evidence, and a copy feeds the attacker's replay pool (the
     replayed frames are ones the victims really accepted, so their
     session replay windows are the last line of defence). *)
  let shutoff_built = ref 0 and replay_pool = ref [] in
  List.iter (Scenario.auto_shutoff ~pool:replay_pool ~built:shutoff_built) victims;
  (* Real bot hosts only for the unwanted-traffic behavior; replay,
     bruteforce and AA spam are injected at the infrastructure seams the
     way a real attacker would (no cooperating host required). *)
  let bot_tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : W.Campaign.event) ->
      if e.behavior = W.Campaign.Unwanted_traffic && not (Hashtbl.mem bot_tbl e.host) then
        Hashtbl.add bot_tbl e.host
          (List.hd (hosts ~granularity:Granularity.Per_packet 64500 "bot" [ e.host ])))
    events;
  Network.run net;
  let rng = Network.rng net in
  let spam = spam_requests ~rng ~now:(Network.now_unix net) n500 n501 events in
  (* Baselines before the storm so every reported number is a delta. *)
  let routers = [ As_node.border_router n500; As_node.border_router n501 ] in
  let drop_base = List.map (fun br -> (br, Border_router.drop_reasons br)) routers in
  let dropped () =
    List.fold_left (fun acc br -> acc + (Border_router.counters br).dropped) 0 routers
  in
  let dropped_base = dropped () in
  let replay_rejected_base = Host.replay_rejected_total () in
  let br500 = As_node.border_router n500 in
  let cache_base = Border_router.ephid_cache_stats br500 in
  (* Flight recorder on for the campaign: drop forensics by reason. *)
  let ev = Event.default in
  Event.clear ev;
  Event.set_enabled ev true;
  let tel = Telemetry.attach net in
  let at delay f = Apna_sim.Engine.schedule_in (Network.engine net) ~delay f in
  (* Flow frames read "<tag>-<id>-<k>". *)
  let frame tag id k = Printf.sprintf "%s-%d-%d" tag id k in
  (* Legit workload paced across the campaign window. *)
  let legit_sent = ref 0 and msgs_per_client = 25 in
  let window = trace_cfg.W.Trace.duration_s in
  List.iteri
    (fun i c ->
      Scenario.flow net c ~remote:server_eps.(i mod n_servers).cert ~volume:msgs_per_client
        ~gap:(fun k -> window *. float_of_int k /. float_of_int msgs_per_client)
        ~frame:(frame "L" i) ~sent:legit_sent)
    clients;
  (* The campaign itself. *)
  let unwanted_sent = ref 0
  and replayed = ref 0
  and bruteforce_sent = ref 0
  and spam_injected = ref 0 in
  let replay_cursor = ref 0 in
  let aa500 = As_node.accountability n500 in
  List.iter
    (fun (e : W.Campaign.event) ->
      match e.behavior with
      | W.Campaign.Unwanted_traffic ->
          at e.at (fun () ->
              Scenario.flow net (Hashtbl.find bot_tbl e.host)
                ~remote:victim_eps.(e.host mod n_victims).cert ~volume:e.volume
                ~gap:(fun k -> 0.03 *. float_of_int k)
                ~frame:(frame "FLOOD" e.host) ~sent:unwanted_sent)
      | W.Campaign.Replay_flood ->
          at e.at (fun () ->
              Scenario.replay n500 ~pool:!replay_pool ~cursor:replay_cursor ~volume:e.volume
                ~sent:replayed)
      | W.Campaign.Ephid_bruteforce ->
          at e.at (fun () ->
              Scenario.bruteforce net n500 ~dst:64501 ~volume:e.volume ~sent:bruteforce_sent)
      | W.Campaign.Shutoff_spam _ ->
          let batch =
            Option.value ~default:[]
              (Hashtbl.find_opt spam (e.host, int_of_float (e.at *. 1_000.0)))
          in
          List.iteri
            (fun k req ->
              at
                (e.at +. (0.01 *. float_of_int k))
                (fun () ->
                  incr spam_injected;
                  ignore
                    (Accountability.enqueue aa500 ~now:(Network.now_unix net)
                       ~at:(Network.now_f net) req)))
            batch)
    events;
  Network.run net;
  (* Quiet tail: drain the AA queue to empty and keep the sampler ticking
     so the fired alerts can resolve. *)
  for _ = 1 to 6 do
    ignore (Accountability.drain aa500 ~now:(Network.now_unix net) ~at:(Network.now_f net));
    Telemetry.kick tel;
    Network.advance_time net 1.0
  done;
  Telemetry.tick_now tel;
  Telemetry.stop tel;
  Event.set_enabled ev false;
  (* ---- Measurements ---------------------------------------------- *)
  let legit_delivered =
    List.concat_map (fun inbox -> inbox ()) inboxes
    |> List.filter (fun d -> String.length d > 0 && d.[0] = 'L')
    |> List.length
  in
  let delivery_ratio =
    if !legit_sent = 0 then 1.0 else float_of_int legit_delivered /. float_of_int !legit_sent
  in
  (* auto_shutoff keeps every frame a victim decrypts in the pool. *)
  let unwanted_delivered = List.length !replay_pool in
  let drops_by_reason = drop_deltas drop_base in
  let drops_total = List.fold_left (fun acc (_, n) -> acc + n) 0 drops_by_reason in
  let dropped_counter_delta = dropped () - dropped_base in
  let replay_rejected = Host.replay_rejected_total () - replay_rejected_base in
  let granted = Accountability.granted_count aa500
  and refused = Accountability.refused_count aa500
  and shed = Accountability.shed_count aa500
  and queue_end = Accountability.queue_depth aa500
  and queue_peak = Accountability.queue_peak aa500 in
  let aa_requests = !shutoff_built + !spam_injected in
  let aa_accounted = granted + refused + shed + queue_end in
  let propagation = Array.of_list (Accountability.propagation_samples aa500) in
  let prop_p50 = percentile propagation 50 and prop_p99 = percentile propagation 99 in
  let cache = Border_router.ephid_cache_stats br500 in
  let hits = cache.hits - cache_base.hits
  and misses = cache.misses - cache_base.misses
  and invalidations = cache.invalidations - cache_base.invalidations in
  let hit_ratio =
    if hits + misses = 0 then nan else float_of_int hits /. float_of_int (hits + misses)
  in
  let revoked_size = Revocation.size (As_node.revoked n500) in
  let drop_report = Apna_obs.Journey.drop_report (Apna_obs.Journey.assemble ev) in
  let alerts = Telemetry.alerts tel in
  let fired = Alert.fired_rules alerts in
  let fired_and_resolved name =
    Alert.has_fired alerts name
    && List.for_all
         (fun i ->
           (Alert.rule i).Alert.name <> name
           || match Alert.state i with Alert.Firing _ -> false | _ -> true)
         (Alert.instances alerts)
  in
  (* ---- Report ----------------------------------------------------- *)
  line "  legit delivery        %d/%d (%.2f%%)" legit_delivered !legit_sent
    (delivery_ratio *. 100.0);
  line "  malicious injected    %d unwanted, %d replayed, %d bruteforce, %d AA spam"
    !unwanted_sent !replayed !bruteforce_sent !spam_injected;
  line "  evidence delivered    %d frames to victims -> %d shutoff requests built"
    unwanted_delivered !shutoff_built;
  line
    "  AA ledger             %d requests = %d granted + %d refused + %d shed (queue end %d, \
     peak %d/%d)"
    aa_requests granted refused shed queue_end queue_peak aa_limits.queue_cap;
  List.iter
    (fun (reason, n) -> line "    refused %-18s %d" reason n)
    (Accountability.refusal_reasons aa500);
  line "  BR drops              %d total" drops_total;
  List.iter (fun (reason, n) -> line "    dropped %-18s %d" reason n) drops_by_reason;
  line "  replay-window rejects %d" replay_rejected;
  line "  shutoff propagation   p50 %.3f s, p99 %.3f s (%d samples)" prop_p50 prop_p99
    (Array.length propagation);
  line "  revocation list       %d entries; EphID cache %.1f%% hit (%d/%d, %d invalidations)"
    revoked_size (hit_ratio *. 100.0) hits (hits + misses) invalidations;
  line "  alerts fired          %s" (Apna_obs.Alert.rules_text fired);
  if Event.evicted ev > 0 then
    line "  (flight recorder evicted %d events; journey forensics cover the newest window)"
      (Event.evicted ev);
  if drop_report <> [] then begin
    line "  journey drop forensics (last good hop / reason / journeys):";
    List.iteri
      (fun i ((hop, reason), n) -> if i < 6 then line "    %-28s %-16s %d" hop reason n)
      drop_report
  end;
  let gates =
    if not acceptance then []
    else
      let f = float_of_int in
      [
        gate "legit_delivery_ratio" delivery_ratio (At_least 0.99);
        gate "aa_queue_peak" (f queue_peak) (At_most (f aa_limits.queue_cap));
        gate "aa_shed" (f shed) (At_least 1.0);
        gate "aa_ledger_unaccounted" (f (abs (aa_requests - aa_accounted))) (At_most 0.0);
        gate "br_drops_untyped" (f (abs (dropped_counter_delta - drops_total))) (At_most 0.0);
        gate "bruteforce_replay_uncontained"
          (f (!bruteforce_sent + !replayed - (drops_total + replay_rejected)))
          (At_most 0.0);
        gate "propagation_samples" (f (Array.length propagation)) (At_least 1.0);
        holds "shutoff_stall_fired_and_resolved" (fired_and_resolved "shutoff-stall");
        holds "revocation_storm_fired_and_resolved" (fired_and_resolved "revocation-storm");
      ]
  in
  let counts l = J.Obj (List.map (fun (k, n) -> (k, J.Int n)) l) in
  let row =
    J.Obj
      [
        ("fraction", J.Float fraction);
        ("population", J.Int population);
        ("bots", J.Int n_bots);
        ("events_by_behavior", counts (W.Campaign.count_by_behavior events));
        ( "injected",
          J.Obj
            [
              ("unwanted", J.Int !unwanted_sent);
              ("replayed", J.Int !replayed);
              ("bruteforce", J.Int !bruteforce_sent);
              ("aa_spam", J.Int !spam_injected);
            ] );
        ( "legit",
          J.Obj
            [
              ("sent", J.Int !legit_sent);
              ("delivered", J.Int legit_delivered);
              ("delivery_ratio", J.Float delivery_ratio);
            ] );
        ( "aa",
          J.Obj
            [
              ("requests", J.Int aa_requests);
              ("granted", J.Int granted);
              ("refused", J.Int refused);
              ("shed", J.Int shed);
              ("queue_peak", J.Int queue_peak);
              ("queue_cap", J.Int aa_limits.queue_cap);
              ("refusals_by_reason", counts (Accountability.refusal_reasons aa500));
            ] );
        ( "propagation_s",
          J.Obj
            [
              ("p50", J.Float prop_p50);
              ("p99", J.Float prop_p99);
              ("samples", J.Int (Array.length propagation));
            ] );
        ( "forensics",
          J.Obj
            [
              ("evidence_delivered", J.Int unwanted_delivered);
              ("br_drops_by_reason", counts drops_by_reason);
              ("br_drops_total", J.Int drops_total);
              ("replay_window_rejects", J.Int replay_rejected);
              ( "journey_drop_report",
                J.List
                  (List.map
                     (fun ((hop, reason), n) ->
                       J.Obj
                         [
                           ("last_good_hop", J.Str hop);
                           ("reason", J.Str reason);
                           ("journeys", J.Int n);
                         ])
                     drop_report) );
            ] );
        ( "revocation",
          J.Obj
            [
              ("list_size", J.Int revoked_size);
              ("cache_hit_ratio", J.Float hit_ratio);
              ("cache_hits", J.Int hits);
              ("cache_misses", J.Int misses);
              ("cache_invalidations", J.Int invalidations);
            ] );
        ("rules_fired", rules_json fired);
        ("rules_resolved", rules_json (List.filter fired_and_resolved fired));
      ]
  in
  Event.clear ev;
  { fraction; row; fired; timeline = Telemetry.export tel; gates }

let run tier =
  let results =
    List.map
      (fun fraction -> campaign_tier ~fraction ~acceptance:(fraction = 0.01))
      (by_tier tier ~quick:[ 0.01 ] ~full:[ 0.001; 0.01; 0.05 ])
  in
  M.set_enabled M.default false;
  let acceptance = List.find (fun r -> r.fraction = 0.01) results in
  ( J.Obj
      [
        ("tiers", J.List (List.map (fun r -> r.row) results));
        ( "telemetry",
          J.Obj
            [
              ( "rows",
                J.List
                  (List.map
                     (fun r ->
                       J.Obj
                         [
                           ("fraction", J.Float r.fraction);
                           ("rules_fired", rules_json r.fired);
                         ])
                     results) );
              ("timeline_1pct", acceptance.timeline);
            ] );
      ],
    acceptance.gates )

let experiment =
  {
    id = "E18";
    title = "ATTACK-CAMPAIGN";
    paper_ref = "§IV-E shutoff and §VIII-G2 escalation under misbehavior storms";
    run;
  }
