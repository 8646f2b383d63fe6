(* End-to-end tests for the engine-driven telemetry pipeline: the sampler
   ticks on simulated time, derived indicators compute from live registry
   deltas, the alert engine detects a replay flood as it happens, and the
   health rollup + dashboard + export surfaces agree with the run. Runs in
   its own process, so enabling the default registry is safe. *)

open Apna
module T = Apna_obs.Timeseries
module Alert = Apna_obs.Alert
module Health = Apna_obs.Health
module Json = Apna_obs.Json

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

(* A two-host net whose inter-AS links duplicate aggressively once the
   session is up: duplicated data frames hit the receive-side replay
   window, which is exactly the signature the replay-flood rule watches. *)
let replay_flood_net () =
  let module Link = Apna_net.Link in
  let net = Scenario.line ~seed:"telemetry-test" [ 64500; 64501 ] in
  let alice = Scenario.host net ~as_number:64500 ~name:"alice" ~credential:"a" in
  let bob = Scenario.host net ~as_number:64501 ~name:"bob" ~credential:"b" in
  let ep = Scenario.endpoint ~lifetime:Lifetime.Long ~receive_only:true net bob in
  let session = Scenario.connect ~expect_accept:true net alice ~remote:ep.cert in
  (* Swap in a heavily-duplicating link for the flood itself. *)
  Network.connect_as net 64500 64501
    ~link:
      (Link.make ~faults:(Link.make_faults ~duplicate:0.5 ()) ())
    ();
  (net, alice, session)

let flood net alice session ~msgs ~span_s =
  let eng = Network.engine net in
  for i = 0 to msgs - 1 do
    Apna_sim.Engine.schedule_in eng
      ~delay:(span_s *. float_of_int i /. float_of_int msgs)
      (fun () -> ignore (Host.send alice session (Printf.sprintf "m%04d" i)))
  done;
  Network.run net

let telemetry_tests =
  [
    Alcotest.test_case "sampler ticks on the engine and stops at quiescence"
      `Quick (fun () ->
        let net, alice, session = replay_flood_net () in
        let tel = Telemetry.attach ~interval:0.25 net in
        flood net alice session ~msgs:100 ~span_s:2.0;
        let ticks = T.ticks (Telemetry.timeseries tel) in
        Alcotest.(check bool) "ticked through the flood" true (ticks >= 6);
        (* Quiescent: no pending events, so the tick disarmed itself. *)
        Alcotest.(check int) "engine drained" 0
          (Apna_sim.Engine.pending (Network.engine net));
        Network.run net;
        Alcotest.(check int) "no ticks while idle" ticks
          (T.ticks (Telemetry.timeseries tel));
        (* kick + more traffic resumes sampling. *)
        Telemetry.kick tel;
        flood net alice session ~msgs:50 ~span_s:1.0;
        Alcotest.(check bool) "resumed after kick" true
          (T.ticks (Telemetry.timeseries tel) > ticks));
    Alcotest.test_case "replay flood trips the replay-flood rule live" `Quick
      (fun () ->
        let net, alice, session = replay_flood_net () in
        let tel = Telemetry.attach ~interval:0.25 net in
        flood net alice session ~msgs:400 ~span_s:3.0;
        let alerts = Telemetry.alerts tel in
        Alcotest.(check bool) "replay-flood fired" true
          (Alert.has_fired alerts "replay-flood");
        (* The raw signal is there too: the per-host replay counter moved
           and the derived rate series saw it. *)
        let ts = Telemetry.timeseries tel in
        let s =
          Option.get (T.find ts Apna_obs.Derive.replay_reject_rate)
        in
        Alcotest.(check bool) "derived rate exceeded threshold" true
          (List.exists (fun (_, v) -> v > 20.0) (T.points s)));
    Alcotest.test_case "per-AS gauges and derived series appear in the ring"
      `Quick (fun () ->
        let net, alice, session = replay_flood_net () in
        let tel = Telemetry.attach ~interval:0.25 net in
        flood net alice session ~msgs:100 ~span_s:2.0;
        let ts = Telemetry.timeseries tel in
        let names = T.names ts in
        List.iter
          (fun n ->
            Alcotest.(check bool) n true
              (List.exists (fun id -> contains id n) names))
          [
            "apna_revocation_list_size";
            "derived:ephid_cache_hit_ratio";
            "apna_host_replay_rejected_total";
          ]);
    Alcotest.test_case "health, dashboard and export agree with the alerts"
      `Quick (fun () ->
        let net, alice, session = replay_flood_net () in
        let tel = Telemetry.attach ~interval:0.25 net in
        flood net alice session ~msgs:400 ~span_s:3.0;
        let reports = Telemetry.health tel in
        Alcotest.(check bool) "global scope degraded or worse" true
          (List.exists
             (fun r ->
               r.Health.scope = "global" && r.Health.status <> Health.Ok)
             reports);
        let dash = Telemetry.dashboard tel in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains dash needle))
          [ "HEALTH"; "ALERTS"; "INDICATORS"; "replay-flood" ];
        (* telemetry.json: parses back and carries all three sections. *)
        match Json.parse (Json.to_string (Telemetry.export tel)) with
        | Error e -> Alcotest.failf "export does not parse: %s" e
        | Ok doc ->
            List.iter
              (fun k ->
                Alcotest.(check bool) k true (Json.member k doc <> None))
              [ "timeseries"; "alerts"; "health" ]);
    Alcotest.test_case "stop disarms permanently" `Quick (fun () ->
        let net, alice, session = replay_flood_net () in
        let tel = Telemetry.attach ~interval:0.25 net in
        flood net alice session ~msgs:50 ~span_s:1.0;
        Telemetry.stop tel;
        let ticks = T.ticks (Telemetry.timeseries tel) in
        Telemetry.kick tel;
        flood net alice session ~msgs:50 ~span_s:1.0;
        Alcotest.(check int) "no further ticks" ticks
          (T.ticks (Telemetry.timeseries tel)));
  ]

(* The registry is a view over the roles' own counters: it reads counts
   made while it was disabled, and it keeps no role alive. *)

module M = Apna_obs.Metrics

let series name labels = M.Counter.value (M.Counter.register M.default ~labels name)

(* A world that carries a few packets, then is dropped: only weak pointers
   to one border router and one host leave this function. *)
let weak_world () =
  let net = Scenario.line ~seed:"registry-weak" [ 64600; 64601 ] in
  let alice = Scenario.host net ~as_number:64600 ~name:"weak-a" ~credential:"a" in
  let bob = Scenario.host net ~as_number:64601 ~name:"weak-b" ~credential:"b" in
  let ep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
  let session = Scenario.connect net alice ~remote:ep.cert in
  ignore (Host.send alice session "hello");
  Network.run net;
  let weak v =
    let w = Weak.create 1 in
    Weak.set w 0 (Some v);
    w
  in
  (weak (As_node.border_router (Network.node_exn net 64600)), weak alice)

let registry_tests =
  [
    Alcotest.test_case "reads counts made while disabled" `Quick
      (fun () ->
        let was = M.enabled M.default in
        M.set_enabled M.default false;
        Fun.protect ~finally:(fun () -> M.set_enabled M.default was) @@ fun () ->
        let aid = [ ("aid", "64700") ] in
        let egress () = series "apna_br_egress_ok_total" aid
        and ms () = series "apna_as_ms_requests_total" aid
        and events () = series "apna_sim_events_total" []
        and transits () = series "apna_net_link_transits_total" [] in
        let before = [ egress (); ms (); events (); transits () ] in
        let net = Scenario.line ~seed:"registry-off" [ 64700; 64701 ] in
        let alice = Scenario.host net ~as_number:64700 ~name:"off-a" ~credential:"a" in
        let bob = Scenario.host net ~as_number:64701 ~name:"off-b" ~credential:"b" in
        let ep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
        let session = Scenario.connect net alice ~remote:ep.cert in
        ignore (Host.send alice session "while disabled");
        Network.run net;
        let c = Border_router.counters (As_node.border_router (Network.node_exn net 64700)) in
        Alcotest.(check int) "router series = router counter" c.egress_ok
          (egress () - List.nth before 0);
        List.iteri
          (fun i (name, now) ->
            Alcotest.(check bool) name true (now > List.nth before i))
          [
            ("egress moved", egress ());
            ("ms requests moved", ms ());
            ("engine events moved", events ());
            ("link transits moved", transits ());
          ]);
    Alcotest.test_case "keeps no router or host alive" `Quick
      (fun () ->
        let br, host = Sys.opaque_identity (weak_world ()) in
        Gc.full_major ();
        Alcotest.(check bool) "border router collected" false (Weak.check br 0);
        Alcotest.(check bool) "host collected" false (Weak.check host 0));
  ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  Alcotest.run "telemetry"
    [ ("telemetry", telemetry_tests); ("registry", registry_tests) ]
