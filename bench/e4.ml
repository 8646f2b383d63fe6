(* E4: connection establishment latency (§VII-C). Every number is
   simulated time from one seeded handshake, so both tiers run the same
   scenarios. *)

open Apna
open Harness
open Fixtures

(* A fresh two-AS network with a bootstrapped server (AS 64500, which runs
   the "z" DNS zone) and client (AS 64502). *)
let run_case name setup =
  let net = Scenario.line ~seed:("e4-" ^ name) ~dns:(64500, "z") [ 64500; 64502 ] in
  let server = Scenario.host net ~as_number:64500 ~name:"srv" ~credential:"s" in
  let client = Scenario.host net ~as_number:64502 ~name:"cli" ~credential:"c" in
  setup net server client

(* The server publishes "svc.z"; the client resolves it. *)
let resolve net server client =
  Host.publish server ~name:"svc.z" (fun () -> ());
  Network.run net;
  let dns_cert = Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 64500))) in
  let record = ref None in
  Host.dns_lookup client ~name:"svc.z" ~dns:dns_cert (fun r -> record := r);
  Network.run net;
  Option.get !record

(* Simulated time of the first event [await] stamps after [start] runs. *)
let first_at net await start =
  let t = ref nan in
  await (fun () -> if Float.is_nan !t then t := Network.now_f net);
  let t0 = Network.now_f net in
  start ();
  Network.run net;
  !t -. t0

let run _tier =
  (* Reference RTT from ping between prewarmed endpoints. *)
  let base_rtt =
    run_case "rtt" (fun net server client ->
        let sep = Scenario.endpoint net server in
        (* Warm the client's EphID pool so we time the wire, not issuance. *)
        ignore (Scenario.endpoint net client);
        let rtt = ref nan in
        Host.ping client ~dst_aid:(Apna_net.Addr.aid_of_int 64500)
          ~dst_ephid:sep.cert.ephid (fun r -> rtt := r);
        Network.run net;
        !rtt)
  in
  let at_server server k = Host.on_data server (fun ~session:_ ~data:_ -> k ()) in
  (* Case A: host-to-host, data on the first packet (0-RTT, §VII-C). *)
  let first_byte_0rtt =
    run_case "0rtt" (fun net server client ->
        let sep = Scenario.endpoint net server in
        first_at net (at_server server) (fun () ->
            Host.connect client ~remote:sep.cert ~data0:"x" (fun _ -> ())))
  in
  (* Case B: client-server via a receive-only EphID, 0-RTT data; the
     server answers, and the reply's arrival at the client is timed too. *)
  let cs_first_byte, cs_first_reply =
    run_case "cs" (fun net server client ->
        let record = resolve net server client in
        let t_arrive = ref nan and t_reply = ref nan in
        Host.on_data server (fun ~session ~data:_ ->
            if Float.is_nan !t_arrive then t_arrive := Network.now_f net;
            ignore (Host.send server session "reply"));
        Host.on_data client (fun ~session:_ ~data:_ ->
            if Float.is_nan !t_reply then t_reply := Network.now_f net);
        let t0 = Network.now_f net in
        Host.connect client ~remote:record.cert ~data0:"request"
          ~expect_accept:record.receive_only (fun _ -> ());
        Network.run net;
        (!t_arrive -. t0, !t_reply -. t0))
  in
  (* Case C: client-server, no 0-RTT (privacy-conservative, 0.5 RTT more):
     data is queued until the server's Accept. *)
  let cs_no0rtt =
    run_case "cs-no0" (fun net server client ->
        let record = resolve net server client in
        first_at net (at_server server) (fun () ->
            Host.connect client ~remote:record.cert ~data0:""
              ~expect_accept:record.receive_only (fun session ->
                ignore (Host.send client session "request"))))
  in
  line "";
  line "%-46s %10s %10s" "scenario" "seconds" "RTTs";
  let rows =
    [
      ("reference ping RTT", "ping_rtt", base_rtt);
      ("host-to-host, 0-RTT data (first byte at peer)", "h2h_0rtt_first_byte", first_byte_0rtt);
      ("client-server via recv-only, 0-RTT (at server)", "cs_0rtt_first_byte", cs_first_byte);
      ("client-server, 0-RTT (first reply at client)", "cs_0rtt_first_reply", cs_first_reply);
      ("client-server, no 0-RTT (first byte at server)", "cs_no0rtt_first_byte", cs_no0rtt);
    ]
  in
  List.iter (fun (label, _, v) -> line "%-46s %10.4f %10.2f" label v (v /. base_rtt)) rows;
  line "";
  line "paper: basic 1 RTT (0 with data on first packet); client-server 1.5";
  line "RTT, reducible to 0.5 (no 0-RTT data) or ~0 (0-RTT under the";
  line "recv-only key). EphID issuance round trips inside the source AS are";
  line "included in the rows above.";
  ( J.Obj (List.map (fun (_, key, v) -> (key ^ "_s", J.Float v)) rows),
    [] )

let experiment =
  { id = "E4"; title = "CONN-ESTABLISH-RTT"; paper_ref = "§VII-C (latency discussion)"; run }
