(* Flight-recorder acceptance: a cross-AS data packet under the E13
   topology yields a journey whose hop sequence is exactly
   host → egress → link → ingress → … → deliver, a packet killed by
   injected loss yields the same prefix ending in a tagged loss event, a
   retransmitted control request repeats its send in one journey, and the
   Chrome-trace export of a live run parses as trace-event JSON. *)

open Apna
open Apna_net
module Event = Apna_obs.Event
module Journey = Apna_obs.Journey
module Json = Apna_obs.Json
module Chrome_trace = Apna_obs.Chrome_trace

(* The e2e line topology — alice@AS100, transit AS200, bob@AS300 — with an
   optional fault model on the first inter-AS link only, so the control
   plane (all intra-AS) bootstraps cleanly even under total loss. *)
let make_world ?first_hop_faults () =
  let net = Network.create ~seed:"flight" () in
  let _ = Network.add_as net 100 () in
  let _ = Network.add_as net 200 () in
  let _ = Network.add_as net 300 () in
  let first_link =
    match first_hop_faults with
    | Some faults -> Link.make ~faults ()
    | None -> Link.make ()
  in
  Network.connect_as net 100 200 ~link:first_link ();
  Network.connect_as net 200 300 ();
  let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
  let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
  (net, alice, Scenario.endpoint net bob)

(* Record only the scenario under test: the world above is built with the
   recorder off, so bootstrap and EphID traffic leave no events behind. *)
let with_recorder f =
  Event.clear Event.default;
  Event.set_enabled Event.default true;
  Fun.protect
    ~finally:(fun () ->
      Event.set_enabled Event.default false;
      Event.clear Event.default)
    f

let stages (j : Journey.t) =
  List.map (fun (r : Event.record) -> Event.stage_label r.kind) j.events

(* The packet under test is the only cross-AS one recorded: any control
   traffic the data plane triggers stays inside one AS and never produces
   a [Link_transit] event. *)
let cross_as_journey journeys =
  match
    List.filter
      (fun (j : Journey.t) ->
        List.exists
          (fun (r : Event.record) ->
            match r.kind with Event.Link_transit _ -> true | _ -> false)
          j.events)
      journeys
  with
  | [ j ] -> j
  | js -> Alcotest.failf "expected one cross-AS journey, got %d" (List.length js)

let flight_tests =
  [
    Alcotest.test_case "fault-free cross-AS packet records every hop" `Quick
      (fun () ->
        let net, alice, ep = make_world () in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let journeys = Journey.assemble Event.default in
            let j = cross_as_journey journeys in
            Alcotest.(check (list string))
              "hop sequence"
              [
                "host.send"; "border_router.egress"; "link.transit";
                "border_router.ingress"; "link.transit"; "border_router.ingress";
                "as_node.deliver";
              ]
              (stages j);
            (match List.map (fun (r : Event.record) -> r.kind) j.events with
            | [
             Event.Host_send { aid = 100; host = "alice" };
             Event.Br_egress { aid = 100; outcome = Event.Egress_ok };
             Event.Link_transit { src = 100; dst = 200; fate = Event.Delivered };
             Event.Br_ingress { aid = 200; outcome = Event.Ingress_forward 300 };
             Event.Link_transit { src = 200; dst = 300; fate = Event.Delivered };
             Event.Br_ingress { aid = 300; outcome = Event.Ingress_deliver };
             Event.Deliver { aid = 300; _ };
            ] ->
                ()
            | ks ->
                Alcotest.failf "unexpected hop details: %s"
                  (String.concat " -> " (List.map Event.describe ks)));
            (match j.outcome with
            | Journey.Delivered -> ()
            | o -> Alcotest.failf "outcome: %s" (Journey.outcome_label o));
            (* Causal order is also temporal order. *)
            ignore
              (List.fold_left
                 (fun prev (r : Event.record) ->
                   if r.time < prev then
                     Alcotest.failf "time went backwards at %s"
                       (Event.stage_label r.kind);
                   r.time)
                 0.0 j.events)));
    Alcotest.test_case "loss on the first link tags the journey" `Quick
      (fun () ->
        let net, alice, ep =
          make_world ~first_hop_faults:(Link.make_faults ~loss:1.0 ()) ()
        in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let j = cross_as_journey (Journey.assemble Event.default) in
            Alcotest.(check (list string))
              "prefix ends at the lossy link"
              [ "host.send"; "border_router.egress"; "link.transit" ]
              (stages j);
            match j.outcome with
            | Journey.Lost_on_link { src = 100; dst = 200; fate = Event.Lost }
              ->
                ()
            | o -> Alcotest.failf "outcome: %s" (Journey.outcome_label o)));
    Alcotest.test_case "a retransmitted EphID request repeats host.send" `Quick
      (fun () ->
        let net, alice, _ = make_world () in
        (* Every access-link crossing is lost, so the request times out
           after its full retransmission ladder. Each attempt re-sends the
           same bytes, hence the same MAC and the same journey. *)
        Network.set_host_faults net (Some (Link.make_faults ~loss:1.0 ()));
        with_recorder (fun () ->
            Host.request_ephid alice (fun _ -> ());
            Network.run net;
            let sends j = List.length (List.filter (( = ) "host.send") (stages j)) in
            let most =
              List.fold_left
                (fun acc j -> max acc (sends j))
                0
                (Journey.assemble Event.default)
            in
            Alcotest.(check bool) "the request was retransmitted" true
              (Host.rpc_retries alice >= 1);
            Alcotest.(check bool)
              (Printf.sprintf "%d host.send in one journey (>= 2)" most)
              true (most >= 2)));
    Alcotest.test_case "chrome-trace export of a live run parses" `Quick
      (fun () ->
        let net, alice, ep = make_world () in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let text = Chrome_trace.to_string Event.default in
            match Json.parse text with
            | Error e -> Alcotest.failf "trace does not parse: %s" e
            | Ok (Json.List entries) ->
                if entries = [] then Alcotest.fail "trace is empty";
                List.iter
                  (fun entry ->
                    (match Json.member "name" entry with
                    | Some (Json.Str _) -> ()
                    | _ -> Alcotest.fail "entry without string name");
                    (match Json.member "ph" entry with
                    | Some (Json.Str ("X" | "i")) -> ()
                    | _ -> Alcotest.fail "entry without X/i phase");
                    match Option.bind (Json.member "ts" entry) Json.number with
                    | Some ts when ts >= 0.0 -> ()
                    | _ -> Alcotest.fail "entry without numeric ts")
                  entries
            | Ok _ -> Alcotest.fail "trace is not a JSON array"));
  ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  Alcotest.run "flight" [ ("journeys", flight_tests) ]
