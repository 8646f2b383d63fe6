(* E13: control-plane convergence under injected link faults. *)

open Apna
open Harness
open Fixtures
module Link = Apna_net.Link
module Event = Apna_obs.Event

type row = {
  loss : float;
  converged : bool;
  json : J.t;
  journeys : J.t;
  fired : string list option;  (** Rules the telemetry flood fired, if run. *)
  timeline : J.t;
}

let sweep_row ~requests loss =
  let faults = Link.make_faults ~loss ~duplicate:(loss /. 2.0) ~reorder:0.1 ~jitter_ms:1.0 () in
  (* Flight recorder on for the sweep: each row's journeys feed the
     "journeys" JSON section. Cleared per row so counts don't mix. *)
  let ev = Event.default in
  Event.clear ev;
  Event.set_enabled ev true;
  let net = Network.create ~seed:(Printf.sprintf "e13-%.2f" loss) () in
  ignore (Network.add_as net 100 ());
  ignore (Network.add_as net 200 ());
  ignore (Network.add_as net 300 ~dns_zone:"example.net" ());
  Network.connect_as net 100 200 ~link:(Link.make ~faults ()) ();
  Network.connect_as net 200 300 ~link:(Link.make ~faults ()) ();
  if loss > 0.0 then Network.set_host_faults net (Some (Link.make_faults ~loss ()));
  let alice = Network.add_host net ~as_number:100 ~name:"alice" ~credential:"a" () in
  let bob = Network.add_host net ~as_number:300 ~name:"bob" ~credential:"b" () in
  bootstrap [ alice; bob ];
  Network.run net;
  (* Server publish, client resolve, session establishment — the
     acceptance flow — plus a batch of EphID issuances. *)
  let published = ref false in
  Host.publish bob ~name:"svc.example.net" (fun () -> published := true);
  Network.run net;
  let dns_cert = Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300))) in
  let record = ref None in
  Host.dns_lookup alice ~name:"svc.example.net" ~dns:dns_cert (fun r -> record := r);
  Network.run net;
  Option.iter
    (fun (r : Dns_service.Record.t) ->
      Host.connect alice ~remote:r.cert ~data0:"probe" ~expect_accept:true (fun _ -> ()))
    !record;
  let ok = ref 0 and timed_out = ref 0 in
  for _ = 1 to requests do
    Host.request_ephid_r alice (function Ok _ -> incr ok | Error _ -> incr timed_out)
  done;
  Network.run net;
  let established = List.exists Session.established (Host.sessions alice) in
  let retries = Host.rpc_retries alice + Host.rpc_retries bob in
  let timeouts = Host.rpc_timeouts alice + Host.rpc_timeouts bob in
  let sum f =
    let link a b = Option.get (Network.link_fault_stats net a b) in
    f (link 100 200) + f (link 200 300) + f (Network.host_fault_stats net)
  in
  let lost = sum (fun s -> s.Link.lost) in
  let duplicated = sum (fun s -> s.Link.duplicated) in
  let reordered = sum (fun s -> s.Link.reordered) in
  let converged =
    !published && !record <> None && established
    && !ok + !timed_out = requests
    && Host.pending_rpc_count alice = 0
    && Host.pending_rpc_count bob = 0
  in
  line "%5.0f%% %5s %8d %8d %8d %9d %7d %6d/%-3d" (loss *. 100.0)
    (if converged then "yes" else "NO")
    !ok !timed_out retries timeouts lost duplicated reordered;
  Event.set_enabled ev false;
  let journeys = Apna_obs.Journey.assemble ev in
  let delivered =
    List.length
      (List.filter
         (fun (j : Apna_obs.Journey.t) -> j.outcome = Apna_obs.Journey.Delivered)
         journeys)
  in
  if Event.evicted ev > 0 then
    line "        (%d flight-recorder events evicted at %.0f%% loss)" (Event.evicted ev)
      (loss *. 100.0);
  let journeys_json =
    J.Obj
      [
        ("loss", J.Float loss);
        ("total", J.Int (List.length journeys));
        ("delivered", J.Int delivered);
        ("not_delivered", J.Int (List.length journeys - delivered));
        ("events_recorded", J.Int (Event.recorded ev));
        ("events_evicted", J.Int (Event.evicted ev));
        ( "outcomes",
          J.Obj
            (List.map (fun (label, n) -> (label, J.Int n)) (Apna_obs.Journey.summary journeys))
        );
      ]
  in
  (* Telemetry phase: with the convergence row measured and its journeys
     banked, pace a data flood through the same faulted links with the
     sampler + alert engine attached. Duplicated frames hit the session
     replay windows (replay-flood), lost frames feed the link-loss rate
     rule. *)
  let fired, timeline =
    match List.find_opt Session.established (Host.sessions alice) with
    | Some s when loss > 0.0 ->
        let tel = Telemetry.attach net in
        let eng = Network.engine net in
        let msgs = 2000 and span_s = 3.0 in
        for i = 0 to msgs - 1 do
          Apna_sim.Engine.schedule_in eng
            ~delay:(span_s *. float_of_int i /. float_of_int msgs)
            (fun () -> ignore (Host.send alice s (Printf.sprintf "f%04d" i)))
        done;
        Network.run net;
        Telemetry.stop tel;
        (Some (Apna_obs.Alert.fired_rules (Telemetry.alerts tel)), Telemetry.export tel)
    | _ -> (None, J.Null)
  in
  {
    loss;
    converged;
    json =
      J.Obj
        [
          ("loss", J.Float loss);
          ("converged", J.Bool converged);
          ("ephids_ok", J.Int !ok);
          ("ephids_timeout", J.Int !timed_out);
          ("rpc_retries", J.Int retries);
          ("rpc_timeouts", J.Int timeouts);
          ("frames_lost", J.Int lost);
          ("frames_duplicated", J.Int duplicated);
          ("frames_reordered", J.Int reordered);
        ];
    journeys = journeys_json;
    fired;
    timeline;
  }

let run tier =
  let requests = by_tier tier ~quick:10 ~full:40 in
  line "";
  line "%6s %5s %8s %8s %8s %9s %7s %10s" "loss" "conv" "ephid-ok" "ephid-to"
    "retries" "timeouts" "lost" "dup/reord";
  let rows = List.map (sweep_row ~requests) [ 0.0; 0.02; 0.05; 0.10; 0.15; 0.20 ] in
  Event.clear Event.default;
  line "";
  List.iter
    (fun r ->
      Option.iter
        (fun fired ->
          line "  telemetry at %2.0f%% loss: rules fired: %s" (r.loss *. 100.0)
            (rules_text fired))
        r.fired)
    rows;
  (* Acceptance at 10% loss: the control plane converges via retries, and
     the flood trips both attack signatures. *)
  let at10 = List.find (fun r -> r.loss = 0.10) rows in
  let fired10 = Option.value ~default:[] at10.fired in
  let gates =
    [
      holds "converged_at_10pct_loss" at10.converged;
      holds "replay_flood_fired_at_10pct_loss" (List.mem "replay-flood" fired10);
      holds "link_loss_fired_at_10pct_loss" (List.mem "link-loss" fired10);
    ]
  in
  ( J.Obj
      [
        ("rows", J.List (List.map (fun r -> r.json) rows));
        ("journeys", J.List (List.map (fun r -> r.journeys) rows));
        ( "telemetry",
          J.Obj
            [
              ( "rows",
                J.List
                  (List.filter_map
                     (fun r ->
                       Option.map
                         (fun fired ->
                           J.Obj
                             [ ("loss", J.Float r.loss); ("rules_fired", rules_json fired) ])
                         r.fired)
                     rows) );
              ("timeline_10pct_loss", at10.timeline);
            ] );
      ],
    gates )

let experiment =
  {
    id = "E13";
    title = "FAULT-SWEEP";
    paper_ref = "loss tolerance of the retransmitting control plane";
    run;
  }
