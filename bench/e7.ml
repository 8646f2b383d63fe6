(* E7: EphID granularity ablation (§VIII-A). A fixed 12-flow scenario in
   simulated time, so both tiers run the same one. *)

open Apna
open Harness
open Fixtures

let flows = 12
let packets_per_flow = 4

let conn_id_of (frame : Session.Frame.f) =
  match frame with
  | Init { conn_id; _ }
  | Accept { conn_id; _ }
  | Data { conn_id; _ }
  | Fin { conn_id; _ }
  | Rekey { conn_id; _ }
  | Rekey_ack { conn_id; _ } ->
      conn_id

let run_granularity granularity =
  let net = Network.create ~seed:"e7" () in
  List.iter (fun a -> ignore (Network.add_as net a ())) [ 64500; 64501; 64502 ];
  Network.connect_as net 64500 64501 ();
  Network.connect_as net 64501 64502 ();
  let sender =
    Network.add_host net ~as_number:64500 ~name:"sender" ~credential:"s" ~granularity ()
  in
  let receiver = Network.add_host net ~as_number:64502 ~name:"recv" ~credential:"r" () in
  bootstrap [ sender; receiver ];
  let rep = endpoint net receiver in
  (* The adversary observes all inter-AS packets (tap at the transit link)
     and records source EphIDs per connection. *)
  let observed : (int64, string list) Hashtbl.t = Hashtbl.create 64 in
  Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
      if pkt.proto = Apna_net.Packet.Data then
        match Session.Frame.of_bytes pkt.payload with
        | Ok frame ->
            let conn = conn_id_of frame in
            let seen = Option.value ~default:[] (Hashtbl.find_opt observed conn) in
            Hashtbl.replace observed conn (pkt.header.src_ephid :: seen)
        | Error _ -> ());
  for i = 1 to flows do
    Host.connect sender ~remote:rep.cert ~data0:"p0"
      ~app:(Printf.sprintf "app-%d" (i mod 3))
      (fun session ->
        for p = 1 to packets_per_flow - 1 do
          ignore (Host.send sender session (Printf.sprintf "p%d" p))
        done)
  done;
  Network.run net;
  let conns = Hashtbl.fold (fun _ l acc -> List.sort_uniq compare l :: acc) observed [] in
  (* Inter-flow linkability: fraction of connection pairs sharing any
     source EphID (the adversary's flow-correlation success). *)
  let pairs = ref 0 and linked = ref 0 in
  List.iteri
    (fun i ea ->
      List.iteri
        (fun j eb ->
          if j > i then begin
            incr pairs;
            if List.exists (fun e -> List.mem e eb) ea then incr linked
          end)
        conns)
    conns;
  (* Intra-flow: can the adversary even group one flow's packets by source
     EphID? *)
  let multi = List.filter (fun e -> List.length e > 1) conns in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  ( Host.ephid_requests_sent sender,
    Management.issued_count (As_node.management (Network.node_exn net 64500)),
    ratio !linked !pairs,
    ratio (List.length multi) (List.length conns),
    List.length conns )

let run _tier =
  line "";
  line "%-22s | %10s %9s | %12s %14s" "granularity" "host reqs" "MS load"
    "flow-linkage" "pkt-unlinkable";
  line "%s" (String.make 78 '-');
  let rows =
    List.map
      (fun (name, g) ->
        let reqs, ms_load, inter, intra, conns = run_granularity g in
        line "%-22s | %10d %9d | %11.0f%% %13.0f%%  (%d flows observed)" name
          reqs ms_load (inter *. 100.0) (intra *. 100.0) conns;
        J.Obj
          [
            ("granularity", J.Str name);
            ("host_requests", J.Int reqs);
            ("ms_load", J.Int ms_load);
            ("flow_linkage", J.Float inter);
            ("packet_unlinkable", J.Float intra);
            ("flows_observed", J.Int conns);
          ])
      [
        ("per-flow", Granularity.Per_flow);
        ("per-host", Granularity.Per_host);
        ("per-application", Granularity.Per_application "default");
        ("per-packet", Granularity.Per_packet);
      ]
  in
  line "";
  line "shape check (§VIII-A): per-flow and per-packet defeat flow";
  line "correlation (0%% linkage); per-host is cheapest but fully linkable;";
  line "per-packet additionally splinters flows (packets unlinkable) at the";
  line "price of MS load.";
  (J.List rows, [])

let experiment =
  {
    id = "E7";
    title = "GRANULARITY-ABLATION";
    paper_ref = "§VIII-A (four granularities)";
    run;
  }
