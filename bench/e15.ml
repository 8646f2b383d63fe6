(* E15: warrant storm — bulk lawful intercept racing live traffic.

   A retention-enabled ISP faces a flood of brokered linkage requests
   (deanonymize / bindings-of / attribute-packet, from an LE principal and
   a peer AS) while customer traffic keeps flowing. Sweeps budget capacity
   against a fixed request count and reports broker throughput, refusal
   breakdown, journal growth + chain verification, and the data-plane
   cost of carrying an attached-but-idle broker (gated at +10%). *)

open Apna
open Apna_crypto
open Harness
open Fixtures
module B = Apna_broker.Broker
module Budget = Apna_broker.Budget
module Journal = Apna_broker.Journal

let le_key = "le-storm-key"
let peer_key = "peer-storm-key"

(* A retention ISP (AS 100) with one local and one remote customer and a
   live session between them, whose packets race the storm. *)
let build_net () =
  let net = Network.create ~seed:"warrant-storm" () in
  let isp = Network.add_as net 100 ~retention:true () in
  let _ = Network.add_as net 300 () in
  Network.connect_as net 100 300 ();
  let alice = Network.add_host net ~as_number:100 ~name:"alice" ~credential:"alice@isp" () in
  let bob = Network.add_host net ~as_number:300 ~name:"bob" ~credential:"bob" () in
  bootstrap [ alice; bob ];
  let bep = endpoint net bob in
  (net, isp, alice, connect ~data0:"live" net alice ~remote:bep.cert)

(* A pile of directly issued EphIDs so the retention log has real depth,
   with egress evidence for half of them. *)
let populate isp ~subscribers ~per_subscriber =
  let mgmt = As_node.management isp in
  let issued =
    List.init (subscribers * per_subscriber) (fun i ->
        let hid = Apna_net.Addr.hid_of_int (0x0a100000 + (i / per_subscriber)) in
        let ek = Keys.make_ephid_keys rng in
        match
          Management.issue_direct mgmt ~now:now0 ~hid ~kx_pub:ek.kx_public
            ~sig_pub:(Ed25519.public_key ek.sig_keypair) ~lifetime:Lifetime.Long
        with
        | Ok cert -> (hid, cert.Cert.ephid)
        | Error e -> failwith (Error.to_string e))
  in
  let audit = Option.get (As_node.audit isp) in
  List.iteri
    (fun i (_, ephid) ->
      if i mod 2 = 0 then
        Audit.record_egress audit ~now:now0 ~ephid ~digest:(Printf.sprintf "digest-%d" i))
    (List.rev issued);
  Array.of_list issued

type storm = {
  capacity : int;
  grants : int;
  refusals : (string * int) list;
  rps : float;
  appended : int;
  retained : int;
  verified : bool;
  live : int;
}

(* One storm at a given budget capacity: [requests] broker calls (80% LE,
   20% peer AS) interleaved with live data-plane traffic. *)
let run_storm ~net ~isp ~alice ~session ~issued ~requests capacity =
  let broker =
    B.for_node isp
      ~budget:(Budget.create ~epoch_s:3600 ~capacity ~refill:(max 1 (capacity / 10)) ())
  in
  let now = Network.now_unix net in
  B.register_requester broker ~id:"le" ~role:B.Law_enforcement ~key:le_key ~now;
  B.register_requester broker ~id:"peer" ~role:B.Peer_as ~key:peer_key ~now;
  let pick = Apna_sim.Rng.create (Int64.of_int (0x5702 + capacity)) in
  let n_issued = Array.length issued in
  let grants = ref 0 and live = ref 0 in
  let refusals = Hashtbl.create 8 in
  let t0 = Monotonic_clock.now () in
  for i = 0 to requests - 1 do
    let le = Apna_sim.Rng.float pick < 0.8 in
    let id, key = if le then ("le", le_key) else ("peer", peer_key) in
    let query =
      let r = Apna_sim.Rng.float pick in
      let any () = issued.(Apna_sim.Rng.int pick n_issued) in
      if le && r < 0.5 then B.Request.Deanonymize (snd (any ()))
      else if le && r < 0.7 then B.Request.Bindings_of (fst (any ()))
      else
        (* Half the attribution probes name digests that were never
           retained — failed queries are charged too. *)
        B.Request.Attribute_packet
          (Printf.sprintf "digest-%d" (Apna_sim.Rng.int pick (2 * n_issued)))
    in
    (match
       B.handle broker ~now:(Network.now_unix net)
         (B.Request.sign ~key ~corr:(Int64.of_int i) ~requester:id ~query)
     with
    | B.Response.Granted _ -> incr grants
    | B.Response.Refused { reason; _ } ->
        let k = Error.kind_label reason in
        Hashtbl.replace refusals k (1 + Option.value ~default:0 (Hashtbl.find_opt refusals k)));
    (* Live traffic races the storm: one data frame per 50 requests. *)
    if i mod 50 = 0 then begin
      (match Host.send alice session (Printf.sprintf "live-%d" i) with
      | Ok () -> incr live
      | Error _ -> ());
      Network.run net
    end
  done;
  let rps = float_of_int requests /. (ns_since t0 /. 1e9) in
  let j = B.journal broker in
  {
    capacity;
    grants = !grants;
    refusals = Hashtbl.fold (fun k n a -> (k, n) :: a) refusals [];
    rps;
    appended = Journal.appended j;
    retained = Journal.length j;
    verified = Result.is_ok (B.verify_journal broker);
    live = !live;
  }

(* Ingress latency samples of a 64B frame addressed to alice's endpoint at
   the ISP's border router. *)
let ingress_samples ~samples net isp =
  let alice = List.find (fun h -> Host.name h = "alice") (As_node.hosts isp) in
  let kha = Option.get (Host.kha alice) in
  let ephid = Ephid.to_bytes (List.hd (Host.endpoints alice)).Host.cert.Cert.ephid in
  let header =
    Apna_net.Apna_header.make ~src_aid:(Apna_net.Addr.aid_of_int 300) ~src_ephid:ephid
      ~dst_aid:(Apna_net.Addr.aid_of_int 100) ~dst_ephid:ephid ()
  in
  let pkt =
    Pkt_auth.seal ~auth_key:kha.auth
      (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:(String.make 64 'x'))
  in
  let br = As_node.border_router isp in
  let now = Network.now_unix net in
  latency_samples ~samples ~batch:32 (fun () ->
      ignore (Border_router.ingress_check br ~now pkt))

(* One more storm, paced on the event engine with the sampler + alert
   engine attached, against a deliberately tiny budget: the
   broker-budget-drain signature must fire as the budget empties. *)
let drain_storm net isp issued =
  let tel = Telemetry.attach net in
  let broker = B.for_node isp ~budget:(Budget.create ~capacity:8 ~refill:1 ()) in
  B.register_requester broker ~id:"le-drain" ~role:B.Law_enforcement ~key:le_key
    ~now:(Network.now_unix net);
  let eng = Network.engine net in
  let requests = 40 and span = 4.0 in
  for i = 0 to requests - 1 do
    Apna_sim.Engine.schedule_in eng
      ~delay:(span *. float_of_int i /. float_of_int requests)
      (fun () ->
        ignore
          (B.handle broker ~now:(Network.now_unix net)
             (B.Request.sign ~key:le_key
                ~corr:(Int64.of_int (100_000 + i))
                ~requester:"le-drain"
                ~query:(B.Request.Deanonymize (snd issued.(i mod Array.length issued))))))
  done;
  Network.run net;
  Telemetry.stop tel;
  let fired = Apna_obs.Alert.fired_rules (Telemetry.alerts tel) in
  line "";
  line "telemetry drain storm (%d requests over %.0f s, capacity 8): rules fired: %s"
    requests span (rules_text fired);
  (fired, Telemetry.export tel)

let run tier =
  let requests = by_tier tier ~quick:600 ~full:1500 in
  let net, isp, alice, session = build_net () in
  let issued =
    populate isp ~subscribers:(by_tier tier ~quick:100 ~full:400) ~per_subscriber:5
  in
  let audit = Option.get (As_node.audit isp) in
  line "retention log: %d issuance / %d egress entries, storm of %d requests"
    (Audit.issuance_count audit) (Audit.egress_count audit) requests;
  line "";
  line "%8s | %8s %8s %8s | %10s | %16s %8s | %5s" "capacity" "requests"
    "grants" "refused" "req/s" "journal app/kept" "live" "ok";
  line "%s" (String.make 92 '-');
  let storms =
    List.map
      (fun capacity ->
        let s = run_storm ~net ~isp ~alice ~session ~issued ~requests capacity in
        let refused = List.fold_left (fun a (_, n) -> a + n) 0 s.refusals in
        line "%8d | %8d %8d %8d | %10.0f | %8d %7d | %5d %5s" capacity requests s.grants
          refused s.rps s.appended s.retained s.live
          (if s.verified then "ok" else "BROKEN");
        List.iter (fun (k, n) -> line "%25s- %s: %d" "" k n) s.refusals;
        (s, refused))
      (by_tier tier ~quick:[ 50; 500 ] ~full:[ 50; 500; 5000 ])
  in

  (* Data-plane gate: an attached-but-idle broker must not tax the ingress
     path. Same packet, same node, measured with the broker installed
     (above) vs a twin network that never attached one. *)
  let samples = by_tier tier ~quick:100 ~full:400 in
  let with_broker = ingress_samples ~samples net isp in
  let net2, isp2, _, _ = build_net () in
  let without_broker = ingress_samples ~samples net2 isp2 in
  let b50 = percentile without_broker 50 and w50 = percentile with_broker 50 in
  let b99 = percentile without_broker 99 and w99 = percentile with_broker 99 in
  line "";
  line "data-plane ingress, 64B frames (broker idle vs absent):";
  line "  p50 %.0f ns vs %.0f ns (%+.1f%%), p99 %.0f ns vs %.0f ns" w50 b50
    ((w50 -. b50) /. b50 *. 100.0)
    w99 b99;
  let fired, timeline = drain_storm net isp issued in
  let gates =
    List.map
      (fun (s, _) -> holds (Printf.sprintf "journal_verified_cap%d" s.capacity) s.verified)
      storms
    @ [
        (* 10% with a small absolute floor so sub-microsecond timer jitter
           cannot flip CI. *)
        gate "idle_broker_ingress_p50_delta_ns" (w50 -. b50)
          (At_most (Float.max (0.10 *. b50) 150.0));
        holds "broker_budget_drain_fired" (List.mem "broker-budget-drain" fired);
      ]
  in
  ( J.Obj
      [
        ( "storms",
          J.List
            (List.map
               (fun (s, refused) ->
                 J.Obj
                   [
                     ("budget_capacity", J.Int s.capacity);
                     ("requests", J.Int requests);
                     ("grants", J.Int s.grants);
                     ("refusals", J.Int refused);
                     ( "refusals_by_reason",
                       J.Obj (List.map (fun (k, n) -> (k, J.Int n)) s.refusals) );
                     ("broker_rps", J.Float s.rps);
                     ("journal_appended", J.Int s.appended);
                     ("journal_retained", J.Int s.retained);
                     ("journal_verified", J.Bool s.verified);
                   ])
               storms) );
        ( "data_plane",
          J.Obj
            [
              ("idle_broker_p50_ns", J.Float w50);
              ("no_broker_p50_ns", J.Float b50);
              ("idle_broker_p99_ns", J.Float w99);
              ("no_broker_p99_ns", J.Float b99);
            ] );
        ("telemetry", J.Obj [ ("rules_fired", rules_json fired); ("timeline", timeline) ]);
      ],
    gates )

let experiment =
  {
    id = "E15";
    title = "WARRANT-STORM";
    paper_ref = "brokered linkage under bulk lawful intercept";
    run;
  }
