(* The measured system and the closed-loop load that drives it: a client in
   AS64500 and a server in AS64502 on a 3-AS line through transit AS64501
   (default 10 Gbps / 5 ms links, no faults). The bench only calls public
   functions; everything it learns comes from their results, callbacks and
   counters. *)

open Apna
module Engine = Apna_sim.Engine

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let client_as = 64500
let transit_as = 64501
let server_as = 64502

type t = {
  net : Network.t;
  nodes : As_node.t array;  (** client, transit and server AS, in that order *)
  client : Host.t;
  server : Host.t;
  telemetry : Telemetry.t option;  (** attached on the observed workload *)
  mutable steps : int;  (** engine events processed *)
  mutable failures : int;  (** correctness violations seen by the load loops *)
}

(* Library calls the bench makes, and the bench's own code that runs inside
   an engine step (delivery callbacks, connect continuations). The traced
   run times the former and subtracts the latter from the step around it. *)
type call = Send | Connect | Close

type instr = {
  call : 'a. call -> (unit -> 'a) -> 'a;
  bench : 'a. (unit -> 'a) -> 'a;
  delivered : unit -> unit;  (** a payload reached the server's handler *)
  drain : t -> unit;  (** run the engine to quiescence *)
}

let plain =
  {
    call = (fun _ f -> f ());
    bench = (fun f -> f ());
    delivered = ignore;
    drain =
      (fun w ->
        let engine = Network.engine w.net in
        while Engine.step engine do
          w.steps <- w.steps + 1
        done);
  }

let fail w = w.failures <- w.failures + 1

(* Payloads come from the seed alone. Each carries its op's index in its
   first bytes, so no two frames of a run are equal and a duplicate or a
   stale frame can never pass for the one expected. *)
type payloads = { pool : string array; mutable next : int }

let payloads ~seed ~size =
  let rng = Apna_sim.Rng.create (Int64.of_int (seed * 7919 + size)) in
  {
    pool =
      Array.init 64 (fun _ ->
          String.init size (fun _ -> Char.chr (Apna_sim.Rng.int rng 256)));
    next = 0;
  }

let next_payload p =
  let i = p.next in
  p.next <- i + 1;
  let b = Bytes.of_string p.pool.(i land 63) in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.unsafe_to_string b

let create ~seed ~observed =
  let net = Network.create ~seed:(Printf.sprintf "perf-%d" seed) () in
  let nodes =
    Array.map (fun n -> Network.add_as net n ()) [| client_as; transit_as; server_as |]
  in
  Network.connect_as net client_as transit_as ();
  Network.connect_as net transit_as server_as ();
  let client =
    Network.add_host net ~as_number:client_as ~name:"client" ~credential:"client" ()
  in
  let server =
    Network.add_host net ~as_number:server_as ~name:"server" ~credential:"server" ()
  in
  (match (Host.bootstrap client, Host.bootstrap server) with
  | Ok (), Ok () -> ()
  | _ -> failwith "host bootstrap failed");
  let telemetry =
    if observed then begin
      Apna_obs.Span.set_enabled Apna_obs.Span.default true;
      Apna_obs.Event.set_enabled Apna_obs.Event.default true;
      Some (Telemetry.attach net)
    end
    else None
  in
  { net; nodes; client; server; telemetry; steps = 0; failures = 0 }

let request_endpoint w host ?receive_only lifetime =
  let ep = ref None in
  Host.request_ephid host ~lifetime ?receive_only (fun e -> ep := Some e);
  plain.drain w;
  match !ep with Some e -> e | None -> failwith "EphID issuance failed"

(* ------------------------------------------------------------------ *)
(* One closed-loop phase: [total] ops, at most a fixed number in flight, a
   new op started only when one completes. *)

type phase = {
  total : int;
  mutable started : int;
  mutable completed : int;
  lat_us : float array;  (** per completed op: start to completion *)
  done_ns : float array;  (** per completed op: phase start to completion *)
  t0 : int64;
}

(* The telemetry tick disarms whenever the engine goes quiet; every phase
   re-arms it. *)
let phase w total =
  Option.iter Telemetry.kick w.telemetry;
  {
    total;
    started = 0;
    completed = 0;
    lat_us = Array.make total 0.0;
    done_ns = Array.make total 0.0;
    t0 = now_ns ();
  }

let complete p ~start =
  p.lat_us.(p.completed) <- ns_since start /. 1e3;
  p.done_ns.(p.completed) <- ns_since p.t0;
  p.completed <- p.completed + 1

let latencies p = Array.sub p.lat_us 0 p.completed

(* Ops per second over each run of [sub] consecutive completions. *)
let rates p ~sub =
  List.init (p.completed / sub) (fun i ->
      let t0 = if i = 0 then 0.0 else p.done_ns.((i * sub) - 1) in
      float_of_int sub /. ((p.done_ns.(((i + 1) * sub) - 1) -. t0) /. 1e9))

(* Every op the phase started must complete exactly once. *)
let finish w p =
  if p.completed < p.total then w.failures <- w.failures + p.total - p.completed

(* ------------------------------------------------------------------ *)
(* Stream workloads: long-lived per-flow sessions to one server EphID, one
   frame in flight per session. *)

type slot = {
  session : Session.t;
  mutable inflight : string;
  mutable awaiting : bool;
  mutable sent_at : int64;
}

type stream = { sw : t; slots : slot array; spay : payloads }

let send_frame st instr slot =
  let w = st.sw in
  slot.inflight <- next_payload st.spay;
  slot.awaiting <- true;
  slot.sent_at <- now_ns ();
  match instr.call Send (fun () -> Host.send w.client slot.session slot.inflight) with
  | Ok () -> ()
  | Error _ -> fail w

(* Runs [total] frames over [slots], each slot keeping one frame in flight. *)
let run_stream st instr ~slots ~total =
  let w = st.sw in
  let p = phase w total in
  let by_conn = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace by_conn (Session.conn_id s.session) s) slots;
  Host.on_data w.server (fun ~session ~data ->
      instr.delivered ();
      instr.bench (fun () ->
          match Hashtbl.find_opt by_conn (Session.conn_id session) with
          | Some slot when slot.awaiting ->
              if not (String.equal data slot.inflight) then fail w;
              slot.awaiting <- false;
              complete p ~start:slot.sent_at;
              if p.started < p.total then begin
                p.started <- p.started + 1;
                send_frame st instr slot
              end
          | _ -> fail w));
  Array.iter
    (fun slot ->
      if p.started < p.total then begin
        p.started <- p.started + 1;
        send_frame st instr slot
      end)
    slots;
  instr.drain w;
  finish w p;
  p

let setup_stream ~seed ~payload ~observed ~sessions =
  let w = create ~seed ~observed in
  Host.set_ephid_lifetime w.client Lifetime.Long;
  let server_ep = request_endpoint w w.server Lifetime.Long in
  let opened = ref [] in
  for _ = 1 to sessions do
    Host.connect w.client ~remote:server_ep.cert (fun s -> opened := s :: !opened)
  done;
  plain.drain w;
  if List.length !opened <> sessions then failwith "session set-up failed";
  let slots =
    Array.of_list
      (List.rev_map
         (fun session ->
           { session; inflight = ""; awaiting = false; sent_at = 0L })
         !opened)
  in
  let st = { sw = w; slots; spay = payloads ~seed ~size:payload } in
  (* Warm-up: fill the EphID caches and the session state on every path. *)
  ignore (run_stream st plain ~slots ~total:(8 * sessions));
  st

(* ------------------------------------------------------------------ *)
(* Churn: each flow connects to the server's receive-only EphID with 0-RTT
   data, queues 3 more frames for the 0.5-RTT flush, and is closed once the
   server has all 4; the client's per-flow EphID and the server's serving
   EphID are then released. *)

let frames_per_flow = 4

type flow = {
  session : Session.t;  (** the client's end *)
  expect : string array;
  mutable got : int;
  started_at : int64;
}

type churn = { cw : t; ro_cert : Cert.t; cpay : payloads }

let run_churn ch instr ~concurrency ~total =
  let w = ch.cw in
  let p = phase w total in
  let flows : (int64, flow) Hashtbl.t = Hashtbl.create 64 in
  let start () =
    if p.started < p.total then begin
      p.started <- p.started + 1;
      let expect = Array.init frames_per_flow (fun _ -> next_payload ch.cpay) in
      let started_at = now_ns () in
      instr.call Connect (fun () ->
          Host.connect w.client ~remote:ch.ro_cert ~data0:expect.(0)
            ~expect_accept:true (fun session ->
              instr.bench (fun () ->
                  Hashtbl.replace flows (Session.conn_id session)
                    { session; expect; got = 0; started_at };
                  for i = 1 to frames_per_flow - 1 do
                    match
                      instr.call Send (fun () ->
                          Host.send w.client session expect.(i))
                    with
                    | Ok () -> ()
                    | Error _ -> fail w
                  done)))
    end
  in
  Host.on_data w.server (fun ~session ~data ->
      instr.delivered ();
      instr.bench (fun () ->
          let conn = Session.conn_id session in
          match Hashtbl.find_opt flows conn with
          | None -> fail w
          | Some flow ->
              if not (String.equal data flow.expect.(flow.got)) then fail w;
              flow.got <- flow.got + 1;
              if flow.got = frames_per_flow then begin
                Hashtbl.remove flows conn;
                complete p ~start:flow.started_at;
                (match
                   instr.call Close (fun () -> Host.close w.client flow.session)
                 with
                | Ok () -> ()
                | Error _ -> fail w);
                start ()
              end));
  for _ = 1 to concurrency do
    start ()
  done;
  instr.drain w;
  finish w p;
  p

let setup_churn ~seed ~payload =
  let w = create ~seed ~observed:false in
  let ro = request_endpoint w w.server ~receive_only:true Lifetime.Long in
  let ch = { cw = w; ro_cert = ro.cert; cpay = payloads ~seed ~size:payload } in
  ignore (run_churn ch plain ~concurrency:4 ~total:16);
  ch

(* ------------------------------------------------------------------ *)
(* Correctness at quiescence, and the public counters the bench reads. *)

let check_quiescent w ~churn =
  Array.iter
    (fun node ->
      List.iter
        (fun (_, n) -> w.failures <- w.failures + n)
        (Border_router.drop_reasons (As_node.border_router node)))
    w.nodes;
  List.iter
    (fun h ->
      w.failures <- w.failures + Host.rpc_timeouts h + Host.pending_rpc_count h)
    [ w.client; w.server ];
  if churn then
    w.failures <-
      w.failures + List.length (Host.sessions w.server)
      + List.length (Host.sessions w.client)

let sum_nodes w f = Array.fold_left (fun acc n -> acc + f n) 0 w.nodes

(* Public counters, summed over the three ASes or the two hosts. *)
let counters w =
  let cache f =
    float_of_int
      (sum_nodes w (fun n -> f (Border_router.ephid_cache_stats (As_node.border_router n))))
  in
  let gc = Gc.quick_stat () in
  [
    ("hits", cache (fun c -> c.hits));
    ("misses", cache (fun c -> c.misses));
    ("invalidations", cache (fun c -> c.invalidations));
    ("generation", float_of_int (sum_nodes w (fun n -> Revocation.generation (As_node.revoked n))));
    ("issued", float_of_int (sum_nodes w (fun n -> Management.issued_count (As_node.management n))));
    ("packets", float_of_int (Host.packets_sent w.client + Host.packets_sent w.server));
    ("steps", float_of_int w.steps);
    ("minor_words", gc.minor_words);
    ("promoted_words", gc.promoted_words);
    ("major_collections", float_of_int gc.major_collections);
  ]

let drops w =
  sum_nodes w (fun n -> (Border_router.counters (As_node.border_router n)).dropped)

let delta before after = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after
let add a b = List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a b

(* Packets sent and EphIDs issued or released: moves whenever a step did
   control-plane work or a host sent on its own account. *)
let activity w =
  Host.packets_sent w.client + Host.packets_sent w.server
  + sum_nodes w (fun n ->
        let m = As_node.management n in
        Management.issued_count m + Management.released_count m)

(* ------------------------------------------------------------------ *)
(* A live, established session for the replay ledger, and packets of it
   captured where they leave the client's AS. *)

type live = {
  local : Host.endpoint;  (** the client's endpoint for [session] *)
  remote : Host.endpoint;  (** the server's endpoint for [session] *)
  packets : Apna_net.Packet.t array;
  payload : string;
}

let endpoint_of host cert =
  List.find (fun (e : Host.endpoint) -> Cert.equal e.cert cert) (Host.endpoints host)

let capture w session ~payloads ~n =
  let captured = ref [] and got = ref None in
  Network.set_tap w.net (fun ~from ~to_:_ pkt ->
      if Apna_net.Addr.aid_to_int from = client_as && pkt.proto = Apna_net.Packet.Data
      then captured := pkt :: !captured);
  Host.on_data w.server (fun ~session:_ ~data -> got := Some data);
  let last = ref "" in
  for _ = 1 to n do
    let data = next_payload payloads in
    got := None;
    (match Host.send w.client session data with Ok () -> () | Error _ -> fail w);
    plain.drain w;
    if !got <> Some data then fail w;
    last := data
  done;
  Network.set_tap w.net (fun ~from:_ ~to_:_ _ -> ());
  let packets = Array.of_list (List.rev !captured) in
  if Array.length packets <> n then fail w;
  {
    local = endpoint_of w.client (Session.local_cert session);
    remote = endpoint_of w.server (Session.remote_cert session);
    packets;
    payload = !last;
  }

let live_stream st ~n = capture st.sw st.slots.(0).session ~payloads:st.spay ~n

(* Churn closes every flow it opens; the ledger opens one more and keeps it. *)
let live_churn ch ~n =
  let w = ch.cw in
  let opened = ref None in
  Host.on_data w.server (fun ~session:_ ~data:_ -> ());
  Host.connect w.client ~remote:ch.ro_cert ~data0:(next_payload ch.cpay)
    ~expect_accept:true (fun s -> opened := Some s);
  plain.drain w;
  match !opened with
  | Some s when Session.established s -> capture w s ~payloads:ch.cpay ~n
  | _ -> failwith "ledger flow did not establish"
