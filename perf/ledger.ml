(* The packet-cost ledger, measured from outside the library.

   Traced run: the bench drives the engine one event at a time and times
   each step, and times its own calls into Host. A step is attributed by
   what it was seen to do: a transmission on an inter-AS link (the network
   tap) from the packet's own AS is egress, from any other AS transit; a
   step in which a host or service sent a packet, or an EphID was issued
   or released, on the library's own account is control; a step that
   handed a payload to the server's handler is delivery; anything else
   (timers, telemetry ticks) is other. Bench code running inside a step is
   subtracted from it.

   Replay: after each traced round, the layers beneath are timed in
   isolation on captured packets, keys and certificates, and their sum is
   set against the round's traced whole. *)

open Apna
open Apna_crypto
module Engine = Apna_sim.Engine

let now_ns = World.now_ns
let ns_since = World.ns_since

(* Span buckets, in output order. *)
let span_names =
  [|
    "host.send.us";
    "host.connect.us";
    "host.close.us";
    "as_node.egress.us";
    "as_node.transit.us";
    "as_node.deliver.us";
    "as_node.control.us";
    "engine.other.us";
  |]

let egress = 3
let transit = 4
let deliver = 5
let control = 6
let other = 7

type tracer = {
  instr : World.instr;
  self_ns : float array;  (** per bucket of [span_names] *)
  transits : int ref;
}

let tracer (w : World.t) =
  let self_ns = Array.make (Array.length span_names) 0.0 in
  let depth = ref 0 and outer_t0 = ref 0L and excluded = ref 0.0 in
  let bench_packets = ref 0 and delivered = ref false in
  let tapped = ref (-1) and transits = ref 0 in
  let host_packets () = Host.packets_sent w.client + Host.packets_sent w.server in
  let enter () =
    if !depth = 0 then outer_t0 := now_ns ();
    incr depth
  in
  let leave () =
    decr depth;
    if !depth = 0 then excluded := !excluded +. ns_since !outer_t0
  in
  Network.set_tap w.net (fun ~from ~to_:_ (pkt : Apna_net.Packet.t) ->
      incr transits;
      tapped :=
        if Apna_net.Addr.aid_equal from pkt.header.src_aid then egress else transit);
  let call : type a. World.call -> (unit -> a) -> a =
   fun c f ->
    enter ();
    let p0 = host_packets () in
    let t0 = now_ns () in
    let r = f () in
    let b = match c with World.Send -> 0 | World.Connect -> 1 | World.Close -> 2 in
    self_ns.(b) <- self_ns.(b) +. ns_since t0;
    bench_packets := !bench_packets + host_packets () - p0;
    leave ();
    r
  in
  let bench : type a. (unit -> a) -> a =
   fun f ->
    enter ();
    let r = f () in
    leave ();
    r
  in
  let drain (w : World.t) =
    let engine = Network.engine w.net in
    let continue = ref true in
    while !continue do
      let a0 = World.activity w and b0 = !bench_packets and x0 = !excluded in
      delivered := false;
      tapped := -1;
      let t0 = now_ns () in
      if Engine.step engine then begin
        let dt = ns_since t0 -. (!excluded -. x0) in
        w.steps <- w.steps + 1;
        let b =
          if !tapped >= 0 then !tapped
          else if World.activity w - a0 > !bench_packets - b0 then control
          else if !delivered then deliver
          else other
        in
        self_ns.(b) <- self_ns.(b) +. dt
      end
      else continue := false
    done
  in
  {
    instr = { call; bench; delivered = (fun () -> delivered := true); drain };
    self_ns;
    transits;
  }

let stop (w : World.t) = Network.set_tap w.net (fun ~from:_ ~to_:_ _ -> ())

(* ------------------------------------------------------------------ *)
(* Replays *)

(* Per-call costs of several operations, one round at a time. Each
   operation is calibrated once to batches of about 1 ms; a round then runs
   one batch of every operation and returns the cost of each. The caller
   interleaves rounds with traced rounds and takes medians, so a burst of
   neighbour noise spoils a round of every measurement rather than every
   round of one. [prepare n] builds the inputs for a batch of [n] calls
   untimed and returns the call to time; [per] divides the per-call cost
   (blocks per call, packets per burst). *)
let rounds_of (ops : (string * (int -> int -> unit) * float) list) =
  let batch prepare n =
    let run = prepare n in
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      run i
    done;
    ns_since t0
  in
  let rec calibrate prepare n =
    if n >= 1 lsl 20 || batch prepare n >= 1e6 then n else calibrate prepare (2 * n)
  in
  let sized = List.map (fun (name, prepare, per) -> (name, prepare, per, calibrate prepare 1)) ops in
  fun () ->
    List.map
      (fun (name, prepare, per, n) -> (name, batch prepare n /. float_of_int n /. per))
      sized

let op name ?(per = 1.0) prepare = (name, prepare, per)
let every f _ _ = f ()

(* A round of named per-call costs, and a count of the checks that failed
   so far: every replayed call must reach the verdict the live run did. *)
let replay (w : World.t) (live : World.live) =
  let failures = ref 0 in
  let check ok = if not ok then incr failures in
  let get = function Ok v -> v | Error _ -> failwith "ledger: replay set-up failed" in
  let now = Network.now_unix w.net in
  let src = w.nodes.(0) and mid = w.nodes.(1) and dst = w.nodes.(2) in
  let br = As_node.border_router in
  let n_pkts = Array.length live.packets in
  let pkt = live.packets.(n_pkts - 1) in
  let local = live.local and remote = live.remote in
  let auth = (Option.get (Host.kha w.client)).auth in
  let payload = live.payload in
  let create_local () =
    Session.create ~conn_id:1L ~initiator:true ~local_cert:local.cert
      ~local_keys:local.keys ~remote_cert:remote.cert ()
  in
  let sealer = get (create_local ()) in
  let opener =
    get
      (Session.create ~conn_id:1L ~initiator:false ~local_cert:remote.cert
         ~local_keys:remote.keys ~remote_cert:local.cert ())
  in
  let shared = get (X25519.shared_secret ~secret:local.keys.kx_secret ~peer:remote.cert.kx_pub) in
  let aead = Aead.of_secret shared and nonce = String.make Aead.nonce_size '\000' in
  let aead_sealed = Aead.seal ~key:aead ~nonce payload in
  let aes = Aes.expand shared in
  let wire = Apna_net.Packet.to_bytes pkt in
  let sha_blocks = (String.length wire + 9 + 63) / 64 in
  let aes_blocks = (String.length payload + 15) / 16 in
  let src_keys = As_node.keys src in
  let ephid = local.cert.ephid in
  let hid = (get (Ephid.parse src_keys ephid)).hid in
  let signed = Cert.signed_bytes local.cert in
  let as_pub = get (Trust.as_pub (Network.trust w.net) (As_node.aid src)) in
  let rng = Drbg.create ~seed:"perf-ledger" in
  let burst = Border_router.Burst.create () in
  let engine = Engine.create () in
  let forwards = function Ok (Border_router.Forward _) -> true | _ -> false in
  let delivers = function Ok (Border_router.Deliver _) -> true | _ -> false in
  let round =
    rounds_of
      [
        op "session.seal.ns" (every (fun () -> ignore (Session.seal sealer payload)));
        op "session.open.ns" (fun n ->
            let frames = Array.init n (fun _ -> Session.seal sealer payload) in
            fun i ->
              let seq, sealed = frames.(i) in
              match Session.open_sealed opener ~seq ~sealed with
              | Ok d -> check (String.length d = String.length payload)
              | Error _ -> check false);
        op "pkt_auth.seal.ns" (every (fun () -> ignore (Pkt_auth.seal ~auth_key:auth pkt)));
        op "border_router.egress.ns"
          (every (fun () -> check (Result.is_ok (Border_router.egress_check (br src) ~now pkt))));
        op "border_router.transit.ns"
          (every (fun () -> check (forwards (Border_router.ingress_check (br mid) ~now pkt))));
        op "border_router.ingress.ns"
          (every (fun () -> check (delivers (Border_router.ingress_check (br dst) ~now pkt))));
        op "border_router.egress_burst.ns_per_pkt" ~per:(float_of_int n_pkts)
          (every (fun () ->
               Border_router.egress_burst (br src) ~now live.packets ~n:n_pkts burst;
               check (Border_router.Burst.error burst (n_pkts - 1) = None)));
        op "crypto.aead.seal.ns" (every (fun () -> ignore (Aead.seal ~key:aead ~nonce payload)));
        op "crypto.aead.open.ns"
          (every (fun () -> check (Result.is_ok (Aead.open_ ~key:aead ~nonce aead_sealed))));
        op "crypto.sha256.ns_per_block" ~per:(float_of_int sha_blocks)
          (every (fun () -> ignore (Sha256.digest wire)));
        op "crypto.hmac_sha256.ns" (every (fun () -> ignore (Hmac.Sha256.mac ~key:auth wire)));
        op "crypto.aes.ns_per_block" ~per:(float_of_int aes_blocks)
          (every (fun () -> ignore (Aes.Ctr.crypt ~key:aes ~nonce payload)));
        op "ephid.parse.ns" (every (fun () -> check (Result.is_ok (Ephid.parse src_keys ephid))));
        op "crypto.x25519.ns"
          (every (fun () ->
               ignore (X25519.shared_secret ~secret:local.keys.kx_secret ~peer:remote.cert.kx_pub)));
        op "crypto.ed25519.sign.ns"
          (every (fun () -> ignore (Ed25519.sign local.keys.sig_keypair signed)));
        op "crypto.ed25519.verify.ns"
          (every (fun () ->
               check (Ed25519.verify ~pub:as_pub ~msg:signed ~signature:local.cert.signature)));
        op "keys.make_ephid_keys.ns" (every (fun () -> ignore (Keys.make_ephid_keys rng)));
        op "management.issue_direct.ns"
          (every (fun () ->
               check
                 (Result.is_ok
                    (Management.issue_direct (As_node.management src) ~now ~hid
                       ~kx_pub:local.cert.kx_pub ~sig_pub:local.cert.sig_pub
                       ~lifetime:Lifetime.Medium))));
        op "trust.verify_cert.ns"
          (every (fun () ->
               check (Result.is_ok (Trust.verify_cert (Network.trust w.net) ~now remote.cert))));
        op "session.create.ns" (every (fun () -> check (Result.is_ok (create_local ()))));
        op "engine.step.ns"
          (every (fun () ->
               Engine.schedule_in engine ~delay:1e-6 ignore;
               ignore (Engine.step engine)));
      ]
  in
  (round, fun () -> !failures)

(* The replayed parts of one data frame's path: seal, MAC, egress, transit
   ingress, destination ingress, open. *)
let frame_parts_ns costs =
  List.fold_left
    (fun acc name -> acc +. List.assoc name costs)
    0.0
    [
      "session.seal.ns";
      "pkt_auth.seal.ns";
      "border_router.egress.ns";
      "border_router.transit.ns";
      "border_router.ingress.ns";
      "session.open.ns";
    ]
