open Apna_crypto
open Apna_net
module M = Apna_obs.Metrics
module E = Apna_obs.Event

let m_rpc_retries =
  M.Counter.register M.default "apna_host_rpc_retries_total"
    ~help:"Control-plane request retransmissions"

let m_rpc_timeouts =
  M.Counter.register M.default "apna_host_rpc_timeouts_total"
    ~help:"Control-plane requests abandoned after exhausting retransmissions"

let m_rpc_orphans =
  M.Counter.register M.default "apna_host_rpc_orphan_replies_total"
    ~help:"Replies with no pending request (duplicates or late arrivals)"

let m_migrations =
  M.Counter.register M.default "apna_host_session_migrations_total"
    ~help:"Live sessions rebound onto a fresh source EphID (Rekey sent)"

let m_recoveries =
  M.Counter.register M.default "apna_host_session_recoveries_total"
    ~help:"ICMP-driven recoveries of a session whose EphID died mid-flight"

let m_brownout =
  M.Counter.register M.default "apna_host_brownout_sends_total"
    ~help:"Sends that fell back to a degraded EphID during an issuance brownout"

let m_stale_discards =
  M.Counter.register M.default "apna_host_stale_prefetch_discarded_total"
    ~help:"Prefetched EphIDs discarded at dequeue for staleness"

let m_breaker_opens =
  M.Counter.register M.default "apna_host_issuance_breaker_opens_total"
    ~help:"Issuance circuit breaker transitions to open"

let m_unreachable reason =
  M.Counter.register M.default "apna_host_icmp_unreachable_total"
    ~labels:[ ("reason", Icmp.reason_label reason) ]
    ~help:"ICMP unreachable notices received, by reason"

let m_replay_rejected =
  M.Counter.register M.default "apna_host_replay_rejected_total"
    ~help:"Sealed frames rejected by a session replay window (replayed or stale sequence number)"

(* Every sealed-frame open goes through here so replay-window rejections
   are counted — the raw signal behind the replay-flood alert rule. *)
let open_sealed_counted session ~seq ~sealed =
  match Session.open_sealed session ~seq ~sealed with
  | Error (Error.Rejected _) as e ->
      if M.enabled M.default then M.Counter.incr m_replay_rejected;
      e
  | r -> r

type attachment = {
  aid : Addr.aid;
  now : unit -> int;
  now_f : unit -> float;
  submit : Packet.t -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  bootstrap_rpc : host_dh_pub:string -> (Registry.reply, Error.t) result;
  trust : Trust.t;
}

type endpoint = { cert : Cert.t; keys : Keys.ephid_keys; receive_only : bool }

type identity = {
  kha : Keys.host_as;
  signer : Pkt_auth.prepared;
      (** [kha.auth] prepared once at bootstrap: every packet the host
          sends is sealed under it. *)
  ctrl_ephid : Ephid.t;
  ctrl_expiry : int;
  ms_cert : Cert.t;
  dns_cert : Cert.t option;
}

module I64_tbl = Apna_util.I64_tbl

(* One in-flight round-trip request. Replies are matched by correlation id,
   never by arrival order, so loss/duplication/reordering cannot mis-pair a
   reply with another request's continuation. Timers cannot be cancelled,
   so each checks [settled] on the request it was armed for (answered,
   abandoned, or dropped with its connection) — never a lookup by key. *)
type rpc = {
  what : string;
  mutable resend : unit -> unit;
  mutable on_timeout : unit -> unit;
  mutable attempts : int;
  mutable settled : bool;
}

(* Everything the host keeps about one connection, created and dropped
   together with its session. *)
type conn = {
  session : Session.t;
  mutable local : endpoint;  (* Source of our frames; signs shutoffs. *)
  mutable queued_rev : string list;  (* Sent before the Accept (0.5-RTT). *)
  mutable last_packet : Packet.t option;  (* Shutoff evidence (Fig. 5). *)
  (* Initiator: the Init, retransmitted until the server's Accept.
     Receiver: the cached Accept, re-sent verbatim on a duplicate Init. *)
  mutable accept_wait : rpc option;
  mutable accept_resend : (unit -> unit) option;
  (* Migrating side: the Rekey, retransmitted until the peer's Rekey_ack.
     Peer side: the cached ack, re-sent verbatim on a duplicate Rekey. *)
  mutable rekey : rpc option;
  mutable rekey_ack_resend : (unit -> unit) option;
  (* Issuance or Rekey in flight; guards against starting another. *)
  mutable migrating : bool;
  (* One frame that died on the peer's expired/revoked EphID, re-sent once
     when the peer's Rekey lands. *)
  mutable pending_retx : string option;
  (* Last ICMP-driven recovery (simulated time): a cooldown bounds how
     often ambiguous feedback may trigger a migration. *)
  mutable recovery_last : float;
  (* Forgotten: work still in flight (a migration's issuance) stops. *)
  mutable closed : bool;
}

type t = {
  host_name : string;
  rng : Drbg.t;
  gran : Granularity.t;
  mutable att : attachment option;
  mutable identity : identity option;
  (* Every live endpoint, keyed by raw EphID bytes: delivery looks the
     local endpoint up per packet and removal must not rebuild a list —
     both were O(#endpoints) when this was a list, quadratic over a
     host's lifetime. *)
  endpoints_by_ephid : (string, endpoint) Hashtbl.t;
  (* Entries examined by the last endpoint add/remove — the count-based
     sentinel the quadratic-cost regression tests read. *)
  mutable last_endpoint_op_cost : int;
  (* Reuse pools, keyed by Granularity.pool_key, with waiters queued while
     the pool's first issuance round trip is in flight. *)
  pools : (string, endpoint) Hashtbl.t;
  pool_waiters : (string, ((endpoint, Error.t) result -> unit) Queue.t) Hashtbl.t;
  (* Prefetched one-shot EphIDs for per-packet sources. *)
  prefetched : endpoint Queue.t;
  mutable prefetch_inflight : int;
  (* Per-packet sources already used, oldest first: indexed until expiry,
     so encrypted ICMP about a packet they sent can still be opened. *)
  spent : endpoint Queue.t;
  (* In-flight control-plane round trips (EphID issuance, DNS) and their
     reply continuations, keyed by correlation id. *)
  rpcs : (rpc * (Msgs.t -> unit)) I64_tbl.t;
  mutable next_corr : int64;
  (* Echo requests awaiting a reply, keyed by ident: when the first copy
     went out, the continuation, and the retransmission. The ident is a
     u16 on the wire, so the counter wraps at 16 bits. *)
  pending_pings : (int, float * (float -> unit) * rpc) Hashtbl.t;
  mutable next_ping_ident : int;
  mutable rpc_retries : int;
  mutable rpc_timeouts : int;
  (* Live connections, keyed by connection id — the session demux. *)
  conns : conn I64_tbl.t;
  (* Connections per endpoint (raw EphID bytes), so a close knows in O(1)
     whether a shared endpoint is still in use. *)
  conns_by_ephid : (string, int) Hashtbl.t;
  (* Receiver-side Init idempotency: serving-EphID issuance in flight for
     a connection that has no session yet. *)
  init_in_progress : unit I64_tbl.t;
  (* The one delivery path: the host keeps no history of payloads. *)
  mutable data_handler : session:Session.t -> data:string -> unit;
  (* Ring of the last [unreachable_cap] ICMP unreachable reasons, oldest
     first; forensics beyond the ring live in the labeled metric. *)
  unreachables_q : Icmp.unreachable_reason Queue.t;
  (* Smallest MTU any Frag_needed notice has reported. *)
  mutable path_mtu : int option;
  (* Shutoff notices from the AS: revoked EphID and, when the granularity
     policy allows it, the application behind it (§VIII-A). *)
  mutable revocation_notices_rev : (Ephid.t * string option) list;
  mutable ephid_requests : int;
  mutable pkts_sent : int;
  (* Server policy: accept 0-RTT data arriving under a receive-only EphID's
     key? Refusing trades the first flight for protection of first packets
     should the receive-only key later be compromised (§VII-C). *)
  mutable accept_zero_rtt : bool;
  (* --- session survivability --- *)
  (* Lifetime class requested for session/pool/prefetch EphIDs, and how
     close to expiry (seconds) an endpoint counts as due for renewal. *)
  mutable ephid_lifetime : Lifetime.t;
  mutable renewal_margin : int;
  breaker : Breaker.t;
  (* Raw EphID bytes named in a shutoff Revocation_notice or released on
     purpose: sessions bound to them must never auto-recover (the shutoff
     would be defeated). A release on close, with no session left on the
     EphID, is not pinned. *)
  shutoff_inhibited : (string, unit) Hashtbl.t;
  mutable migrations : int;
  mutable recoveries : int;
  mutable brownout_sends : int;
  mutable stale_discards : int;
  mutable unreachable_total : int;
}

let unreachable_cap = 256

let create ~name ~rng ?(granularity = Granularity.Per_flow) () =
  let breaker = Breaker.create () in
  let breaker_gauge =
    M.Gauge.register M.default "apna_host_issuance_breaker_state"
      ~labels:[ ("host", name) ]
      ~help:"Issuance circuit breaker: 0 closed, 1 half-open, 2 open"
  in
  Breaker.on_transition breaker (fun state ->
      M.Gauge.set breaker_gauge (Breaker.state_to_float state);
      if state = Breaker.Open then M.Counter.incr m_breaker_opens;
      Logs.info (fun m ->
          m "%s: issuance breaker %s" name (Breaker.state_label state)));
  {
      host_name = name;
      rng;
      gran = granularity;
      att = None;
      identity = None;
      endpoints_by_ephid = Hashtbl.create 16;
      last_endpoint_op_cost = 0;
      pools = Hashtbl.create 4;
      pool_waiters = Hashtbl.create 4;
      prefetched = Queue.create ();
      prefetch_inflight = 0;
      spent = Queue.create ();
      rpcs = I64_tbl.create 8;
      next_corr = 0L;
      pending_pings = Hashtbl.create 4;
      next_ping_ident = 1;
      rpc_retries = 0;
      rpc_timeouts = 0;
      conns = I64_tbl.create 8;
      conns_by_ephid = Hashtbl.create 8;
      init_in_progress = I64_tbl.create 4;
      data_handler = (fun ~session:_ ~data:_ -> ());
      unreachables_q = Queue.create ();
      path_mtu = None;
      revocation_notices_rev = [];
      ephid_requests = 0;
      pkts_sent = 0;
      accept_zero_rtt = true;
      ephid_lifetime = Lifetime.Medium;
      renewal_margin = 30;
      breaker;
      shutoff_inhibited = Hashtbl.create 4;
      migrations = 0;
      recoveries = 0;
      brownout_sends = 0;
      stale_discards = 0;
      unreachable_total = 0;
  }

let name t = t.host_name
let attach t att = t.att <- Some att
let attachment t = t.att
let is_bootstrapped t = Option.is_some t.identity
let ctrl_ephid t = Option.map (fun i -> i.ctrl_ephid) t.identity
let ms_cert t = Option.map (fun i -> i.ms_cert) t.identity
let kha t = Option.map (fun i -> i.kha) t.identity
let endpoints t =
  Hashtbl.fold (fun _ ep acc -> ep :: acc) t.endpoints_by_ephid []

let last_endpoint_op_cost t = t.last_endpoint_op_cost

let ephid_raw (ep : endpoint) = Ephid.to_bytes ep.cert.Cert.ephid

let add_endpoint t (ep : endpoint) =
  t.last_endpoint_op_cost <- 1;
  Hashtbl.replace t.endpoints_by_ephid (ephid_raw ep) ep

let remove_endpoint t (ep : endpoint) =
  t.last_endpoint_op_cost <- 1;
  Hashtbl.remove t.endpoints_by_ephid (ephid_raw ep)

(* Every change of a connection's [local] goes through these two, keeping
   [conns_by_ephid] in step. [unbind] returns how many other connections
   still use the endpoint. *)
let unbind t ep =
  let raw = ephid_raw ep in
  let others = Hashtbl.find t.conns_by_ephid raw - 1 in
  if others > 0 then Hashtbl.replace t.conns_by_ephid raw others
  else Hashtbl.remove t.conns_by_ephid raw;
  others

let bind t ep =
  let raw = ephid_raw ep in
  Hashtbl.replace t.conns_by_ephid raw
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.conns_by_ephid raw))

let add_conn t session local =
  bind t local;
  let c =
    {
      session;
      local;
      queued_rev = [];
      last_packet = None;
      accept_wait = None;
      accept_resend = None;
      rekey = None;
      rekey_ack_resend = None;
      migrating = false;
      pending_retx = None;
      recovery_last = neg_infinity;
      closed = false;
    }
  in
  I64_tbl.replace t.conns (Session.conn_id session) c;
  c

let unreachables t = List.of_seq (Queue.to_seq t.unreachables_q)
let unreachable_total t = t.unreachable_total
let path_mtu t = t.path_mtu
let revocation_notices t = List.rev t.revocation_notices_rev
let on_data t f = t.data_handler <- f
let sessions t = I64_tbl.fold (fun _ c acc -> c.session :: acc) t.conns []

let last_packet t session =
  Option.bind (I64_tbl.find_opt t.conns (Session.conn_id session)) (fun c ->
      c.last_packet)

let set_zero_rtt_policy t accept = t.accept_zero_rtt <- accept
let ephid_requests_sent t = t.ephid_requests
let packets_sent t = t.pkts_sent
let rpc_retries t = t.rpc_retries
let rpc_timeouts t = t.rpc_timeouts
let set_ephid_lifetime t lt = t.ephid_lifetime <- lt
let set_renewal_margin t s = t.renewal_margin <- max 0 s
let issuance_breaker t = t.breaker
let migrations t = t.migrations
let recoveries t = t.recoveries
let brownout_sends t = t.brownout_sends
let stale_prefetch_discards t = t.stale_discards

let note_brownout t =
  t.brownout_sends <- t.brownout_sends + 1;
  M.Counter.incr m_brownout

let pending_rpc_count t =
  let count slot = if Option.is_some slot then 1 else 0 in
  I64_tbl.fold (fun _ c n -> n + count c.accept_wait + count c.rekey) t.conns
    (I64_tbl.length t.rpcs + Hashtbl.length t.pending_pings)

let require_att t =
  match t.att with
  | Some att -> Ok att
  | None -> Error (Error.Rejected "host is not attached to an AS")

let require_identity t =
  match t.identity with
  | Some id -> Ok id
  | None -> Error (Error.Rejected "host is not bootstrapped")

(* Every certificate a peer presents is checked against its issuing AS. *)
let verify_peer_cert t cert =
  Result.bind (require_att t) (fun att ->
      Trust.verify_cert att.trust ~now:(att.now ()) cert)

let warn t what = function
  | Ok _ -> ()
  | Error e -> Logs.warn (fun m -> m "%s: %s: %a" t.host_name what Error.pp e)

(* ------------------------------------------------------------------ *)
(* Request/reply engine: per-request timeout, bounded retransmission with
   exponential backoff, Error.Timeout on exhaustion. *)

let rpc_timeout_s = 0.25
let rpc_max_attempts = 5
let rpc_backoff = 2.0
let fresh_corr t = t.next_corr <- Int64.add t.next_corr 1L; t.next_corr

(* Answered, timed out, or its connection is gone: later duplicates become
   orphans. The engine holds the record until its last timer fires, so the
   callbacks (and the payloads and continuations they hold) go now. *)
let settle rpc =
  rpc.settled <- true;
  rpc.resend <- ignore;
  rpc.on_timeout <- ignore

let rec arm_rpc t (rpc : rpc) =
  Option.iter
    (fun att ->
      let delay =
        rpc_timeout_s *. (rpc_backoff ** float_of_int (rpc.attempts - 1))
      in
      att.schedule ~delay (fun () -> rpc_timer_fired t rpc))
    t.att

and rpc_timer_fired t rpc =
  if rpc.settled then ()
  else if rpc.attempts >= rpc_max_attempts then begin
    let on_timeout = rpc.on_timeout in
    settle rpc;
    t.rpc_timeouts <- t.rpc_timeouts + 1;
    M.Counter.incr m_rpc_timeouts;
    Logs.warn (fun m ->
        m "%s: %s: no reply after %d attempts" t.host_name rpc.what
          rpc.attempts);
    on_timeout ()
  end
  else begin
    rpc.attempts <- rpc.attempts + 1;
    t.rpc_retries <- t.rpc_retries + 1;
    M.Counter.incr m_rpc_retries;
    rpc.resend ();
    arm_rpc t rpc
  end

(* [store] files the request where its reply will look for it ([rpcs],
   [pending_pings] or its connection's record) before the first copy goes
   out, as a reply may arrive synchronously; [on_timeout] takes it out. *)
let start_rpc t ~what ~resend ~on_timeout store =
  let rpc = { what; resend; on_timeout; attempts = 1; settled = false } in
  store rpc;
  resend ();
  arm_rpc t rpc

let start_corr_rpc t corr ~what ~resend ~on_reply ~on_timeout =
  start_rpc t ~what ~resend
    ~on_timeout:(fun () ->
      I64_tbl.remove t.rpcs corr;
      on_timeout ())
    (fun rpc -> I64_tbl.replace t.rpcs corr (rpc, on_reply))

let dispatch_reply t corr msg =
  match I64_tbl.find_opt t.rpcs corr with
  | Some (rpc, on_reply) ->
      I64_tbl.remove t.rpcs corr;
      settle rpc;
      on_reply msg
  | None ->
      M.Counter.incr m_rpc_orphans;
      Logs.debug (fun m ->
          m "%s: reply with no pending request (corr %Ld)" t.host_name corr)

(* ------------------------------------------------------------------ *)
(* Bootstrap (Fig. 2, host side) *)

let bootstrap t =
  match require_att t with
  | Error e -> Error e
  | Ok att -> begin
      let dh_secret, dh_public = X25519.generate t.rng in
      match att.bootstrap_rpc ~host_dh_pub:dh_public with
      | Error e -> Error e
      | Ok reply -> begin
          (* Verify everything the RS sent — bootstrap messages must be
             authenticated (§IV-B): the signed id_info and the service
             certificates, all against the AS key in the trust store. *)
          let id_info =
            Registry.id_info_bytes ~ctrl_ephid:reply.ctrl_ephid
              ~ctrl_expiry:reply.ctrl_expiry
          in
          match
            Trust.verify_as att.trust att.aid ~what:"id_info" ~msg:id_info
              ~signature:reply.id_info_signature
          with
          | Error e -> Error e
          | Ok () -> begin
              let now = att.now () in
              let cert_ok c = Result.is_ok (Trust.verify_cert att.trust ~now c) in
              if not (cert_ok reply.ms_cert) then
                Error (Error.Bad_signature "MS certificate")
              else if not (Option.fold ~none:true ~some:cert_ok reply.dns_cert)
              then Error (Error.Bad_signature "DNS certificate")
              else begin
                match
                  X25519.shared_secret ~secret:dh_secret ~peer:reply.as_dh_pub
                with
                | Error e -> Error (Error.Crypto e)
                | Ok shared_secret ->
                    let kha = Keys.derive_host_as ~shared_secret in
                    t.identity <-
                      Some
                        {
                          kha;
                          signer = Pkt_auth.prepare ~auth_key:kha.auth;
                          ctrl_ephid = reply.ctrl_ephid;
                          ctrl_expiry = reply.ctrl_expiry;
                          ms_cert = reply.ms_cert;
                          dns_cert = reply.dns_cert;
                        };
                    Ok ()
              end
            end
        end
    end

(* ------------------------------------------------------------------ *)
(* Packet construction *)

let send_packet t ~src_ephid ~dst_aid ~dst_ephid ~proto ~payload =
  match (require_att t, require_identity t) with
  | Error e, _ | _, Error e -> Error e
  | Ok att, Ok id ->
      let header =
        Apna_header.make ~src_aid:att.aid ~src_ephid ~dst_aid ~dst_ephid ()
      in
      let pkt = Packet.make ~header ~proto ~payload in
      let pkt = Pkt_auth.seal_prepared id.signer pkt in
      t.pkts_sent <- t.pkts_sent + 1;
      if E.enabled E.default then
        E.host_send E.default ~mac:pkt.header.mac ~aid:(Addr.aid_to_int att.aid)
          ~host:t.host_name;
      att.submit pkt;
      Ok ()

(* ------------------------------------------------------------------ *)
(* EphID acquisition (Fig. 3, host side) *)

let send_to_ms t id payload =
  send_packet t ~src_ephid:(Ephid.to_bytes id.ctrl_ephid)
    ~dst_aid:id.ms_cert.aid
    ~dst_ephid:(Ephid.to_bytes id.ms_cert.ephid)
    ~proto:Packet.Control ~payload

(* One issuance round trip, single or batched. [keys] draws the key
   material, [request] seals it into the request and [read] turns the
   MS's reply into the caller's result. *)
let issue t ~what ?lifetime ~keys ~request ~read k =
  let lifetime = Option.value lifetime ~default:t.ephid_lifetime in
  match (require_att t, require_identity t) with
  | Error e, _ | _, Error e -> k (Error e)
  | Ok att, Ok _ when not (Breaker.acquire t.breaker ~now:(att.now_f ())) ->
      (* Fail fast while the breaker is open: callers apply their brownout
         fallback instead of burning a full timeout ladder per request. *)
      k (Error (Error.Rejected "EphID issuance circuit breaker open"))
  | Ok att, Ok id ->
      let keys = keys () in
      let corr = fresh_corr t in
      (* Retransmits reuse the serialized request: same key/nonce/plaintext
         seals to the same bytes, and the MS treats each copy as a fresh
         (idempotent-enough) issuance — the host keeps only the one it
         pairs by correlation id. *)
      let payload =
        Msgs.to_bytes (request ~rng:t.rng ~corr ~kha:id.kha ~keys ~lifetime)
      in
      t.ephid_requests <- t.ephid_requests + 1;
      start_corr_rpc t corr ~what
        ~resend:(fun () -> warn t (what ^ " send") (send_to_ms t id payload))
        ~on_reply:(fun msg ->
          Breaker.success t.breaker;
          k (read ~kha:id.kha keys msg))
        ~on_timeout:(fun () ->
          Breaker.failure t.breaker ~now:(att.now_f ());
          k (Error (Error.Timeout "EphID issuance")))

let request_ephid_r t ?lifetime ?(receive_only = false) k =
  issue t ~what:"EphID request" ?lifetime
    ~keys:(fun () -> Keys.make_ephid_keys t.rng)
    ~request:Management.Client.make_request
    ~read:(fun ~kha keys msg ->
      Management.Client.read_reply ~kha msg
      |> Result.map (fun cert ->
             let endpoint = { cert; keys; receive_only } in
             add_endpoint t endpoint;
             endpoint))
    k

let request_ephid t ?lifetime ?receive_only k =
  request_ephid_r t ?lifetime ?receive_only (function
    | Ok endpoint -> k endpoint
    | Error e -> warn t "request_ephid" (Error e))

(* Batched acquisition: one sealed round trip and one MS validation for
   [count] grants. The prefetcher uses this to refill its whole stock per
   round trip instead of [count] independent request/reply exchanges. *)
let request_ephid_batch_r t ~count ?lifetime k =
  issue t ~what:"EphID batch request" ?lifetime
    ~keys:(fun () -> List.init count (fun _ -> Keys.make_ephid_keys t.rng))
    ~request:Management.Client.make_batch_request
    ~read:(fun ~kha keys msg ->
      match Management.Client.read_batch_reply ~kha msg with
      | Error e -> Error e
      | Ok certs when List.length certs <> count ->
          Error (Error.Malformed "batch reply count mismatch")
      | Ok certs ->
          (* Certificates arrive in request order: pair them back with
             the key material they certify. *)
          let endpoints =
            List.map2
              (fun cert keys -> { cert; keys; receive_only = false })
              certs keys
          in
          List.iter (add_endpoint t) endpoints;
          Ok endpoints)
    k

(* A deliberate release means sessions bound to this EphID must die with
   it: [pin] inhibits ICMP-driven recovery, exactly as for a shutoff. *)
let release t ~pin (endpoint : endpoint) =
  match require_identity t with
  | Error e -> Error e
  | Ok id ->
      let msg =
        Management.Client.make_release ~rng:t.rng ~kha:id.kha
          ~ephid:endpoint.cert.Cert.ephid
      in
      remove_endpoint t endpoint;
      Hashtbl.filter_map_inplace
        (fun _ (e : endpoint) ->
          if Cert.equal e.cert endpoint.cert then None else Some e)
        t.pools;
      if pin then Hashtbl.replace t.shutoff_inhibited (ephid_raw endpoint) ();
      send_to_ms t id (Msgs.to_bytes msg)

let release_endpoint t endpoint = release t ~pin:true endpoint

(* ------------------------------------------------------------------ *)
(* Granularity-driven source selection *)

(* Within the renewal margin an endpoint is due for replacement; past its
   expiry it is unusable even as a brownout fallback. *)
let fresh_enough t (ep : endpoint) =
  match t.att with
  | Some att -> ep.cert.Cert.expiry > att.now () + t.renewal_margin
  | None -> true

let still_valid t (ep : endpoint) =
  match t.att with
  | Some att -> ep.cert.Cert.expiry > att.now ()
  | None -> true

(* Continuations below receive an [(endpoint, Error.t) result]: an issuance
   timeout must reach every waiter, or a wedged pool would swallow all later
   requests for the same key. *)
let with_pooled_endpoint t key k =
  let current = Hashtbl.find_opt t.pools key in
  match current with
  | Some endpoint when fresh_enough t endpoint -> k (Ok endpoint)
  | _ -> begin
      match Hashtbl.find_opt t.pool_waiters key with
      | Some waiters ->
          (* An issuance for this pool is already in flight: share it. *)
          Queue.add k waiters
      | None ->
          let waiters = Queue.create () in
          Hashtbl.replace t.pool_waiters key waiters;
          request_ephid_r t (fun result ->
              let result =
                match result with
                | Ok endpoint ->
                    Hashtbl.replace t.pools key endpoint;
                    result
                | Error _ -> begin
                    (* Brownout: issuance is down, but the pooled endpoint
                       inside its renewal margin still validates at the
                       border — degrade rather than blackhole. *)
                    match current with
                    | Some stale when still_valid t stale ->
                        note_brownout t;
                        Ok stale
                    | _ -> result
                  end
              in
              Hashtbl.remove t.pool_waiters key;
              k result;
              Queue.iter (fun waiter -> waiter result) waiters)
    end

let with_source_endpoint t ?app k =
  let effective =
    match (t.gran, app) with
    | Granularity.Per_application _, Some app -> Granularity.Per_application app
    | g, _ -> g
  in
  match Granularity.pool_key effective with
  | Some key -> with_pooled_endpoint t key k
  | None -> request_ephid_r t k

(* Keep a small stock of unused EphIDs for per-packet sources. *)
let prefetch_target = 8

let rec refill_prefetch t =
  let stock = Queue.length t.prefetched + t.prefetch_inflight in
  if stock < prefetch_target && is_bootstrapped t then begin
    let want = prefetch_target - stock in
    (* A larger deficit is refilled with one batched round trip: the MS
       validates the control EphID once and amortizes its DRBG pool across
       the grants. *)
    let request k =
      if want = 1 then
        request_ephid_r t (fun r -> k (Result.map (fun ep -> [ ep ]) r))
      else request_ephid_batch_r t ~count:want k
    in
    t.prefetch_inflight <- t.prefetch_inflight + want;
    request (fun result ->
        t.prefetch_inflight <- t.prefetch_inflight - want;
        match result with
        | Error e -> warn t "prefetch" (Error e)
        | Ok endpoints ->
            List.iter (fun ep -> Queue.add ep t.prefetched) endpoints;
            refill_prefetch t)
  end

(* Discard-at-dequeue: stock prefetched long ago may have aged past the
   renewal margin (or expired outright) while queued. Under an issuance
   brownout, within-margin stock is pressed back into service instead. *)
let rec pop_usable_prefetched t =
  if Queue.is_empty t.prefetched then None
  else begin
    let ep = Queue.pop t.prefetched in
    if fresh_enough t ep then Some ep
    else if Breaker.state t.breaker <> Breaker.Closed && still_valid t ep
    then begin
      note_brownout t;
      Some ep
    end
    else begin
      t.stale_discards <- t.stale_discards + 1;
      M.Counter.incr m_stale_discards;
      remove_endpoint t ep;
      pop_usable_prefetched t
    end
  end

(* A per-packet source is used once, then waits in [spent] for its
   certificate to expire. Sources are spent in roughly the order they
   expire, so checking only the oldest keeps pruning O(1) amortised. *)
let rec prune_spent t =
  match Queue.peek_opt t.spent with
  | Some ep when not (still_valid t ep) ->
      ignore (Queue.pop t.spent);
      remove_endpoint t ep;
      prune_spent t
  | _ -> ()

let take_fresh_source t k =
  let spend endpoint =
    Queue.add endpoint t.spent;
    prune_spent t;
    refill_prefetch t;
    k (Ok endpoint)
  in
  match pop_usable_prefetched t with
  | Some endpoint -> spend endpoint
  | None ->
      request_ephid_r t (function Ok ep -> spend ep | Error e -> k (Error e))

(* ------------------------------------------------------------------ *)
(* Sessions *)

let fresh_conn_id t = String.get_int64_be (Drbg.generate t.rng 8) 0

let send_frame t ~(endpoint : endpoint) ~remote:(remote_cert : Cert.t) frame =
  send_packet t
    ~src_ephid:(Ephid.to_bytes endpoint.cert.Cert.ephid)
    ~dst_aid:remote_cert.aid
    ~dst_ephid:(Ephid.to_bytes remote_cert.ephid)
    ~proto:Packet.Data
    ~payload:(Session.Frame.to_bytes frame)

(* One removal drops everything the host keeps about the connection; its
   pending requests are settled so their timers stay quiet. *)
let forget_session t conn_id =
  match I64_tbl.find_opt t.conns conn_id with
  | None -> ()
  | Some c ->
      I64_tbl.remove t.conns conn_id;
      c.closed <- true;
      Option.iter settle c.accept_wait;
      Option.iter settle c.rekey;
      (* Per-flow EphIDs die with their flow: preemptively release the
         backing EphID once no other connection is bound to it, unless it
         is pooled (per-host/per-application) or receive-only (§VIII-G2:
         hosts manage their EphID pool). No session is left to recover on
         it, so the release is not pinned. *)
      let endpoint = c.local in
      if unbind t endpoint = 0 then begin
        let pooled =
          Seq.exists (fun (e : endpoint) -> Cert.equal e.cert endpoint.cert)
            (Hashtbl.to_seq_values t.pools)
        in
        if (not pooled) && not endpoint.receive_only then
          warn t "close: release" (release t ~pin:false endpoint)
      end

(* ------------------------------------------------------------------ *)
(* Mid-session EphID migration: a live session outlives the EphID that
   started it. The migrating side acquires a fresh EphID, seals an empty
   frame under the PRE-migration key (the authenticator: only the session
   owner can move it), rebinds the session locally, and retransmits the
   Rekey until the peer's Rekey_ack — the same exactly-once discipline as
   every other host round trip. *)

let inhibited t (ep : endpoint) = Hashtbl.mem t.shutoff_inhibited (ephid_raw ep)

let migrate_session t c ~reason ?(and_then = fun (_ : endpoint) -> ()) () =
  if not c.migrating then begin
    c.migrating <- true;
    let session = c.session in
    let conn_id = Session.conn_id session in
    let since = E.start E.default in
    request_ephid_r t (fun result ->
        match result with
        | Error e ->
            (* Brownout: keep riding the current endpoint until its hard
               expiry; the next send or ICMP retriggers the migration. *)
            c.migrating <- false;
            note_brownout t;
            warn t "migrate: issuance" (Error e)
        | Ok fresh ->
            (* Unless the session closed while the issuance was in flight. *)
            if not c.closed then begin
              let seq, sealed = Session.seal session "" in
              let frame =
                Session.Frame.Rekey { conn_id; cert = fresh.cert; seq; sealed }
              in
              match
                Session.rekey_local session ~local_cert:fresh.cert
                  ~local_keys:fresh.keys
              with
              | Error e ->
                  c.migrating <- false;
                  warn t "migrate: rekey" (Error e)
              | Ok () ->
                  ignore (unbind t c.local);
                  bind t fresh;
                  c.local <- fresh;
                  t.migrations <- t.migrations + 1;
                  M.Counter.incr m_migrations;
                  Logs.info (fun m ->
                      m "%s: conn %Ld migrated to fresh EphID (%s)" t.host_name
                        conn_id reason);
                  (match t.att with
                  | Some att when E.enabled E.default ->
                      E.record E.default
                        ~key:(E.key_of_string (Printf.sprintf "conn:%Ld" conn_id))
                        ~since
                        (E.Migrate
                           { aid = Addr.aid_to_int att.aid; host = t.host_name;
                             reason })
                  | _ -> ());
                  let resend () =
                    (* The frame bytes are fixed (re-sealing would advance
                       the sequence); the destination is re-read so a peer
                       that migrates concurrently still gets our Rekey. *)
                    warn t "migrate: rekey frame"
                      (send_frame t ~endpoint:fresh
                         ~remote:(Session.remote_cert session) frame)
                  in
                  start_rpc t ~what:"session rekey" ~resend
                    ~on_timeout:(fun () ->
                      c.rekey <- None;
                      c.migrating <- false)
                    (fun rpc -> c.rekey <- Some rpc);
                  and_then fresh
            end)
  end

(* Proactive renewal: checked on the traffic path (send/receive) rather
   than on long-armed timers, so a simulation driven to quiescence is not
   dragged forward to every session's renewal horizon. *)
let maybe_migrate t c =
  match t.att with
  | None -> ()
  | Some att ->
      let ep = c.local in
      if
        Session.established c.session
        && (not c.migrating)
        && ep.cert.Cert.expiry <= att.now () + t.renewal_margin
        && (not ep.receive_only)
        && (not (inhibited t ep))
        && not c.closed
      then migrate_session t c ~reason:"renewal-margin" ()

let connect t ~remote ?(data0 = "") ?app ?(expect_accept = false) k =
  match verify_peer_cert t remote with
  | Error e -> warn t "connect: peer certificate" (Error e)
  | Ok () ->
      with_source_endpoint t ?app (function
        | Error e -> warn t "connect: source EphID" (Error e)
        | Ok endpoint -> begin
            let conn_id = fresh_conn_id t in
            (* [expect_accept] marks a connection to a receive-only EphID
               (the DNS record says so): the session stays unestablished —
               later sends queue for 0.5-RTT — until the server's Accept
               rekeys it onto the serving EphID (§VII-A/C). The 0-RTT
               [data0] still goes out under the receive-only key. *)
            match
              Session.create ~conn_id ~initiator:true ~local_cert:endpoint.cert
                ~local_keys:endpoint.keys ~remote_cert:remote
                ~await_accept:expect_accept ()
            with
            | Error e -> warn t "connect: session" (Error e)
            | Ok session ->
                let c = add_conn t session endpoint in
                let seq, sealed = Session.seal session data0 in
                (* Retransmits must reuse the sealed frame — sealing again
                   would advance the send sequence. The connection id is the
                   Init/Accept correlation id. *)
                let frame =
                  Session.Frame.Init
                    { conn_id; cert = endpoint.cert; seq; sealed }
                in
                let send_init () =
                  warn t "connect: init" (send_frame t ~endpoint ~remote frame)
                in
                if expect_accept then
                  start_rpc t ~what:"session accept" ~resend:send_init
                    ~on_timeout:(fun () ->
                      c.accept_wait <- None;
                      warn t "connect" (Error (Error.Timeout "session accept"));
                      forget_session t conn_id)
                    (fun rpc -> c.accept_wait <- Some rpc)
                else send_init ();
                k session
          end)

let send t session data =
  let conn_id = Session.conn_id session in
  match I64_tbl.find_opt t.conns conn_id with
  | None -> Error (Error.Rejected "unknown session")
  | Some c when not (Session.established session) ->
      (* §VII-C: before the server's Accept, either send 0-RTT under the
         receive-only key (connect's data0) or queue for 0.5-RTT. *)
      c.queued_rev <- data :: c.queued_rev;
      Ok ()
  | Some c ->
      let endpoint = c.local in
      let remote = Session.remote_cert session in
      let seq, sealed = Session.seal session data in
      let frame = Session.Frame.Data { conn_id; seq; sealed } in
      let result =
        if Granularity.equal t.gran Granularity.Per_packet then begin
          (* Fresh source EphID for every packet (§VIII-A): strongest
             unlinkability; the connection id does the demultiplexing. *)
          take_fresh_source t (function
              | Error e ->
                  (* Brownout: no fresh EphID to be had — stretch the
                     effective granularity to per-flow (reuse the bound
                     endpoint) rather than blackhole the send. *)
                  if still_valid t endpoint && not (inhibited t endpoint)
                  then begin
                    note_brownout t;
                    warn t "send(per-packet brownout)"
                      (send_frame t ~endpoint ~remote frame)
                  end
                  else warn t "send(per-packet)" (Error e)
              | Ok fresh ->
                  warn t "send(per-packet)"
                    (send_frame t ~endpoint:fresh ~remote frame));
          Ok ()
        end
        else send_frame t ~endpoint ~remote frame
      in
      (* After the frame is out (sealed under the pre-migration key),
         check whether this session's source EphID is due for renewal. *)
      maybe_migrate t c;
      result

(* ------------------------------------------------------------------ *)
(* Session teardown *)

let close t session =
  let conn_id = Session.conn_id session in
  match I64_tbl.find_opt t.conns conn_id with
  | None -> Error (Error.Rejected "unknown session")
  | Some c ->
      let seq, sealed = Session.seal session "" in
      let result =
        send_frame t ~endpoint:c.local ~remote:(Session.remote_cert session)
          (Session.Frame.Fin { conn_id; seq; sealed })
      in
      forget_session t conn_id;
      result

(* Only an authenticated close tears the session down: a spoofed Fin must
   not be able to kill someone's connection. *)
let handle_fin t c ~seq ~sealed =
  match open_sealed_counted c.session ~seq ~sealed with
  | Ok _ -> forget_session t (Session.conn_id c.session)
  | Error e -> warn t "fin" (Error e)

(* ------------------------------------------------------------------ *)
(* Server role (§VII-A) *)

let dns_request t ~what ~dns ~(client : endpoint) ~corr msg k =
  let payload = Msgs.to_bytes msg in
  let resend () =
    warn t (what ^ " send")
      (send_packet t
         ~src_ephid:(Ephid.to_bytes client.cert.Cert.ephid)
         ~dst_aid:(dns : Cert.t).Cert.aid
         ~dst_ephid:(Ephid.to_bytes dns.Cert.ephid)
         ~proto:Packet.Control ~payload)
  in
  start_corr_rpc t corr ~what ~resend
    ~on_reply:(fun reply -> k (Ok reply))
    ~on_timeout:(fun () -> k (Error (Error.Timeout what)))

(* DNS exchanges are fronted by a dedicated client endpoint (requested on
   demand and cached): its key material seals the query, and using it as
   the source keeps DNS traffic routable even from behind an access point,
   where the control EphID is local to the AP's domain. *)
let with_dns_endpoint t k = with_pooled_endpoint t "dns-client" k

let resolve_dns_cert t dns =
  match dns with
  | Some cert -> Ok cert
  | None -> begin
      match Option.bind t.identity (fun i -> i.dns_cert) with
      | Some cert -> Ok cert
      | None -> Error (Error.Rejected "no DNS service known")
    end

let publish t ~name ?dns ?ipv4 k =
  match resolve_dns_cert t dns with
  | Error e -> warn t "publish" (Error e)
  | Ok dns_cert ->
      (* Receive-only EphIDs are immune to shutoff (§VII-A), so the
         published name cannot be taken down by revoking its EphID. *)
      request_ephid_r t ~lifetime:Lifetime.Long ~receive_only:true (function
        | Error e -> warn t "publish: receive-only EphID" (Error e)
        | Ok ro_endpoint ->
            with_dns_endpoint t (function
              | Error e -> warn t "publish: dns client" (Error e)
              | Ok client -> begin
                  let corr = fresh_corr t in
                  match
                    Dns_service.Client.make_register ~rng:t.rng ~corr
                      ~client_cert:client.cert ~client_keys:client.keys
                      ~dns_cert ~name ~publish:ro_endpoint.cert ?ipv4
                      ~receive_only:true ()
                  with
                  | Error e -> warn t "publish: register" (Error e)
                  | Ok msg ->
                      dns_request t ~what:"publish" ~dns:dns_cert ~client ~corr
                        msg (function
                        | Error e -> warn t "publish" (Error e)
                        | Ok _reply -> k ())
                end))

let dns_lookup t ~name ?dns k =
  match (resolve_dns_cert t dns, require_att t) with
  | Error e, _ | _, Error e -> warn t "dns_lookup" (Error e)
  | Ok dns_cert, Ok att ->
      with_dns_endpoint t (function
        | Error e ->
            warn t "dns_lookup: client EphID" (Error e);
            k None
        | Ok client -> begin
          let corr = fresh_corr t in
          match
            Dns_service.Client.make_query ~rng:t.rng ~corr
              ~client_cert:client.cert ~client_keys:client.keys ~dns_cert ~name
          with
          | Error e -> warn t "dns_lookup: query" (Error e)
          | Ok msg ->
              dns_request t ~what:"dns_lookup" ~dns:dns_cert ~client ~corr msg
                (function
                  | Error e ->
                      warn t "dns_lookup" (Error e);
                      k None
                  | Ok reply ->
                  match
                    Dns_service.Client.read_reply ~client_keys:client.keys
                      ~client_cert:client.cert ~dns_cert reply
                  with
                  | Error e ->
                      warn t "dns_lookup: reply" (Error e);
                      k None
                  | Ok None -> k None
                  | Ok (Some record) -> begin
                      (* DNSSEC stand-in: drop records whose zone signature
                         does not verify. *)
                      match
                        Dns_service.Record.verify att.trust ~now:(att.now ()) record
                      with
                      | Ok () -> k (Some record)
                      | Error e ->
                          warn t "dns_lookup: record" (Error e);
                          k None
                    end)
        end)

(* ------------------------------------------------------------------ *)
(* ICMP (§VIII-B) *)

let ping t ~dst_aid ~dst_ephid k =
  match require_att t with
  | Error e -> warn t "ping" (Error e)
  | Ok att ->
      with_source_endpoint t (function
        | Error e -> warn t "ping: source EphID" (Error e)
        | Ok endpoint ->
          let ident = t.next_ping_ident in
          t.next_ping_ident <- (ident + 1) land 0xffff;
          let payload =
            Icmp.to_bytes (Icmp.Echo_request { ident; data = "apna-ping" })
          in
          let resend () =
            warn t "ping send"
              (send_packet t
                 ~src_ephid:(Ephid.to_bytes endpoint.cert.Cert.ephid)
                 ~dst_aid ~dst_ephid:(Ephid.to_bytes dst_ephid)
                 ~proto:Packet.Icmp ~payload)
          in
          (* The RTT clock starts at the first transmission; a reply to a
             retransmitted echo reports the total elapsed time. *)
          start_rpc t ~what:"ping" ~resend
            ~on_timeout:(fun () -> Hashtbl.remove t.pending_pings ident)
            (fun rpc ->
              Hashtbl.replace t.pending_pings ident (att.now_f (), k, rpc)))

(* ------------------------------------------------------------------ *)
(* Shutoff (victim side, Fig. 5) *)

let request_shutoff t ~session ~evidence =
  match I64_tbl.find_opt t.conns (Session.conn_id session) with
  | None -> Error (Error.Rejected "unknown session")
  | Some { local = endpoint; _ } ->
      let peer = Session.remote_cert session in
      let msg =
        Shutoff.make_request ~packet:evidence ~dst_cert:endpoint.cert
          ~dst_keys:endpoint.keys
      in
      send_packet t
        ~src_ephid:(Ephid.to_bytes endpoint.cert.Cert.ephid)
        ~dst_aid:peer.aid
        ~dst_ephid:(Ephid.to_bytes peer.aa_ephid)
        ~proto:Packet.Control ~payload:(Msgs.to_bytes msg)

(* ------------------------------------------------------------------ *)
(* Delivery *)

(* O(1) on the delivery path: every inbound packet resolves its local
   endpoint here. *)
let local_endpoint_for t raw_ephid =
  Hashtbl.find_opt t.endpoints_by_ephid raw_ephid

let handle_init t (pkt : Packet.t) conn ~conn_id ~(cert : Cert.t) ~seq ~sealed =
  let session_on (local : endpoint) =
    Session.create ~conn_id ~initiator:false ~local_cert:local.cert
      ~local_keys:local.keys ~remote_cert:cert ()
  in
  let deliver0 session = function
    | Some data when data <> "" -> t.data_handler ~session ~data
    | _ -> ()
  in
  match conn with
  | _ when I64_tbl.mem t.init_in_progress conn_id ->
      (* Retransmitted Init while the serving EphID is still being issued:
         the Accept will go out when it arrives. *)
      ()
  | Some c ->
      (* Retransmitted Init for a live connection: re-send the cached
         Accept verbatim (its seal must not be recomputed) and never
         re-deliver the 0-RTT data. *)
      c.last_packet <- Some pkt;
      Option.iter (fun resend -> resend ()) c.accept_resend
  | None -> (
      match
        (verify_peer_cert t cert, local_endpoint_for t pkt.header.dst_ephid)
      with
      | Error e, _ -> warn t "init: client certificate" (Error e)
      | Ok (), None ->
          Logs.warn (fun m -> m "%s: init for unknown EphID" t.host_name)
      | Ok (), Some local -> (
          match session_on local with
          | Error e -> warn t "init: session" (Error e)
          | Ok session ->
              (* 0-RTT data, sealed under the key for the EphID the client
                 targeted (the receive-only one for servers). *)
              let data0 =
                match open_sealed_counted session ~seq ~sealed with
                | Ok data -> Some data
                | Error e ->
                    warn t "init: 0-rtt" (Error e);
                    None
              in
              if not local.receive_only then begin
                (add_conn t session local).last_packet <- Some pkt;
                deliver0 session data0
              end
              else begin
                (* §VII-A: never source traffic from a receive-only EphID —
                   answer from a fresh serving EphID and move the session
                   onto it. *)
                I64_tbl.replace t.init_in_progress conn_id ();
                request_ephid_r t (fun result ->
                    I64_tbl.remove t.init_in_progress conn_id;
                    match Result.map (fun ep -> (ep, session_on ep)) result with
                    | Error e -> warn t "init: serving EphID" (Error e)
                    | Ok (_, Error e) ->
                        warn t "init: serving session" (Error e)
                    | Ok (serving, Ok session') ->
                        let c = add_conn t session' serving in
                        c.last_packet <- Some pkt;
                        let seq, sealed = Session.seal session' "" in
                        let accept_frame =
                          Session.Frame.Accept
                            { conn_id; cert = serving.cert; seq; sealed }
                        in
                        let resend () =
                          warn t "init: accept"
                            (send_frame t ~endpoint:serving ~remote:cert
                               accept_frame)
                        in
                        (* A lost Accept is recovered by the client's Init
                           retransmission hitting the cache. *)
                        c.accept_resend <- Some resend;
                        resend ();
                        if t.accept_zero_rtt then deliver0 session' data0
                        else
                          Logs.debug (fun m ->
                              m "%s: 0-RTT data refused by policy" t.host_name))
              end))

let handle_accept t c ~(cert : Cert.t) =
  let session = c.session in
  if Session.established session then begin
    (* Duplicate (retransmitted) Accept: the first one already rekeyed this
       session; rekeying again would reset the replay window and send
       sequence mid-connection. *)
    if not (Cert.equal (Session.remote_cert session) cert) then
      Logs.warn (fun m ->
          m "%s: conflicting accept for established conn ignored" t.host_name)
  end
  else begin
    match
      Result.bind (verify_peer_cert t cert) (fun () ->
          Session.rekey session ~remote_cert:cert)
    with
    | Error e -> warn t "accept" (Error e)
    | Ok () ->
        (* Cancel the Init retransmission loop and send what was queued
           for 0.5-RTT. *)
        Option.iter settle c.accept_wait;
        c.accept_wait <- None;
        let queued = List.rev c.queued_rev in
        c.queued_rev <- [];
        List.iter (fun data -> warn t "flush" (send t session data)) queued
  end

(* Peer side of a migration. Idempotency mirrors Init/Accept: a duplicate
   Rekey (the peer retransmitting because our ack was lost) is recognised
   by its certificate already being the session's remote and answered by
   re-sending the cached ack verbatim. *)
let handle_rekey t c ~(cert : Cert.t) ~seq ~sealed =
  let session = c.session in
  if Cert.equal (Session.remote_cert session) cert then
    Option.iter (fun resend -> resend ()) c.rekey_ack_resend
  else begin
    match
      Result.bind (verify_peer_cert t cert) (fun () ->
          (* Authenticate under the current (or grace-window) key before
             applying: only the session's owner can migrate it. *)
          Result.bind (open_sealed_counted session ~seq ~sealed) (fun _ ->
              Session.rekey session ~remote_cert:cert))
    with
    | Error e -> warn t "rekey" (Error e)
    | Ok () ->
        let local = c.local in
        let aseq, asealed = Session.seal session "" in
        let ack =
          Session.Frame.Rekey_ack
            { conn_id = Session.conn_id session; seq = aseq; sealed = asealed }
        in
        let resend () =
          warn t "rekey: ack" (send_frame t ~endpoint:local ~remote:cert ack)
        in
        c.rekey_ack_resend <- Some resend;
        resend ();
        (* A frame of ours died on the peer's old EphID: one bounded
           retransmission at its new address. *)
        Option.iter
          (fun payload ->
            c.pending_retx <- None;
            warn t "rekey: retransmit"
              (send_packet t ~src_ephid:(ephid_raw local) ~dst_aid:cert.aid
                 ~dst_ephid:(Ephid.to_bytes cert.ephid) ~proto:Packet.Data
                 ~payload))
          c.pending_retx;
        (* The peer renewing is a hint our own side may be near the same
           horizon. *)
        maybe_migrate t c
  end

let handle_rekey_ack t c ~seq ~sealed =
  (* Sealed under the post-migration key: proof the peer applied it. *)
  match open_sealed_counted c.session ~seq ~sealed with
  | Error e -> warn t "rekey ack" (Error e)
  | Ok _ ->
      Option.iter settle c.rekey;
      c.rekey <- None;
      c.migrating <- false

let handle_data_frame t c ~seq ~sealed =
  match open_sealed_counted c.session ~seq ~sealed with
  | Error e -> warn t "data" (Error e)
  | Ok data ->
      t.data_handler ~session:c.session ~data;
      (* Receive-path renewal check keeps a mostly-listening endpoint (a
         server) migrating on the client's traffic. *)
      maybe_migrate t c

(* ---- reactive recovery (ICMP-driven) ---- *)

let record_unreachable t reason =
  t.unreachable_total <- t.unreachable_total + 1;
  Queue.add reason t.unreachables_q;
  while Queue.length t.unreachables_q > unreachable_cap do
    ignore (Queue.pop t.unreachables_q)
  done;
  if M.enabled M.default then M.Counter.incr (m_unreachable reason)

(* Scrub a dead EphID out of every reuse path: granularity pools, the
   per-packet prefetch stock, and the endpoint list. Session bindings are
   replaced by the migration itself. *)
let invalidate_endpoint t raw =
  (* Cost is 1 index removal + the (granularity-bounded) pools + the
     (target-bounded) prefetch stock — never the endpoint population. *)
  let cost = ref 1 in
  Hashtbl.remove t.endpoints_by_ephid raw;
  Hashtbl.iter
    (fun key (e : endpoint) ->
      incr cost;
      if String.equal (ephid_raw e) raw then Hashtbl.remove t.pools key)
    (Hashtbl.copy t.pools);
  let keep = Queue.create () in
  Queue.iter
    (fun e ->
      incr cost;
      if not (String.equal (ephid_raw e) raw) then Queue.add e keep)
    t.prefetched;
  Queue.clear t.prefetched;
  Queue.transfer keep t.prefetched;
  t.last_endpoint_op_cost <- !cost

let frame_conn_id : Session.Frame.f -> int64 = function
  | Init { conn_id; _ } | Accept { conn_id; _ } | Data { conn_id; _ }
  | Fin { conn_id; _ } | Rekey { conn_id; _ } | Rekey_ack { conn_id; _ } ->
      conn_id

let recovery_cooldown_s = 5.0

(* An ICMP Ephid_expired/Ephid_revoked whose quoted bytes match a live
   session. The ICMP is addressed to the EphID that sourced the dropped
   packet; its source AID says where the drop happened: our own AS means
   our source EphID failed the egress check (migrate and retransmit the
   quoted frame once), a remote AS means the peer's EphID failed ingress
   (stash the frame; one retransmission when the peer's Rekey lands). *)
let try_recover t (pkt : Packet.t) ~reason ~quoted =
  match (Session.Frame.of_bytes quoted, t.att) with
  | Error _, _ | _, None -> ()
  | Ok frame, Some att -> begin
      match I64_tbl.find_opt t.conns (frame_conn_id frame) with
      | None -> ()
      | Some c ->
          let dead_raw = pkt.header.dst_ephid in
          if Hashtbl.mem t.shutoff_inhibited dead_raw then
            (* Shut off: recovering would defeat the revocation (Fig. 5). *)
            ()
          else if Addr.aid_equal pkt.header.src_aid att.aid then begin
            invalidate_endpoint t dead_raw;
            if att.now_f () -. c.recovery_last >= recovery_cooldown_s then begin
              c.recovery_last <- att.now_f ();
              t.recoveries <- t.recoveries + 1;
              M.Counter.incr m_recoveries;
              let retransmit (ep : endpoint) =
                let remote = Session.remote_cert c.session in
                warn t "recover: retransmit"
                  (send_packet t ~src_ephid:(ephid_raw ep)
                     ~dst_aid:remote.Cert.aid
                     ~dst_ephid:(Ephid.to_bytes remote.Cert.ephid)
                     ~proto:Packet.Data ~payload:quoted)
              in
              let bound = c.local in
              if String.equal (ephid_raw bound) dead_raw then
                (* The session's own binding died: migrate, then send the
                   quoted frame once from the fresh EphID. The peer opens
                   it through the grace window. *)
                migrate_session t c ~reason:(Icmp.reason_label reason)
                  ~and_then:retransmit ()
              else if still_valid t bound then
                (* A per-packet source died but the binding is alive:
                   retransmit from it (momentary per-flow degradation). *)
                retransmit bound
            end
          end
          else if Option.is_none c.pending_retx then
            c.pending_retx <- Some quoted
    end

let rec handle_icmp t (pkt : Packet.t) =
  match Icmp.of_bytes pkt.payload with
  | Error e -> warn t "icmp" (Error e)
  | Ok (Icmp.Encrypted { sealed }) -> begin
      (* §VIII-B: sealed to the key of the EphID the packet targets. *)
      match local_endpoint_for t pkt.header.dst_ephid with
      | None -> ()
      | Some local -> begin
          match Ecies.open_ ~secret:local.keys.kx_secret sealed with
          | Error e -> warn t "icmp: sealed" (Error e)
          | Ok inner -> begin
              match Icmp.of_bytes inner with
              | Ok (Icmp.Encrypted _) ->
                  warn t "icmp" (Error (Error.Malformed "nested encryption"))
              | _ -> handle_icmp t { pkt with payload = inner }
            end
        end
    end
  | Ok (Icmp.Echo_request { ident; data }) -> begin
      (* Reply from one of our endpoints, keeping the sender anonymous to
         everyone but our AS. *)
      match local_endpoint_for t pkt.header.dst_ephid with
      | None -> ()
      | Some local ->
          warn t "icmp reply"
            (send_packet t
               ~src_ephid:(Ephid.to_bytes local.cert.Cert.ephid)
               ~dst_aid:pkt.header.src_aid ~dst_ephid:pkt.header.src_ephid
               ~proto:Packet.Icmp
               ~payload:(Icmp.to_bytes (Icmp.Echo_reply { ident; data })))
    end
  | Ok (Icmp.Echo_reply { ident; _ }) -> begin
      match (Hashtbl.find_opt t.pending_pings ident, require_att t) with
      | Some (t0, k, rpc), Ok att ->
          Hashtbl.remove t.pending_pings ident;
          settle rpc;
          k (att.now_f () -. t0)
      | _ -> ()
    end
  | Ok (Icmp.Unreachable { reason; quoted }) -> begin
      record_unreachable t reason;
      match reason with
      | Icmp.Ephid_expired | Icmp.Ephid_revoked ->
          try_recover t pkt ~reason ~quoted
      | Icmp.No_route | Icmp.Host_unknown -> ()
    end
  | Ok (Icmp.Frag_needed { mtu; _ }) ->
      t.path_mtu <- Some (Option.fold ~none:mtu ~some:(min mtu) t.path_mtu)

let deliver t (pkt : Packet.t) =
  match pkt.proto with
  | Packet.Control -> begin
      match Msgs.of_bytes pkt.payload with
      | Error e -> warn t "control" (Error e)
      | Ok
          (( Msgs.Ephid_reply { corr; _ }
           | Msgs.Ephid_batch_reply { corr; _ }
           | Msgs.Dns_reply { corr; _ } ) as msg) ->
          dispatch_reply t corr msg
      | Ok (Msgs.Revocation_notice { ephid }) -> begin
          match Ephid.of_bytes ephid with
          | Error e -> warn t "revocation notice" (Error (Error.Malformed e))
          | Ok ephid ->
              (* Identify the application behind the revoked EphID from the
                 granularity pools (§VIII-A). *)
              let app =
                Hashtbl.fold
                  (fun key (ep : endpoint) acc ->
                    if Ephid.equal ep.cert.Cert.ephid ephid then
                      match String.index_opt key ':' with
                      | Some i ->
                          Some (String.sub key (i + 1) (String.length key - i - 1))
                      | None -> acc
                    else acc)
                  t.pools None
              in
              t.revocation_notices_rev <- (ephid, app) :: t.revocation_notices_rev;
              (* The AS shut this EphID off: purge it from every reuse path
                 and pin it so ICMP-driven recovery never resurrects the
                 flows it backed. *)
              let raw = Ephid.to_bytes ephid in
              Hashtbl.replace t.shutoff_inhibited raw ();
              invalidate_endpoint t raw
        end
      | Ok _ -> Logs.warn (fun m -> m "%s: unexpected control message" t.host_name)
    end
  | Packet.Data -> begin
      match Session.Frame.of_bytes pkt.payload with
      | Error e -> warn t "frame" (Error e)
      | Ok frame -> begin
          (* The session demux: one lookup, and nothing is kept for a
             connection the host does not have. *)
          let conn_id = frame_conn_id frame in
          let unknown what =
            Logs.warn (fun m -> m "%s: %s for unknown conn" t.host_name what)
          in
          match (frame, I64_tbl.find_opt t.conns conn_id) with
          | Init { cert; seq; sealed; _ }, conn ->
              handle_init t pkt conn ~conn_id ~cert ~seq ~sealed
          | Accept _, None -> unknown "accept"
          | Rekey _, None -> unknown "rekey"
          | Data _, None -> unknown "data"
          | (Fin _ | Rekey_ack _), None -> ()
          | Accept { cert; _ }, Some c -> handle_accept t c ~cert
          | Data { seq; sealed; _ }, Some c ->
              c.last_packet <- Some pkt;
              handle_data_frame t c ~seq ~sealed
          | Fin { seq; sealed; _ }, Some c -> handle_fin t c ~seq ~sealed
          | Rekey { cert; seq; sealed; _ }, Some c ->
              handle_rekey t c ~cert ~seq ~sealed
          | Rekey_ack { seq; sealed; _ }, Some c ->
              handle_rekey_ack t c ~seq ~sealed
        end
    end
  | Packet.Icmp -> handle_icmp t pkt
