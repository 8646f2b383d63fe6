open Apna_crypto
open Apna_net
module M = Apna_obs.Metrics

let ms_hid = Addr.hid_of_int 1
let dns_hid = Addr.hid_of_int 2
let aa_hid = Addr.hid_of_int 3
let br_hid = Addr.hid_of_int 4
let broker_hid = Addr.hid_of_int 5
let first_customer_hid = 0x0a000001
let service_lifetime_s = 30 * 86_400

(* Per-AS service counters in the default registry, labeled by AID. *)
type obs = {
  m_ms : M.Counter.m;
  m_dns : M.Counter.m;
  m_shutoff : M.Counter.m;
  m_icmp : M.Counter.m;
  m_broker : M.Counter.m;
}

type t = {
  aid : Addr.aid;
  keys : Keys.as_keys;
  host_info : Host_info.t;
  revoked : Revocation.t;
  trust : Trust.t;
  topology : Topology.t;
  registry : Registry.t;
  management : Management.t;
  border_router : Border_router.t;
  accountability : Accountability.t;
  dns : Dns_service.t option;
  audit : Audit.t option;
  (* §VIII-B future work: certificates gleaned from passing Init/Accept
     frames, so ICMP feedback can be sealed to the offending source. *)
  cert_cache : Cert_cache.t option;
  aa_ephid : Ephid.t;
  ms_cert : Cert.t;
  br_ephid : Ephid.t;
  broker_ephid : Ephid.t;
  (* The privacy broker lives in its own library (apna_broker, which
     depends on this one); it installs its wire handler here so the AS can
     dispatch broker-addressed packets without a dependency cycle. *)
  mutable broker_handler : (now:int -> string -> string option) option;
  now : unit -> int;
  now_f : unit -> float;
  schedule : delay:float -> (unit -> unit) -> unit;
  rng : Drbg.t;
  deliver_by_hid : (Packet.t -> unit) Addr.Hid_tbl.t;
  hid_of_device : (string, Addr.hid) Hashtbl.t;
  mutable attached_hosts : Host.t list;
  mutable emit : next:Addr.aid -> Packet.t -> unit;
  (* One pending drain timer for the AA's bounded shutoff queue. *)
  mutable aa_drain_armed : bool;
  (* Verdict store backing submit_burst/receive_burst — per-AS, so bursts
     on different ASes never share state. *)
  burst : Border_router.Burst.t;
  obs : obs;
}

let service_kha rng = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32)

let create ~rng ~aid ~trust ~topology ~now ~now_f ~schedule ?dns_zone
    ?(lifetime_policy = Lifetime.default_policy) ?(retention = false)
    ?(icmp_encryption = false) ?expected_hosts ?aa_limits () =
  let keys = Keys.make_as rng ~aid in
  Trust.register_as trust aid ~pub:(Ed25519.public_key keys.signing);
  let host_info = Host_info.create ?expected_hosts () in
  let revoked = Revocation.create () in
  let expiry = now () + service_lifetime_s in
  (* Service identities: EphIDs bound to the reserved HIDs, registered in
     host_info so the ingress pipeline of Fig. 4 validates them like any
     destination. *)
  List.iter
    (fun hid -> Host_info.register host_info hid (service_kha rng))
    [ ms_hid; dns_hid; aa_hid; br_hid; broker_hid ];
  let aa_ephid = Ephid.issue_random keys rng ~hid:aa_hid ~expiry in
  let br_ephid = Ephid.issue_random keys rng ~hid:br_hid ~expiry in
  let broker_ephid = Ephid.issue_random keys rng ~hid:broker_hid ~expiry in
  let audit =
    if retention then
      Some (Audit.create ~owner:(string_of_int (Addr.aid_to_int aid)) ())
    else None
  in
  let cert_cache =
    if icmp_encryption then Some (Cert_cache.create ~capacity:4096) else None
  in
  let management =
    Management.create ~keys ~host_info ~revoked ~rng ~policy:lifetime_policy
      ~aa_ephid ?audit ()
  in
  let service_cert hid =
    let service_keys = Keys.make_ephid_keys rng in
    let ephid = Ephid.issue_random keys rng ~hid ~expiry in
    let cert =
      Cert.issue keys ~ephid ~expiry ~kx_pub:service_keys.kx_public
        ~sig_pub:(Ed25519.public_key service_keys.sig_keypair) ~aa_ephid
    in
    (cert, service_keys)
  in
  let ms_cert, _ms_keys = service_cert ms_hid in
  let dns =
    Option.map
      (fun zone ->
        let cert, dns_keys = service_cert dns_hid in
        let zone_key = Ed25519.generate rng in
        Trust.register_zone trust zone ~pub:(Ed25519.public_key zone_key);
        Dns_service.create ~rng:(Drbg.split rng "dns") ~trust ~zone ~zone_key
          ~cert ~keys:dns_keys ())
      dns_zone
  in
  let registry =
    Registry.create ~keys ~host_info ~rng ~first_hid:first_customer_hid ()
  in
  Registry.set_service_certs registry ~ms_cert
    ~dns_cert:(Option.map Dns_service.cert dns)
    ~aa_ephid;
  let border_router =
    Border_router.create ~keys ~host_info ~revoked ~topology ?audit ()
  in
  let accountability =
    Accountability.create ~keys ~host_info ~revoked ~trust ?limits:aa_limits ()
  in
  {
    aid;
    keys;
    host_info;
    revoked;
    trust;
    topology;
    registry;
    management;
    border_router;
    accountability;
    dns;
    audit;
    cert_cache;
    aa_ephid;
    ms_cert;
    br_ephid;
    broker_ephid;
    broker_handler = None;
    now;
    now_f;
    schedule;
    rng;
    deliver_by_hid = Addr.Hid_tbl.create 32;
    hid_of_device = Hashtbl.create 32;
    attached_hosts = [];
    aa_drain_armed = false;
    burst = Border_router.Burst.create ();
    emit =
      (fun ~next:_ _ ->
        Logs.err (fun m -> m "AS %a: emit not wired" Addr.pp_aid aid));
    obs =
      (let labels = [ ("aid", string_of_int (Addr.aid_to_int aid)) ] in
       {
         m_ms =
           M.Counter.register M.default ~labels
             ~help:"Requests dispatched to the management service"
             "apna_as_ms_requests_total";
         m_dns =
           M.Counter.register M.default ~labels
             ~help:"Queries dispatched to the DNS service"
             "apna_as_dns_queries_total";
         m_shutoff =
           M.Counter.register M.default ~labels
             ~help:"Shutoff requests handled by the accountability agent"
             "apna_as_shutoff_requests_total";
         m_icmp =
           M.Counter.register M.default ~labels
             ~help:"ICMP feedback packets sent to sources"
             "apna_as_icmp_sent_total";
         m_broker =
           M.Counter.register M.default ~labels
             ~help:"Requests dispatched to the privacy broker"
             "apna_as_broker_requests_total";
       });
  }

let aid t = t.aid
let keys t = t.keys
let host_info t = t.host_info
let revoked t = t.revoked
let registry t = t.registry
let management t = t.management
let border_router t = t.border_router
let accountability t = t.accountability
let dns t = t.dns
let audit t = t.audit
let cert_cache t = t.cert_cache
let aa_ephid t = t.aa_ephid
let broker_ephid t = t.broker_ephid
let set_broker_handler t handler = t.broker_handler <- Some handler
let set_emit t emit = t.emit <- emit
let hosts t = t.attached_hosts

(* ------------------------------------------------------------------ *)
(* Data plane: egress, routing, ingress, service dispatch.

   Infrastructure replies (MS, DNS, ICMP feedback) enter through [route]
   directly: the egress pipeline authenticates customer packets, not the
   AS's own. *)

let service_packet t ~src_ephid ~dst_aid ~dst_ephid ~proto ~payload =
  let header =
    Apna_header.make ~src_aid:t.aid ~src_ephid:(Ephid.to_bytes src_ephid)
      ~dst_aid ~dst_ephid ()
  in
  Packet.make ~header ~proto ~payload

(* Never generate an ICMP error about an ICMP error. *)
let offending_is_icmp_error (pkt : Packet.t) =
  pkt.proto = Packet.Icmp
  &&
  match Icmp.of_bytes pkt.payload with
  | Ok (Icmp.Unreachable _ | Icmp.Frag_needed _ | Icmp.Encrypted _) -> true
  | Ok (Icmp.Echo_request _ | Icmp.Echo_reply _) | Error _ -> false

let rec submit t pkt =
  match Border_router.egress_check t.border_router ~now:(t.now ()) pkt with
  | Ok _hid -> route t pkt
  | Error ((Error.Expired _ | Error.Revoked _) as e) ->
      Logs.debug (fun m -> m "AS %a egress drop: %a" Addr.pp_aid t.aid Error.pp e);
      egress_dead_feedback t pkt e
  | Error e ->
      Logs.debug (fun m -> m "AS %a egress drop: %a" Addr.pp_aid t.aid Error.pp e)

(* The source EphID failed its own AS's egress check because it expired or
   was revoked. The packet never left the AS, so the feedback loops straight
   back to the owner: the EphID still authenticates (only its validity
   failed), so parse it for the hid and deliver directly — the dead EphID
   would not pass an ingress check either. The full payload is quoted so
   the host can retransmit the exact frame after recovering (§VIII-B). *)
and egress_dead_feedback t (pkt : Packet.t) err =
  if not (offending_is_icmp_error pkt) then begin
    match Ephid.parse_bytes t.keys pkt.header.src_ephid with
    | Error _ -> ()
    | Ok (_, info) ->
        let reason =
          match err with
          | Error.Revoked _ -> Icmp.Ephid_revoked
          | _ -> Icmp.Ephid_expired
        in
        M.Counter.incr t.obs.m_icmp;
        deliver_local t info.hid
          (service_packet t ~src_ephid:t.br_ephid ~dst_aid:t.aid
             ~dst_ephid:pkt.header.src_ephid ~proto:Packet.Icmp
             ~payload:
               (Icmp.to_bytes
                  (Icmp.Unreachable { reason; quoted = pkt.payload })))
  end

and route t (pkt : Packet.t) =
  if Addr.aid_equal pkt.header.dst_aid t.aid then receive t pkt
  else begin
    match Topology.next_hop t.topology ~src:t.aid ~dst:pkt.header.dst_aid with
    | Some next -> t.emit ~next pkt
    | None -> unreachable_feedback t pkt Icmp.No_route
  end

and receive t pkt =
  match Border_router.ingress_check t.border_router ~now:(t.now ()) pkt with
  | Ok (Border_router.Forward next) -> t.emit ~next pkt
  | Ok (Border_router.Deliver hid) -> deliver_local t hid pkt
  | Error (Error.Expired _) -> unreachable_feedback t pkt Icmp.Ephid_expired
  | Error (Error.Revoked _) -> unreachable_feedback t pkt Icmp.Ephid_revoked
  | Error Error.Unknown_host -> unreachable_feedback t pkt Icmp.Host_unknown
  | Error Error.No_route -> unreachable_feedback t pkt Icmp.No_route
  | Error e ->
      Logs.debug (fun m -> m "AS %a ingress drop: %a" Addr.pp_aid t.aid Error.pp e)

and observe_certs t (pkt : Packet.t) =
  match t.cert_cache with
  | None -> ()
  | Some cache ->
      if pkt.proto = Packet.Data then begin
        match Session.Frame.of_bytes pkt.payload with
        | Ok (Session.Frame.Init { cert; _ })
        | Ok (Session.Frame.Accept { cert; _ })
        | Ok (Session.Frame.Rekey { cert; _ }) ->
            Cert_cache.observe cache cert
        | Ok
            ( Session.Frame.Data _ | Session.Frame.Fin _
            | Session.Frame.Rekey_ack _ )
        | Error _ ->
            ()
      end

and deliver_local t hid (pkt : Packet.t) =
  if Apna_obs.Event.enabled Apna_obs.Event.default then
    Apna_obs.Event.deliver Apna_obs.Event.default ~mac:pkt.header.mac
      ~aid:(Addr.aid_to_int t.aid) ~hid:(Addr.hid_to_int hid);
  observe_certs t pkt;
  if Addr.hid_equal hid ms_hid then dispatch_ms t pkt
  else if Addr.hid_equal hid dns_hid then dispatch_dns t pkt
  else if Addr.hid_equal hid aa_hid then dispatch_aa t pkt
  else if Addr.hid_equal hid broker_hid then dispatch_broker t pkt
  else if Addr.hid_equal hid br_hid then ()
  else begin
    match Addr.Hid_tbl.find_opt t.deliver_by_hid hid with
    | Some deliver -> deliver pkt
    | None ->
        Logs.debug (fun m ->
            m "AS %a: no attached host for %a" Addr.pp_aid t.aid Addr.pp_hid hid)
  end

and dispatch_ms t (pkt : Packet.t) =
  M.Counter.incr t.obs.m_ms;
  match Msgs.of_bytes pkt.payload with
  | Error e -> Logs.debug (fun m -> m "MS: %a" Error.pp e)
  | Ok (Msgs.Ephid_release _ as msg) -> begin
      match
        Management.handle_release t.management ~now:(t.now ())
          ~src_ephid:pkt.header.src_ephid msg
      with
      | Ok () -> ()
      | Error e -> Logs.debug (fun m -> m "MS release: %a" Error.pp e)
    end
  | Ok msg -> begin
      match
        Management.handle_request t.management ~now:(t.now ())
          ~src_ephid:pkt.header.src_ephid msg
      with
      | Error e -> Logs.debug (fun m -> m "MS: %a" Error.pp e)
      | Ok reply ->
          route t
            (service_packet t ~src_ephid:t.ms_cert.ephid
               ~dst_aid:pkt.header.src_aid ~dst_ephid:pkt.header.src_ephid
               ~proto:Packet.Control ~payload:(Msgs.to_bytes reply))
    end

and dispatch_dns t (pkt : Packet.t) =
  M.Counter.incr t.obs.m_dns;
  match t.dns with
  | None -> Logs.debug (fun m -> m "AS %a: no DNS service" Addr.pp_aid t.aid)
  | Some dns -> begin
      match Msgs.of_bytes pkt.payload with
      | Error e -> Logs.debug (fun m -> m "DNS: %a" Error.pp e)
      | Ok msg -> begin
          match Dns_service.handle dns ~now:(t.now ()) msg with
          | Error e -> Logs.debug (fun m -> m "DNS: %a" Error.pp e)
          | Ok reply ->
              route t
                (service_packet t
                   ~src_ephid:(Dns_service.cert dns).ephid
                   ~dst_aid:pkt.header.src_aid ~dst_ephid:pkt.header.src_ephid
                   ~proto:Packet.Control ~payload:(Msgs.to_bytes reply))
        end
    end

(* §VIII-A: tell the host which EphID was shut off so it can identify
   (and act on) the application behind it. Delivered directly: the
   revoked EphID would no longer pass ingress. *)
and revocation_notice t (hid, ephid) =
  let notice =
    service_packet t ~src_ephid:t.aa_ephid ~dst_aid:t.aid
      ~dst_ephid:(Ephid.to_bytes ephid) ~proto:Packet.Control
      ~payload:(Msgs.to_bytes (Msgs.Revocation_notice { ephid = Ephid.to_bytes ephid }))
  in
  deliver_local t hid notice

(* The drain loop for the AA's bounded shutoff queue: one timer pending at
   a time, re-armed while work remains. Each pass verifies a budgeted slice
   and flushes granted revocations to the routers as one batch. *)
and arm_aa_drain t =
  if not t.aa_drain_armed then begin
    t.aa_drain_armed <- true;
    let delay = (Accountability.limits t.accountability).drain_interval_s in
    t.schedule ~delay (fun () ->
        t.aa_drain_armed <- false;
        let grants =
          Accountability.drain t.accountability ~now:(t.now ()) ~at:(t.now_f ())
        in
        List.iter (fun g -> revocation_notice t g) grants;
        if grants <> [] then
          Logs.info (fun m ->
              m "AS %a: %d shutoff(s) executed" Addr.pp_aid t.aid
                (List.length grants));
        if Accountability.queue_depth t.accountability > 0 then arm_aa_drain t)
  end

and dispatch_aa t (pkt : Packet.t) =
  M.Counter.incr t.obs.m_shutoff;
  match Msgs.of_bytes pkt.payload with
  | Error e -> Logs.debug (fun m -> m "AA: %a" Error.pp e)
  | Ok msg -> begin
      (* Admission control at arrival, expensive verification deferred to
         the budgeted drain loop. *)
      match
        Accountability.enqueue t.accountability ~now:(t.now ()) ~at:(t.now_f ())
          msg
      with
      | Accountability.Queued -> arm_aa_drain t
      | Accountability.Refused e ->
          Logs.info (fun m ->
              m "AS %a: shutoff refused: %a" Addr.pp_aid t.aid Error.pp e)
      | Accountability.Shed ->
          Logs.info (fun m -> m "AS %a: shutoff shed under load" Addr.pp_aid t.aid)
    end

and dispatch_broker t (pkt : Packet.t) =
  M.Counter.incr t.obs.m_broker;
  match t.broker_handler with
  | None ->
      Logs.debug (fun m -> m "AS %a: no privacy broker attached" Addr.pp_aid t.aid)
  | Some handler -> begin
      match handler ~now:(t.now ()) pkt.payload with
      | None -> ()
      | Some reply ->
          route t
            (service_packet t ~src_ephid:t.broker_ephid
               ~dst_aid:pkt.header.src_aid ~dst_ephid:pkt.header.src_ephid
               ~proto:Packet.Control ~payload:reply)
    end

and unreachable_feedback t (pkt : Packet.t) reason =
  (* §VIII-B: the source EphID is a working return address, so the network
     can tell the sender why delivery failed — without learning who the
     sender is. The whole offending payload is quoted (like deep-quoting
     RFC 1812 routers) so a recovering sender can retransmit it verbatim. *)
  icmp_to_source t pkt (Icmp.Unreachable { reason; quoted = pkt.payload })

and icmp_to_source t (pkt : Packet.t) msg =
  if not (offending_is_icmp_error pkt) then begin
    (* Seal the feedback when the source's certificate is at hand
       (§VIII-B): the error then reveals nothing even to on-path
       observers. Fall back to plaintext ICMP otherwise. *)
    let payload =
      match
        Option.bind t.cert_cache (fun cache ->
            match Ephid.of_bytes pkt.header.src_ephid with
            | Ok e -> Cert_cache.find cache e
            | Error _ -> None)
      with
      | Some (cert : Cert.t) -> begin
          match Ecies.seal ~rng:t.rng ~peer_pub:cert.kx_pub (Icmp.to_bytes msg) with
          | Ok sealed -> Icmp.to_bytes (Icmp.Encrypted { sealed })
          | Error _ -> Icmp.to_bytes msg
        end
      | None -> Icmp.to_bytes msg
    in
    M.Counter.incr t.obs.m_icmp;
    route t
      (service_packet t ~src_ephid:t.br_ephid ~dst_aid:pkt.header.src_aid
         ~dst_ephid:pkt.header.src_ephid ~proto:Packet.Icmp ~payload)
  end

(* Burst drivers: one batched border-router pass, then per-packet dispatch
   identical to [submit]/[receive]. Not reentrant — a host that submits a
   burst synchronously from its delivery callback would clobber the
   verdict store mid-loop (single-packet [submit] from a callback is
   fine: it uses the router's own one-slot store). *)

let submit_burst t pkts ~n =
  Border_router.egress_burst t.border_router ~now:(t.now ()) pkts ~n t.burst;
  for i = 0 to n - 1 do
    match Border_router.Burst.error t.burst i with
    | None -> route t pkts.(i)
    | Some ((Error.Expired _ | Error.Revoked _) as e) ->
        Logs.debug (fun m -> m "AS %a egress drop: %a" Addr.pp_aid t.aid Error.pp e);
        egress_dead_feedback t pkts.(i) e
    | Some e ->
        Logs.debug (fun m -> m "AS %a egress drop: %a" Addr.pp_aid t.aid Error.pp e)
  done

let receive_burst t pkts ~n =
  Border_router.ingress_burst t.border_router ~now:(t.now ()) pkts ~n t.burst;
  for i = 0 to n - 1 do
    let pkt = pkts.(i) in
    match Border_router.Burst.error t.burst i with
    | None ->
        let next = Border_router.Burst.forward_aid t.burst i in
        if next >= 0 then t.emit ~next:(Addr.aid_of_int next) pkt
        else
          deliver_local t
            (Addr.hid_of_int (Border_router.Burst.hid t.burst i))
            pkt
    | Some (Error.Expired _) -> unreachable_feedback t pkt Icmp.Ephid_expired
    | Some (Error.Revoked _) -> unreachable_feedback t pkt Icmp.Ephid_revoked
    | Some Error.Unknown_host -> unreachable_feedback t pkt Icmp.Host_unknown
    | Some Error.No_route -> unreachable_feedback t pkt Icmp.No_route
    | Some e ->
        Logs.debug (fun m -> m "AS %a ingress drop: %a" Addr.pp_aid t.aid Error.pp e)
  done

(* ------------------------------------------------------------------ *)
(* Host and device attachment *)

let add_device t ~name ~credential ~deliver =
  Registry.enroll t.registry ~credential;
  let bootstrap_rpc ~host_dh_pub =
    match
      Registry.bootstrap t.registry ~now:(t.now ()) ~credential ~host_dh_pub
    with
    | Error e -> Error e
    | Ok (reply, hid) ->
        (* Index the device under its (new) HID for intra-domain delivery;
           a re-bootstrap drops the previous binding. *)
        (match Hashtbl.find_opt t.hid_of_device name with
        | Some old -> Addr.Hid_tbl.remove t.deliver_by_hid old
        | None -> ());
        Hashtbl.replace t.hid_of_device name hid;
        Addr.Hid_tbl.replace t.deliver_by_hid hid deliver;
        Ok reply
  in
  ({
     aid = t.aid;
     now = t.now;
     now_f = t.now_f;
     submit = (fun pkt -> submit t pkt);
     schedule = t.schedule;
     bootstrap_rpc;
     trust = t.trust;
   }
    : Host.attachment)

let add_host t host ?deliver ~credential () =
  let deliver =
    match deliver with
    | Some f -> f
    | None -> fun pkt -> Host.deliver host pkt
  in
  let attachment =
    add_device t ~name:(Host.name host) ~credential ~deliver
  in
  t.attached_hosts <- host :: t.attached_hosts;
  Host.attach host attachment

let feedback_to_source t pkt msg = icmp_to_source t pkt msg
