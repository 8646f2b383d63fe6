open Apna_crypto
open Apna_net

(* The internal domain's reserved HIDs mirror an AS's (As_node): 1 = MS,
   3 = AA. Devices are numbered from 192.168.0.2. *)
let ms_hid = Addr.hid_of_int 1
let aa_hid = Addr.hid_of_int 3
let first_device_hid = 0xc0a80002
let service_lifetime_s = 30 * 86_400

(* The APNA domain the AP runs for its devices, under the virtual AID: its
   RS is an ordinary Registry, and its MS only checks and re-wraps. *)
type domain = {
  up : Host.attachment;  (** The AP's own attachment to its AS... *)
  up_kha : Keys.host_as;  (** ...and the kHA it shares with it. *)
  keys : Keys.as_keys;
  host_info : Host_info.t;
  registry : Registry.t;
  ms_cert : Cert.t;
}

(* One ephid_info entry: the device behind a relayed EphID, the internal
   HID it was issued to (whose kHA checks the device's MACs) and the
   certificate's expiry, after which the binding is dropped. *)
type binding = { device : Host.t; hid : Addr.hid; expiry : int }

(* One relayed request awaiting the AS's reply: whom it is for, under which
   kHA the reply is re-sealed, and the correlation id the device used. *)
type relay = { to_device : Host.t; to_hid : Addr.hid; kha : Keys.host_as; corr : int64 }

module I64_tbl = Apna_util.I64_tbl

type t = {
  rng : Drbg.t;
  upstream : Host.t;  (** The AP as one ordinary host of its AS (Fig. 2). *)
  virtual_aid : Addr.aid;
  mutable domain : domain option;
  devices : Host.t Addr.Hid_tbl.t;
  ephid_info : binding Ephid.Tbl.t;
  (* Keyed by the AP's own upstream correlation id: the devices' ids are
     not unique across devices. *)
  pending_relays : relay I64_tbl.t;
  mutable next_corr : int64;
  mutable relayed : int;
}

let create ~name ~rng ~virtual_as =
  {
    rng;
    upstream = Host.create ~name ~rng ();
    virtual_aid = Addr.aid_of_int virtual_as;
    domain = None;
    devices = Addr.Hid_tbl.create 8;
    ephid_info = Ephid.Tbl.create 16;
    pending_relays = I64_tbl.create 8;
    next_corr = 0L;
    relayed = 0;
  }

let name t = Host.name t.upstream

let identify t ephid =
  Option.map (fun b -> Host.name b.device) (Ephid.Tbl.find_opt t.ephid_info ephid)

let ephid_count t = Ephid.Tbl.length t.ephid_info
let relayed_requests t = t.relayed

let debug t what msg = Logs.debug (fun m -> m "%s %s: %s" (name t) what msg)

(* ------------------------------------------------------------------ *)
(* Internal MS: Management's Fig. 3 check, then the same body re-sealed
   under the AP's kHA (§VII-B). The AS certifies keys it cannot link to
   a device, and the AP never reads them. *)

let reseal t ~kha ~corr msg body =
  let nonce = Drbg.generate t.rng Aead.nonce_size in
  let sealed = Aead.seal ~key:(Keys.ctrl kha) ~nonce body in
  match msg with
  | Msgs.Ephid_request _ -> Msgs.Ephid_request { corr; nonce; sealed }
  | Msgs.Ephid_batch_request _ -> Msgs.Ephid_batch_request { corr; nonce; sealed }
  | Msgs.Ephid_reply _ -> Msgs.Ephid_reply { corr; nonce; sealed }
  | Msgs.Ephid_batch_reply _ -> Msgs.Ephid_batch_reply { corr; nonce; sealed }
  | _ -> Msgs.Ephid_release { nonce; sealed }

(* A device may release only an EphID relayed to the identity asking. *)
let owns t hid body =
  match Result.map (Ephid.Tbl.find_opt t.ephid_info) (Ephid.of_bytes body) with
  | Ok (Some b) -> Addr.hid_equal b.hid hid
  | Ok None | Error _ -> false

let relay_request t d (pkt : Packet.t) =
  let opened =
    match Msgs.of_bytes pkt.payload with
    | Error e -> Error e
    | Ok
        (( Msgs.Ephid_request { nonce; sealed; _ }
         | Msgs.Ephid_batch_request { nonce; sealed; _ }
         | Msgs.Ephid_release { nonce; sealed } ) as msg) ->
        Management.open_from_host ~keys:d.keys ~host_info:d.host_info
          ~now:(d.up.now ()) ~src_ephid:pkt.header.src_ephid ~nonce ~sealed
        |> Result.map (fun (hid, (entry : Host_info.entry), body) ->
               (msg, hid, entry.kha, body))
    | Ok _ -> Error (Error.Malformed "not an MS request")
  in
  match opened with
  | Error e -> debug t "MS" (Error.to_string e)
  | Ok (msg, hid, kha, body) -> begin
      match (Addr.Hid_tbl.find_opt t.devices hid, Msgs.corr msg) with
      | None, _ -> debug t "MS" "unknown device"
      | Some _, None when not (owns t hid body) ->
          debug t "MS" "release of an EphID the device does not hold"
      | Some device, corr ->
          t.next_corr <- Int64.add t.next_corr 1L;
          Option.iter
            (fun corr ->
              I64_tbl.replace t.pending_relays t.next_corr
                { to_device = device; to_hid = hid; kha; corr })
            corr;
          t.relayed <- t.relayed + 1;
          Result.iter_error
            (fun e -> Logs.warn (fun m -> m "%s relay: %a" (name t) Error.pp e))
            (Host.send_control t.upstream
               (Msgs.to_bytes (reseal t ~kha:d.up_kha ~corr:t.next_corr msg body)))
    end

(* Binds every EphID the reply carries to the device (the AP's
   accountability duty), dropping expired bindings first, and passes the
   reply on re-sealed for the device under its own correlation id. *)
let relay_reply t d msg ~corr ~nonce ~sealed =
  match I64_tbl.find_opt t.pending_relays corr with
  | None -> debug t "MS reply" "no pending relay"
  | Some r -> begin
      I64_tbl.remove t.pending_relays corr;
      match Aead.open_ ~key:(Keys.ctrl d.up_kha) ~nonce sealed with
      | Error e -> debug t "MS reply" e
      | Ok body ->
          let now = d.up.now () in
          Ephid.Tbl.filter_map_inplace
            (fun _ b -> if b.expiry < now then None else Some b)
            t.ephid_info;
          let certs =
            match msg with
            | Msgs.Ephid_batch_reply _ ->
                Result.value ~default:[] (Msgs.Batch_reply_body.of_bytes body)
            | _ -> [ body ]
          in
          List.iter
            (fun c ->
              Result.iter
                (fun (cert : Cert.t) ->
                  Ephid.Tbl.replace t.ephid_info cert.ephid
                    { device = r.to_device; hid = r.to_hid; expiry = cert.expiry })
                (Cert.of_bytes c))
            certs;
          Option.iter
            (fun ctrl ->
              let header =
                Apna_header.make ~src_aid:t.virtual_aid
                  ~src_ephid:(Ephid.to_bytes d.ms_cert.ephid) ~dst_aid:t.virtual_aid
                  ~dst_ephid:(Ephid.to_bytes ctrl) ()
              in
              let reply = reseal t ~kha:r.kha ~corr:r.corr msg body in
              Host.deliver r.to_device
                (Packet.make ~header ~proto:Packet.Control
                   ~payload:(Msgs.to_bytes reply)))
            (Host.ctrl_ephid r.to_device)
    end

(* ------------------------------------------------------------------ *)
(* Router role: device -> AS. The sender is found through ephid_info (the
   EphID hides the AP's HID, not the device's), its MAC checked under the
   kHA of the HID the EphID was relayed to, and the packet re-sent with the
   real source AID under the AP's own MAC (§VII-B). *)

let router_submit t (pkt : Packet.t) =
  match t.domain with
  | None -> debug t "router" "no domain"
  | Some d
    when Addr.aid_equal pkt.header.dst_aid t.virtual_aid
         && String.equal pkt.header.dst_ephid (Ephid.to_bytes d.ms_cert.ephid) ->
      relay_request t d pkt
  | Some d -> begin
      let binding =
        Result.map (Ephid.Tbl.find_opt t.ephid_info) (Ephid.of_bytes pkt.header.src_ephid)
      in
      match binding with
      | Error e -> debug t "router" e
      | Ok None -> debug t "router" "unknown source EphID"
      | Ok (Some b) -> begin
          match Host_info.find d.host_info b.hid with
          | Error e -> debug t "router" (Error.to_string e)
          | Ok entry when not (Pkt_auth.verify ~auth_key:entry.kha.auth pkt) ->
              debug t "router" "bad device MAC"
          | Ok _ ->
              Result.iter_error
                (fun e -> debug t "router" (Error.to_string e))
                (Host.send_packet t.upstream ~src_ephid:pkt.header.src_ephid
                   ~dst_aid:pkt.header.dst_aid ~dst_ephid:pkt.header.dst_ephid
                   ~proto:pkt.proto ~payload:pkt.payload)
        end
    end

(* ------------------------------------------------------------------ *)
(* Delivery from the AS: to the device behind the EphID, or, at the AP's
   own control EphID, the MS's replies to relayed requests. *)

let deliver t (pkt : Packet.t) =
  match Ephid.of_bytes pkt.header.dst_ephid with
  | Error e -> debug t "deliver" e
  | Ok dst -> begin
      match (Ephid.Tbl.find_opt t.ephid_info dst, t.domain) with
      | Some b, _ -> Host.deliver b.device pkt
      | None, Some d
        when pkt.proto = Packet.Control
             && Option.fold ~none:false ~some:(Ephid.equal dst)
                  (Host.ctrl_ephid t.upstream) -> begin
          match Msgs.of_bytes pkt.payload with
          | Ok
              (( Msgs.Ephid_reply { corr; nonce; sealed }
               | Msgs.Ephid_batch_reply { corr; nonce; sealed } ) as msg) ->
              relay_reply t d msg ~corr ~nonce ~sealed
          | Ok _ | Error _ -> debug t "deliver" "unexpected control"
        end
      | None, _ -> debug t "deliver" "undeliverable packet"
    end

(* ------------------------------------------------------------------ *)
(* Attachment and bootstrap *)

let attach t node ~credential =
  As_node.add_host node t.upstream ~deliver:(deliver t) ~credential ()

let bootstrap t =
  match (Host.bootstrap t.upstream, Host.attachment t.upstream, Host.kha t.upstream) with
  | Error e, _, _ -> Error e
  | Ok (), None, _ | Ok (), _, None -> Error (Error.Rejected "access point: no identity")
  | Ok (), Some up, Some up_kha ->
      (* The internal domain, under the virtual AID, with its key where
         devices verify their bootstrap bundle. *)
      let keys = Keys.make_as t.rng ~aid:t.virtual_aid in
      Trust.register_as up.trust t.virtual_aid ~pub:(Ed25519.public_key keys.signing);
      let host_info = Host_info.create () in
      let expiry = up.now () + service_lifetime_s in
      let aa_ephid = Ephid.issue_random keys t.rng ~hid:aa_hid ~expiry in
      let ms_cert, _ =
        As_node.service_cert ~rng:t.rng ~keys ~hid:ms_hid ~expiry ~aa_ephid
      in
      let registry =
        Registry.create ~keys ~host_info ~rng:t.rng ~first_hid:first_device_hid ()
      in
      Registry.set_service_certs registry ~ms_cert ~dns_cert:None ~aa_ephid;
      t.domain <- Some { up; up_kha; keys; host_info; registry; ms_cert };
      Ok ()

let attach_internal t host ~credential =
  match Host.attachment t.upstream with
  | None -> Logs.err (fun m -> m "%s: attach_internal before attach" (name t))
  | Some up ->
      let bootstrap_rpc ~host_dh_pub =
        match t.domain with
        | None -> Error (Error.Rejected "access point: not bootstrapped")
        | Some d ->
            (* As As_node.add_device: a re-bootstrap retires the old HID. *)
            let previous = Registry.hid_of_credential d.registry ~credential in
            Registry.enroll d.registry ~credential;
            Registry.bootstrap d.registry ~now:(up.now ()) ~credential ~host_dh_pub
            |> Result.map (fun (reply, hid) ->
                   Option.iter (Addr.Hid_tbl.remove t.devices) previous;
                   Addr.Hid_tbl.replace t.devices hid host;
                   reply)
      in
      Host.attach host
        { up with aid = t.virtual_aid; submit = router_submit t; bootstrap_rpc }
