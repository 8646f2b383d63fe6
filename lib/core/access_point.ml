open Apna_crypto
open Apna_net

let internal_ms_hid = Addr.hid_of_int 1
let internal_aa_hid = Addr.hid_of_int 3
let first_internal_hid = 0xc0a80002 (* 192.168.0.2 *)
let internal_ctrl_lifetime_s = 86_400
let internal_service_lifetime_s = 30 * 86_400

type ap_identity = {
  kha : Keys.host_as;
  ctrl_ephid : Ephid.t;
  ms_cert : Cert.t;
}

type internal_domain = {
  keys : Keys.as_keys;  (** the AP's own domain keys, under the virtual AID *)
  host_info : Host_info.t;
  ms_cert : Cert.t;
  aa_ephid : Ephid.t;
  id_signing_rng : Drbg.t;
}

module I64_tbl = Apna_util.I64_tbl

(* One relayed MS request: who it is for and which correlation id the host
   used, so the re-wrapped reply can echo it. *)
type relay = { host_name : string; host_kha : Keys.host_as; host_corr : int64 }

type t = {
  ap_name : string;
  rng : Drbg.t;
  virtual_aid : Addr.aid;
  mutable att : Host.attachment option;
  mutable identity : ap_identity option;
  mutable domain : internal_domain option;
  credentials : (string, unit) Hashtbl.t;
  mutable next_hid : int;
  internal_hosts : (string, Host.t) Hashtbl.t;
  hid_to_host : string Addr.Hid_tbl.t;
  (* Real-AS EphIDs relayed to internal hosts: the AP's ephid_info list. *)
  ephid_info : string Ephid.Tbl.t;
  (* In-flight relayed MS requests awaiting the AS's reply, keyed by the
     AP's own upstream correlation id. *)
  pending_relays : relay I64_tbl.t;
  mutable next_corr : int64;
  mutable relayed : int;
}

let create ~name ~rng ~virtual_as =
  {
    ap_name = name;
    rng;
    virtual_aid = Addr.aid_of_int virtual_as;
    att = None;
    identity = None;
    domain = None;
    credentials = Hashtbl.create 8;
    next_hid = first_internal_hid;
    internal_hosts = Hashtbl.create 8;
    hid_to_host = Addr.Hid_tbl.create 8;
    ephid_info = Ephid.Tbl.create 16;
    pending_relays = I64_tbl.create 8;
    next_corr = 0L;
    relayed = 0;
  }

let name t = t.ap_name
let identify t ephid = Ephid.Tbl.find_opt t.ephid_info ephid
let ephid_count t = Ephid.Tbl.length t.ephid_info
let relayed_requests t = t.relayed

let require name = function
  | Some v -> Ok v
  | None -> Error (Error.Rejected ("access point: no " ^ name))

(* ------------------------------------------------------------------ *)
(* AP packet output toward the real AS *)

let submit_as_ap t ~src_ephid ~dst_aid ~dst_ephid ~proto ~payload =
  match (require "attachment" t.att, require "identity" t.identity) with
  | Error e, _ | _, Error e -> Error e
  | Ok att, Ok id ->
      let header =
        Apna_header.make ~src_aid:att.aid ~src_ephid ~dst_aid ~dst_ephid ()
      in
      let pkt = Packet.make ~header ~proto ~payload in
      att.submit (Pkt_auth.seal ~auth_key:id.kha.auth pkt);
      Ok ()

(* ------------------------------------------------------------------ *)
(* Internal MS: relay EphID requests to the real AS (§VII-B) *)

let handle_internal_ms t (pkt : Packet.t) =
  let open_request () =
    match
      (require "domain" t.domain, require "identity" t.identity, Msgs.of_bytes pkt.payload)
    with
    | Error e, _, _ | _, Error e, _ -> Error e
    | _, _, Error e -> Error e
    | Ok domain, Ok id, Ok (Msgs.Ephid_request { corr; nonce; sealed }) -> begin
        match Ephid.parse_bytes domain.keys pkt.header.src_ephid with
        | Error e -> Error e
        | Ok (_, info) -> begin
            match Host_info.find domain.host_info info.hid with
            | Error e -> Error e
            | Ok entry -> begin
                match Aead.open_ ~key:(Keys.ctrl entry.kha) ~nonce sealed with
                | Error e -> Error (Error.Crypto e)
                | Ok body_bytes -> begin
                    match Msgs.Request_body.of_bytes body_bytes with
                    | Error e -> Error e
                    | Ok body -> Ok (id, info.hid, entry.kha, corr, body)
                  end
              end
          end
      end
    | _, _, Ok _ -> Error (Error.Malformed "AP MS: not an EphID request")
  in
  match open_request () with
  | Error e -> Logs.debug (fun m -> m "%s MS: %a" t.ap_name Error.pp e)
  | Ok (id, hid, host_kha, host_corr, body) -> begin
      (* Relay with the AP's own credentials but the host's public keys:
         the AS certifies keys it cannot link to the internal host. *)
      match Addr.Hid_tbl.find_opt t.hid_to_host hid with
      | None -> Logs.debug (fun m -> m "%s MS: unknown internal host" t.ap_name)
      | Some host_name ->
          (* The AP uses its own correlation id upstream (the host's ids
             are not unique across internal hosts) and echoes the host's
             downstream. *)
          t.next_corr <- Int64.add t.next_corr 1L;
          let ap_corr = t.next_corr in
          let relay_msg =
            Management.Client.make_request_raw ~rng:t.rng ~corr:ap_corr
              ~kha:id.kha ~kx_pub:body.kx_pub ~sig_pub:body.sig_pub
              ~lifetime:body.lifetime
          in
          I64_tbl.replace t.pending_relays ap_corr
            { host_name; host_kha; host_corr };
          t.relayed <- t.relayed + 1;
          (match
             submit_as_ap t
               ~src_ephid:(Ephid.to_bytes id.ctrl_ephid)
               ~dst_aid:id.ms_cert.aid
               ~dst_ephid:(Ephid.to_bytes id.ms_cert.ephid)
               ~proto:Packet.Control ~payload:(Msgs.to_bytes relay_msg)
           with
          | Ok () -> ()
          | Error e -> Logs.warn (fun m -> m "%s relay: %a" t.ap_name Error.pp e))
    end

let handle_relayed_reply t msg =
  let pending =
    match Msgs.corr msg with
    | None -> None
    | Some ap_corr ->
        let r = I64_tbl.find_opt t.pending_relays ap_corr in
        if Option.is_some r then I64_tbl.remove t.pending_relays ap_corr;
        r
  in
  match (pending, require "identity" t.identity, require "domain" t.domain) with
  | None, _, _ ->
      Logs.debug (fun m ->
          m "%s: MS reply with no pending relay (duplicate?)" t.ap_name)
  | _, Error e, _ | _, _, Error e ->
      Logs.warn (fun m -> m "%s: %a" t.ap_name Error.pp e)
  | Some relay, Ok id, Ok domain -> begin
      match Management.Client.read_reply ~kha:id.kha msg with
      | Error e -> Logs.warn (fun m -> m "%s: relay reply: %a" t.ap_name Error.pp e)
      | Ok cert -> begin
          (* Record who is behind this EphID — the AP's accountability
             duty — and pass the certificate on, re-encrypted for the
             host with the host's own correlation id. *)
          Ephid.Tbl.replace t.ephid_info cert.ephid relay.host_name;
          let nonce = Drbg.generate t.rng Aead.nonce_size in
          let reply =
            Msgs.Ephid_reply
              {
                corr = relay.host_corr;
                nonce;
                sealed =
                  Aead.seal ~key:(Keys.ctrl relay.host_kha) ~nonce (Cert.to_bytes cert);
              }
          in
          match Hashtbl.find_opt t.internal_hosts relay.host_name with
          | None -> ()
          | Some host ->
              let header =
                Apna_header.make ~src_aid:t.virtual_aid
                  ~src_ephid:(Ephid.to_bytes domain.ms_cert.ephid)
                  ~dst_aid:t.virtual_aid
                  ~dst_ephid:
                    (match Host.ctrl_ephid host with
                    | Some e -> Ephid.to_bytes e
                    | None -> String.make 16 '\000')
                  ()
              in
              Host.deliver host
                (Packet.make ~header ~proto:Packet.Control
                   ~payload:(Msgs.to_bytes reply))
        end
    end

(* ------------------------------------------------------------------ *)
(* Router role: internal host -> AS *)

let internal_kha t host_name =
  match t.domain with
  | None -> None
  | Some domain ->
      Addr.Hid_tbl.fold
        (fun hid name acc ->
          if String.equal name host_name then
            match Host_info.find domain.host_info hid with
            | Ok entry -> Some entry.kha
            | Error _ -> acc
          else acc)
        t.hid_to_host None

let router_submit t (pkt : Packet.t) =
  match (require "domain" t.domain, require "identity" t.identity, require "attachment" t.att) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      Logs.debug (fun m -> m "%s router: %a" t.ap_name Error.pp e)
  | Ok domain, Ok id, Ok att ->
      if
        Addr.aid_equal pkt.header.dst_aid t.virtual_aid
        && String.equal pkt.header.dst_ephid (Ephid.to_bytes domain.ms_cert.ephid)
      then handle_internal_ms t pkt
      else begin
        (* Identify the internal sender from the EphID (via ephid_info, not
           decryption — the EphID hides the AP's HID, not the host's) and
           verify the host's MAC before taking responsibility for the
           packet. *)
        match Ephid.of_bytes pkt.header.src_ephid with
        | Error e -> Logs.debug (fun m -> m "%s router: %s" t.ap_name e)
        | Ok src_ephid -> begin
            match Ephid.Tbl.find_opt t.ephid_info src_ephid with
            | None ->
                Logs.debug (fun m -> m "%s router: unknown source EphID" t.ap_name)
            | Some host_name -> begin
                match internal_kha t host_name with
                | None -> ()
                | Some host_kha ->
                    if not (Pkt_auth.verify ~auth_key:host_kha.auth pkt) then
                      Logs.debug (fun m -> m "%s router: bad host MAC" t.ap_name)
                    else begin
                      (* Rewrite: real source AID, AP's own MAC (§VII-B). *)
                      let header = { pkt.header with src_aid = att.aid } in
                      let pkt = { pkt with header } in
                      att.submit (Pkt_auth.seal ~auth_key:id.kha.auth pkt)
                    end
              end
          end
      end

(* ------------------------------------------------------------------ *)
(* Delivery from the AS side *)

let deliver t (pkt : Packet.t) =
  match Ephid.of_bytes pkt.header.dst_ephid with
  | Error e -> Logs.debug (fun m -> m "%s deliver: %s" t.ap_name e)
  | Ok dst -> begin
      match Ephid.Tbl.find_opt t.ephid_info dst with
      | Some host_name -> begin
          match Hashtbl.find_opt t.internal_hosts host_name with
          | Some host -> Host.deliver host pkt
          | None -> ()
        end
      | None -> begin
          (* Not an internal host's EphID: control traffic for the AP
             itself (MS relay replies). *)
          match (t.identity, pkt.proto) with
          | Some id, Packet.Control
            when String.equal pkt.header.dst_ephid (Ephid.to_bytes id.ctrl_ephid)
            -> begin
              match Msgs.of_bytes pkt.payload with
              | Ok (Msgs.Ephid_reply _ as msg) -> handle_relayed_reply t msg
              | Ok _ | Error _ ->
                  Logs.debug (fun m -> m "%s: unexpected control" t.ap_name)
            end
          | _ -> Logs.debug (fun m -> m "%s: undeliverable packet" t.ap_name)
        end
    end

(* ------------------------------------------------------------------ *)
(* Attachment and bootstrap *)

let attach t node ~credential =
  let att =
    As_node.add_device node ~name:t.ap_name ~credential ~deliver:(fun pkt ->
        deliver t pkt)
  in
  t.att <- Some att

let bootstrap t =
  match require "attachment" t.att with
  | Error e -> Error e
  | Ok att -> begin
      let dh_secret, dh_public = X25519.generate t.rng in
      match att.bootstrap_rpc ~host_dh_pub:dh_public with
      | Error e -> Error e
      | Ok reply -> begin
          match X25519.shared_secret ~secret:dh_secret ~peer:reply.as_dh_pub with
          | Error e -> Error (Error.Crypto e)
          | Ok shared_secret ->
              t.identity <-
                Some
                  {
                    kha = Keys.derive_host_as ~shared_secret;
                    ctrl_ephid = reply.ctrl_ephid;
                    ms_cert = reply.ms_cert;
                  };
              (* Bring up the internal domain under the virtual AID and
                 make its key verifiable by internal hosts. *)
              let keys = Keys.make_as t.rng ~aid:t.virtual_aid in
              Trust.register_as att.trust t.virtual_aid
                ~pub:(Ed25519.public_key keys.signing);
              let host_info = Host_info.create () in
              let expiry = att.now () + internal_service_lifetime_s in
              List.iter
                (fun hid -> Host_info.register host_info hid (Keys.derive_host_as ~shared_secret:(Drbg.generate t.rng 32)))
                [ internal_ms_hid; internal_aa_hid ];
              let aa_ephid =
                Ephid.issue_random keys t.rng ~hid:internal_aa_hid ~expiry
              in
              let ms_keys = Keys.make_ephid_keys t.rng in
              let ms_ephid =
                Ephid.issue_random keys t.rng ~hid:internal_ms_hid ~expiry
              in
              let ms_cert =
                Cert.issue keys ~ephid:ms_ephid ~expiry ~kx_pub:ms_keys.kx_public
                  ~sig_pub:(Ed25519.public_key ms_keys.sig_keypair) ~aa_ephid
              in
              t.domain <-
                Some
                  {
                    keys;
                    host_info;
                    ms_cert;
                    aa_ephid;
                    id_signing_rng = Drbg.split t.rng "id-signing";
                  };
              Ok ()
        end
    end

let attach_internal t host ~credential =
  Hashtbl.replace t.credentials credential ();
  Hashtbl.replace t.internal_hosts (Host.name host) host;
  let bootstrap_rpc ~host_dh_pub =
    match (require "domain" t.domain, require "attachment" t.att) with
    | Error e, _ | _, Error e -> Error e
    | Ok domain, Ok att ->
        if not (Hashtbl.mem t.credentials credential) then Error Error.Auth_failed
        else begin
          match
            X25519.shared_secret ~secret:domain.keys.dh_secret ~peer:host_dh_pub
          with
          | Error e -> Error (Error.Crypto e)
          | Ok shared_secret ->
              let hid = Addr.hid_of_int t.next_hid in
              t.next_hid <- t.next_hid + 1;
              let kha = Keys.derive_host_as ~shared_secret in
              Host_info.register domain.host_info hid kha;
              Addr.Hid_tbl.replace t.hid_to_host hid (Host.name host);
              let ctrl_expiry = att.now () + internal_ctrl_lifetime_s in
              let ctrl_ephid =
                Ephid.issue_random domain.keys t.rng ~hid ~expiry:ctrl_expiry
              in
              let id_info_signature =
                Ed25519.sign domain.keys.signing
                  (Registry.id_info_bytes ~ctrl_ephid ~ctrl_expiry)
              in
              Ok
                Registry.
                  {
                    ctrl_ephid;
                    ctrl_expiry;
                    as_dh_pub = domain.keys.dh_public;
                    ms_cert = domain.ms_cert;
                    dns_cert = None;
                    aa_ephid = domain.aa_ephid;
                    id_info_signature;
                  }
        end
  in
  match t.att with
  | None -> Logs.err (fun m -> m "%s: attach_internal before attach" t.ap_name)
  | Some att ->
      Host.attach host
        {
          aid = t.virtual_aid;
          now = att.now;
          now_f = att.now_f;
          submit = (fun pkt -> router_submit t pkt);
          schedule = att.schedule;
          bootstrap_rpc;
          trust = att.trust;
        }
