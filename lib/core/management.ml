open Apna_crypto
module M = Apna_obs.Metrics

(* Process-wide batched-issuance totals, shown in the default registry. *)
type batch_totals = { mutable requests : int; mutable grants : int }

let batch_totals = { requests = 0; grants = 0 }

let () =
  M.Counter.register_fn M.default "apna_ms_issuance_batch_requests_total"
    ~help:"Batched EphID issuance requests handled by the MS" (fun () ->
      batch_totals.requests);
  M.Counter.register_fn M.default "apna_ms_issuance_batch_grants_total"
    ~help:"EphIDs granted through the batched issuance path" (fun () ->
      batch_totals.grants)

(* One Drbg.generate call yields IVs for this many issuances. At 4 bytes
   per IV the HMAC-DRBG cost drops from ~3 HMACs per EphID to ~(n/8+2)/n
   — the per-grant amortization PINOT-style lightweight issuance needs. *)
let iv_pool_count = 64

type t = {
  keys : Keys.as_keys;
  host_info : Host_info.t;
  revoked : Revocation.t;
  rng : Drbg.t;
  policy : Lifetime.policy;
  aa_ephid : Ephid.t;
  audit : Audit.t option;
  mutable issued : int;
  mutable released : int;
  mutable batch_requests : int;
  (* Pooled EphID IVs: refilled [iv_pool_count] at a time and consumed by
     BOTH the single and batched issuance paths, so the two are
     byte-identical under the same DRBG seed (the qcheck equivalence
     property) and the single path enjoys the same amortization. *)
  mutable iv_pool : string;
  mutable iv_off : int;
}

let create ~keys ~host_info ?(revoked = Revocation.create ()) ~rng
    ?(policy = Lifetime.default_policy) ~aa_ephid ?audit () =
  {
    keys;
    host_info;
    revoked;
    rng;
    policy;
    aa_ephid;
    audit;
    issued = 0;
    released = 0;
    batch_requests = 0;
    iv_pool = "";
    iv_off = 0;
  }

let next_iv t =
  if t.iv_off >= String.length t.iv_pool then begin
    t.iv_pool <- Drbg.generate t.rng (iv_pool_count * Ephid.iv_size);
    t.iv_off <- 0
  end;
  let iv = String.sub t.iv_pool t.iv_off Ephid.iv_size in
  t.iv_off <- t.iv_off + Ephid.iv_size;
  iv

let issue_direct t ~now ~hid ~kx_pub ~sig_pub ~lifetime =
  if String.length kx_pub <> 32 || String.length sig_pub <> 32 then
    Error (Error.Malformed "ephemeral public key size")
  else begin
    let expiry = now + Lifetime.seconds t.policy lifetime in
    let ephid = Ephid.issue t.keys ~hid ~expiry ~iv:(next_iv t) in
    let cert =
      Cert.issue t.keys ~ephid ~expiry ~kx_pub ~sig_pub ~aa_ephid:t.aa_ephid
    in
    t.issued <- t.issued + 1;
    (* Data retention (§VIII-H): the EphID -> HID binding, nothing more. *)
    Option.iter (fun a -> Audit.record_issuance a ~now ~ephid ~hid) t.audit;
    Ok cert
  end

let issue_batch t ~now ~hid ~items ~lifetime =
  let n = List.length items in
  if n = 0 || n > Msgs.Batch_request_body.max_batch then
    Error (Error.Malformed "batch count out of range")
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | ({ kx_pub; sig_pub } : Msgs.Batch_request_body.item) :: rest -> begin
          match issue_direct t ~now ~hid ~kx_pub ~sig_pub ~lifetime with
          | Error e -> Error e
          | Ok cert -> go (cert :: acc) rest
        end
    in
    match go [] items with
    | Error e -> Error e
    | Ok certs ->
        t.batch_requests <- t.batch_requests + 1;
        batch_totals.requests <- batch_totals.requests + 1;
        batch_totals.grants <- batch_totals.grants + n;
        Ok certs
  end

(* Validate the control EphID and open a kHA-ctrl-sealed body — shared by
   requests, batches and releases: the Fig. 3 checks paid once per
   message, however many grants it carries. *)
let open_from_host ~keys ~host_info ~now ~src_ephid ~nonce ~sealed =
  match Ephid.parse_bytes keys src_ephid with
  | Error e -> Error e
  | Ok (_, info) when Ephid.expired info ~now ->
      Error (Error.Expired "control EphID")
  | Ok (_, info) -> begin
      match Host_info.find host_info info.hid with
      | Error e -> Error e
      | Ok entry -> begin
          match Aead.open_ ~key:(Keys.ctrl entry.kha) ~nonce sealed with
          | Error e -> Error (Error.Crypto e)
          | Ok body -> Ok (info.hid, entry, body)
        end
    end

let open_own t = open_from_host ~keys:t.keys ~host_info:t.host_info

(* The reply is encrypted so that an observer cannot correlate issued
   EphIDs with the requesting control EphID (§IV-C). *)
let seal_reply t ~(entry : Host_info.entry) plaintext =
  let reply_nonce = Drbg.generate t.rng Aead.nonce_size in
  (reply_nonce, Aead.seal ~key:(Keys.ctrl entry.kha) ~nonce:reply_nonce plaintext)

let handle_request t ~now ~src_ephid msg =
  match msg with
  | Msgs.Ephid_request { corr; nonce; sealed } -> begin
      (* Fig. 3: decrypt the control EphID; check expiry; check HID. *)
      match open_own t ~now ~src_ephid ~nonce ~sealed with
      | Error e -> Error e
      | Ok (hid, entry, body_bytes) -> begin
          match Msgs.Request_body.of_bytes body_bytes with
          | Error e -> Error e
          | Ok body -> begin
              match
                issue_direct t ~now ~hid ~kx_pub:body.kx_pub
                  ~sig_pub:body.sig_pub ~lifetime:body.lifetime
              with
              | Error e -> Error e
              | Ok cert ->
                  let nonce, sealed = seal_reply t ~entry (Cert.to_bytes cert) in
                  (* Echo the requester's correlation id so the host can
                     pair the reply even after loss or reordering. *)
                  Ok (Msgs.Ephid_reply { corr; nonce; sealed })
            end
        end
    end
  | Msgs.Ephid_batch_request { corr; nonce; sealed } -> begin
      match open_own t ~now ~src_ephid ~nonce ~sealed with
      | Error e -> Error e
      | Ok (hid, entry, body_bytes) -> begin
          match Msgs.Batch_request_body.of_bytes body_bytes with
          | Error e -> Error e
          | Ok { items; lifetime } -> begin
              match issue_batch t ~now ~hid ~items ~lifetime with
              | Error e -> Error e
              | Ok certs ->
                  let reply_body =
                    Msgs.Batch_reply_body.to_bytes (List.map Cert.to_bytes certs)
                  in
                  let nonce, sealed = seal_reply t ~entry reply_body in
                  Ok (Msgs.Ephid_batch_reply { corr; nonce; sealed })
            end
        end
    end
  | _ -> Error (Error.Malformed "MS: not an EphID request")

let issued_count t = t.issued
let released_count t = t.released
let batch_request_count t = t.batch_requests

let handle_release t ~now ~src_ephid msg =
  match msg with
  | Msgs.Ephid_release { nonce; sealed } -> begin
      match open_own t ~now ~src_ephid ~nonce ~sealed with
      | Error e -> Error e
      | Ok (hid, _entry, body) -> begin
          match Ephid.parse_bytes t.keys body with
          | Error e -> Error e
          | Ok (released, info) ->
              (* Only the owner may retire an EphID. *)
              if not (Apna_net.Addr.hid_equal info.hid hid) then
                Error (Error.Rejected "release of a foreign EphID")
              else begin
                Revocation.revoke t.revoked released ~expiry:info.expiry;
                t.released <- t.released + 1;
                Ok ()
              end
        end
    end
  | _ -> Error (Error.Malformed "MS: not a release")

module Client = struct
  let make_request ~rng ~corr ~(kha : Keys.host_as) ~(keys : Keys.ephid_keys)
      ~lifetime =
    let sig_pub = Ed25519.public_key keys.sig_keypair in
    let body = Msgs.Request_body.to_bytes { kx_pub = keys.kx_public; sig_pub; lifetime } in
    let nonce = Drbg.generate rng Aead.nonce_size in
    Msgs.Ephid_request
      { corr; nonce; sealed = Aead.seal ~key:(Keys.ctrl kha) ~nonce body }

  let make_batch_request ~rng ~corr ~(kha : Keys.host_as) ~keys ~lifetime =
    let items =
      List.map
        (fun (k : Keys.ephid_keys) ->
          ({ kx_pub = k.kx_public; sig_pub = Ed25519.public_key k.sig_keypair }
            : Msgs.Batch_request_body.item))
        keys
    in
    let body = Msgs.Batch_request_body.to_bytes { items; lifetime } in
    let nonce = Drbg.generate rng Aead.nonce_size in
    Msgs.Ephid_batch_request
      { corr; nonce; sealed = Aead.seal ~key:(Keys.ctrl kha) ~nonce body }

  let make_release ~rng ~(kha : Keys.host_as) ~ephid =
    let nonce = Drbg.generate rng Aead.nonce_size in
    Msgs.Ephid_release
      { nonce;
        sealed = Aead.seal ~key:(Keys.ctrl kha) ~nonce (Ephid.to_bytes ephid)
      }

  let read_reply ~(kha : Keys.host_as) = function
    | Msgs.Ephid_reply { nonce; sealed; _ } -> begin
        match Aead.open_ ~key:(Keys.ctrl kha) ~nonce sealed with
        | Error e -> Error (Error.Crypto e)
        | Ok cert_bytes -> Cert.of_bytes cert_bytes
      end
    | _ -> Error (Error.Malformed "expected an EphID reply")

  let read_batch_reply ~(kha : Keys.host_as) = function
    | Msgs.Ephid_batch_reply { nonce; sealed; _ } -> begin
        match Aead.open_ ~key:(Keys.ctrl kha) ~nonce sealed with
        | Error e -> Error (Error.Crypto e)
        | Ok body -> begin
            match Msgs.Batch_reply_body.of_bytes body with
            | Error e -> Error e
            | Ok cert_bytes ->
                let rec parse acc = function
                  | [] -> Ok (List.rev acc)
                  | c :: rest -> begin
                      match Cert.of_bytes c with
                      | Error e -> Error e
                      | Ok cert -> parse (cert :: acc) rest
                    end
                in
                parse [] cert_bytes
          end
      end
    | _ -> Error (Error.Malformed "expected an EphID batch reply")
end
