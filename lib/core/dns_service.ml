open Apna_crypto

module Record = struct
  type t = {
    name : string;
    cert : Cert.t;
    ipv4 : Apna_net.Addr.hid option;
    receive_only : bool;
    zone : string;
    signature : string;
  }

  let write_var w s =
    Apna_util.Rw.Writer.u16 w (String.length s);
    Apna_util.Rw.Writer.bytes w s

  let body_bytes t =
    let w = Apna_util.Rw.Writer.create () in
    write_var w t.name;
    Apna_util.Rw.Writer.bytes w (Cert.to_bytes t.cert);
    (match t.ipv4 with
    | None -> Apna_util.Rw.Writer.u8 w 0
    | Some hid ->
        Apna_util.Rw.Writer.u8 w 1;
        Apna_util.Rw.Writer.bytes w (Apna_net.Addr.hid_to_bytes hid));
    Apna_util.Rw.Writer.u8 w (if t.receive_only then 1 else 0);
    write_var w t.zone;
    Apna_util.Rw.Writer.contents w

  let to_bytes t =
    let w = Apna_util.Rw.Writer.create () in
    Apna_util.Rw.Writer.bytes w (body_bytes t);
    Apna_util.Rw.Writer.bytes w t.signature;
    Apna_util.Rw.Writer.contents w

  let of_bytes s =
    let open Apna_util.Rw in
    let r = Reader.of_string s in
    let read_var r =
      let* len = Reader.u16 r in
      Reader.bytes r len
    in
    let parse =
      let* name = read_var r in
      let* cert_bytes = Reader.bytes r Cert.size in
      let* cert = Result.map_error Error.to_string (Cert.of_bytes cert_bytes) in
      let* has_ipv4 = Reader.u8 r in
      let* ipv4 =
        if has_ipv4 = 1 then
          let* b = Reader.bytes r 4 in
          let* hid = Apna_net.Addr.hid_of_bytes b in
          Ok (Some hid)
        else Ok None
      in
      let* ro = Reader.u8 r in
      let* zone = read_var r in
      let* signature = Reader.bytes r 64 in
      let* () = Reader.expect_end r in
      Ok { name; cert; ipv4; receive_only = ro = 1; zone; signature }
    in
    Result.map_error (fun e -> Error.Malformed ("dns record: " ^ e)) parse

  let verify trust ~now t =
    if t.cert.expiry < now then Error (Error.Expired "DNS record certificate")
    else
      Trust.verify_zone trust t.zone ~what:"DNS record" ~msg:(body_bytes t)
        ~signature:t.signature
end

type t = {
  rng : Drbg.t;
  trust : Trust.t;
  zone : string;
  zone_key : Ed25519.keypair;
  cert : Cert.t;
  keys : Keys.ephid_keys;
  table : (string, Record.t) Hashtbl.t;
}

let create ~rng ~trust ~zone ~zone_key ~cert ~keys () =
  { rng; trust; zone; zone_key; cert; keys; table = Hashtbl.create 16 }

let zone t = t.zone
let cert t = t.cert
let record_count t = Hashtbl.length t.table
let lookup t name = Hashtbl.find_opt t.table name

let register t ~now ~name ~cert ?ipv4 ~receive_only () =
  match Trust.verify_cert t.trust ~now cert with
  | Error e -> Error e
  | Ok () ->
      let unsigned =
        Record.{ name; cert; ipv4; receive_only; zone = t.zone; signature = "" }
      in
      let signature = Ed25519.sign t.zone_key (Record.body_bytes unsigned) in
      Hashtbl.replace t.table name { unsigned with signature };
      Ok ()

(* Query confidentiality: a one-shot key from ECDH between the client's
   EphID key and the DNS service's EphID key, bound to both EphIDs. *)
let exchange_key ~secret ~peer_pub ~client_ephid ~dns_ephid =
  match X25519.shared_secret ~secret ~peer:peer_pub with
  | Error e -> Error (Error.Crypto e)
  | Ok shared ->
      let info =
        "apna:dns:v1" ^ Ephid.to_bytes client_ephid ^ Ephid.to_bytes dns_ephid
      in
      Ok (Aead.of_secret (Hkdf.derive ~info ~len:32 shared))

let service_key t ~(client_cert : Cert.t) =
  exchange_key ~secret:t.keys.kx_secret ~peer_pub:client_cert.kx_pub
    ~client_ephid:client_cert.ephid ~dns_ephid:t.cert.ephid

let handle t ~now msg =
  let open_sealed ~client_cert ~nonce ~sealed =
    match Cert.of_bytes client_cert with
    | Error e -> Error e
    | Ok client_cert -> begin
        match Trust.verify_cert t.trust ~now client_cert with
        | Error e -> Error e
        | Ok () -> begin
            match service_key t ~client_cert with
            | Error e -> Error e
            | Ok key -> begin
                match Aead.open_ ~key ~nonce sealed with
                | Error e -> Error (Error.Crypto e)
                | Ok plain -> Ok (client_cert, key, plain)
              end
          end
      end
  in
  (* The requester's correlation id is echoed so the host can pair the
     reply even after loss or reordering. *)
  let reply ~corr key payload =
    let nonce = Drbg.generate t.rng Aead.nonce_size in
    Msgs.Dns_reply { corr; nonce; sealed = Aead.seal ~key ~nonce payload }
  in
  match msg with
  | Msgs.Dns_query { corr; client_cert; nonce; sealed } -> begin
      match open_sealed ~client_cert ~nonce ~sealed with
      | Error e -> Error e
      | Ok (_cert, key, name) ->
          let payload =
            match lookup t name with
            | Some record -> Record.to_bytes record
            | None -> ""
          in
          Ok (reply ~corr key payload)
    end
  | Msgs.Dns_register { corr; client_cert; nonce; sealed } -> begin
      match open_sealed ~client_cert ~nonce ~sealed with
      | Error e -> Error e
      | Ok (_cert, key, body) -> begin
          let open Apna_util.Rw in
          let r = Reader.of_string body in
          let parse =
            let* name_len = Reader.u16 r in
            let* name = Reader.bytes r name_len in
            let* publish_bytes = Reader.bytes r Cert.size in
            let* has_ipv4 = Reader.u8 r in
            let* ipv4 =
              if has_ipv4 = 1 then
                let* b = Reader.bytes r 4 in
                let* hid = Apna_net.Addr.hid_of_bytes b in
                Ok (Some hid)
              else Ok None
            in
            let* ro = Reader.u8 r in
            Ok (name, publish_bytes, ipv4, ro = 1)
          in
          match parse with
          | Error e -> Error (Error.Malformed ("dns register: " ^ e))
          | Ok (name, publish_bytes, ipv4, receive_only) -> begin
              match Cert.of_bytes publish_bytes with
              | Error e -> Error e
              | Ok publish -> begin
                  match register t ~now ~name ~cert:publish ?ipv4 ~receive_only () with
                  | Error e -> Error e
                  | Ok () -> Ok (reply ~corr key "ok")
                end
            end
        end
    end
  | _ -> Error (Error.Malformed "DNS: unexpected message")

module Client = struct
  let client_key ~(client_keys : Keys.ephid_keys) ~(client_cert : Cert.t)
      ~(dns_cert : Cert.t) =
    exchange_key ~secret:client_keys.kx_secret ~peer_pub:dns_cert.kx_pub
      ~client_ephid:client_cert.ephid ~dns_ephid:dns_cert.ephid

  let make_query ~rng ~corr ~client_cert ~client_keys ~dns_cert ~name =
    match client_key ~client_keys ~client_cert ~dns_cert with
    | Error e -> Error e
    | Ok key ->
        let nonce = Drbg.generate rng Aead.nonce_size in
        Ok
          (Msgs.Dns_query
             {
               corr;
               client_cert = Cert.to_bytes client_cert;
               nonce;
               sealed = Aead.seal ~key ~nonce name;
             })

  let read_reply ~client_keys ~client_cert ~dns_cert msg =
    match msg with
    | Msgs.Dns_reply { nonce; sealed; _ } -> begin
        match client_key ~client_keys ~client_cert ~dns_cert with
        | Error e -> Error e
        | Ok key -> begin
            match Aead.open_ ~key ~nonce sealed with
            | Error e -> Error (Error.Crypto e)
            | Ok "" -> Ok None
            | Ok bytes -> Result.map Option.some (Record.of_bytes bytes)
          end
      end
    | _ -> Error (Error.Malformed "expected a DNS reply")

  let make_register ~rng ~corr ~client_cert ~client_keys ~dns_cert ~name
      ~publish ?ipv4 ~receive_only () =
    match client_key ~client_keys ~client_cert ~dns_cert with
    | Error e -> Error e
    | Ok key ->
        let w = Apna_util.Rw.Writer.create () in
        Apna_util.Rw.Writer.u16 w (String.length name);
        Apna_util.Rw.Writer.bytes w name;
        Apna_util.Rw.Writer.bytes w (Cert.to_bytes publish);
        (match ipv4 with
        | None -> Apna_util.Rw.Writer.u8 w 0
        | Some hid ->
            Apna_util.Rw.Writer.u8 w 1;
            Apna_util.Rw.Writer.bytes w (Apna_net.Addr.hid_to_bytes hid));
        Apna_util.Rw.Writer.u8 w (if receive_only then 1 else 0);
        let nonce = Drbg.generate rng Aead.nonce_size in
        Ok
          (Msgs.Dns_register
             {
               corr;
               client_cert = Cert.to_bytes client_cert;
               nonce;
               sealed = Aead.seal ~key ~nonce (Apna_util.Rw.Writer.contents w);
             })
end
