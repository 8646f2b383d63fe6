open Apna_crypto

type t = {
  ephid : Ephid.t;
  expiry : int;
  kx_pub : string;
  sig_pub : string;
  aid : Apna_net.Addr.aid;
  aa_ephid : Ephid.t;
  signature : string;
}

let size = 16 + 4 + 32 + 32 + 4 + 16 + 64

let write_body w t =
  let open Apna_util.Rw.Writer in
  bytes w (Ephid.to_bytes t.ephid);
  u32_of_int w t.expiry;
  bytes w t.kx_pub;
  bytes w t.sig_pub;
  bytes w (Apna_net.Addr.aid_to_bytes t.aid);
  bytes w (Ephid.to_bytes t.aa_ephid)

let signed_bytes t =
  let w = Apna_util.Rw.Writer.create ~capacity:(size - 64) () in
  write_body w t;
  Apna_util.Rw.Writer.contents w

let issue (keys : Keys.as_keys) ~ephid ~expiry ~kx_pub ~sig_pub ~aa_ephid =
  if String.length kx_pub <> 32 || String.length sig_pub <> 32 then
    invalid_arg "Cert.issue: public key size";
  let unsigned =
    { ephid; expiry; kx_pub; sig_pub; aid = keys.aid; aa_ephid; signature = "" }
  in
  { unsigned with signature = Ed25519.sign keys.signing (signed_bytes unsigned) }

let to_bytes t =
  let w = Apna_util.Rw.Writer.create ~capacity:size () in
  write_body w t;
  Apna_util.Rw.Writer.bytes w t.signature;
  Apna_util.Rw.Writer.contents w

let of_bytes s =
  let open Apna_util.Rw in
  let r = Reader.of_string s in
  let parse =
    let* ephid_bytes = Reader.bytes r 16 in
    let* ephid = Ephid.of_bytes ephid_bytes in
    let* expiry = Reader.u32_to_int r in
    let* kx_pub = Reader.bytes r 32 in
    let* sig_pub = Reader.bytes r 32 in
    let* aid_bytes = Reader.bytes r 4 in
    let* aid = Apna_net.Addr.aid_of_bytes aid_bytes in
    let* aa_bytes = Reader.bytes r 16 in
    let* aa_ephid = Ephid.of_bytes aa_bytes in
    let* signature = Reader.bytes r 64 in
    let* () = Reader.expect_end r in
    Ok { ephid; expiry; kx_pub; sig_pub; aid; aa_ephid; signature }
  in
  Result.map_error (fun e -> Error.Malformed ("cert: " ^ e)) parse

let equal a b = to_bytes a = to_bytes b

let pp ppf t =
  Format.fprintf ppf "cert{%a by %a exp=%d}" Ephid.pp t.ephid
    Apna_net.Addr.pp_aid t.aid t.expiry
