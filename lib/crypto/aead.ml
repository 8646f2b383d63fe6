type scheme = Encrypt_then_mac | Gcm

(* Both subkeys are expanded/prepared once per key: the AES schedule at
   derivation, the HMAC ipad/opad midstates (plus a reusable hash context)
   likewise — so per-packet seal/open never re-runs key setup. The
   prepared MAC is mutable state, which keeps a key single-domain. *)
type key =
  | Etm of { enc : Aes.key; mac : Hmac.Sha256.prepared }
  | Gcm_key of Aes.key

let key_size = 32
let nonce_size = 16
let tag_size = 16

let of_secret ?(scheme = Encrypt_then_mac) ikm =
  if String.length ikm <> key_size then invalid_arg "Aead.of_secret: key size";
  match scheme with
  | Encrypt_then_mac ->
      let okm = Hkdf.derive ~info:"apna:aead:v1" ~len:64 ikm in
      Etm
        {
          enc = Aes.expand (String.sub okm 0 32);
          mac = Hmac.Sha256.prepare ~key:(String.sub okm 32 32);
        }
  | Gcm ->
      Gcm_key (Aes.expand (Hkdf.derive ~info:"apna:aead:gcm:v1" ~len:32 ikm))

let length_prefix s =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int (String.length s));
  Bytes.unsafe_to_string b

let etm_tag ~mac ~nonce ~aad ciphertext =
  (* Unambiguous MAC input: len(aad) | aad | nonce | ciphertext. *)
  String.sub
    (Hmac.Sha256.mac_list_prepared mac
       [ length_prefix aad; aad; nonce; ciphertext ])
    0 tag_size

(* GCM takes a 96-bit IV: the leading 12 bytes of the 16-byte nonce, which
   stay unique whenever the nonce construction keeps its uniqueness in the
   prefix (the session nonces do: conn id ‖ direction ‖ seq). *)
let gcm_iv nonce = String.sub nonce 0 Gcm.iv_size

let seal ~key ~nonce ?(aad = "") plaintext =
  if String.length nonce <> nonce_size then invalid_arg "Aead.seal: nonce size";
  match key with
  | Etm { enc; mac } ->
      let ciphertext = Aes.Ctr.crypt ~key:enc ~nonce plaintext in
      ciphertext ^ etm_tag ~mac ~nonce ~aad ciphertext
  | Gcm_key k ->
      let ciphertext, tag =
        Gcm.encrypt ~key:k ~iv:(gcm_iv nonce) ~aad:(aad ^ nonce) plaintext
      in
      ciphertext ^ tag

let open_ ~key ~nonce ?(aad = "") sealed =
  if String.length nonce <> nonce_size then Error "aead: nonce size"
  else if String.length sealed < tag_size then Error "aead: too short"
  else begin
    let clen = String.length sealed - tag_size in
    let ciphertext = String.sub sealed 0 clen in
    let received = String.sub sealed clen tag_size in
    match key with
    | Etm { enc; mac } ->
        if Apna_util.Ct.equal received (etm_tag ~mac ~nonce ~aad ciphertext) then
          Ok (Aes.Ctr.crypt ~key:enc ~nonce ciphertext)
        else Error "aead: authentication failure"
    | Gcm_key k ->
        Gcm.decrypt ~key:k ~iv:(gcm_iv nonce) ~aad:(aad ^ nonce) ~tag:received
          ciphertext
  end
