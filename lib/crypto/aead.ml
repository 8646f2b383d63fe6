(* A key is the 32-byte secret itself: ChaCha20 has no key schedule and
   Poly1305 takes its one-time key from block 0 of each message. *)
type key = string

let key_size = 32
let nonce_size = 16
let tag_size = 16

let of_secret ikm =
  if String.length ikm <> key_size then invalid_arg "Aead.of_secret: key size";
  ikm

let seal ~key ~nonce ?(aad = "") plaintext =
  if String.length nonce <> nonce_size then invalid_arg "Aead.seal: nonce size";
  Chacha20_poly1305.seal ~key ~nonce ~aad plaintext

let open_ ~key ~nonce ?(aad = "") sealed =
  if String.length nonce <> nonce_size then Error "aead: nonce size"
  else Chacha20_poly1305.open_ ~key ~nonce ~aad sealed
