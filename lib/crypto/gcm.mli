(** AES-GCM authenticated encryption (NIST SP 800-38D) — the concrete
    CCA-secure scheme the paper cites for data encryption (§IV-A cites
    McGrew & Viega's GCM alongside OCB).

    96-bit IVs only (the standard fast path); the tag is the full 16
    bytes. A standalone module with its own known-answer tests, measured
    beside {!Aead} in the crypto microbenchmarks; the protocols seal every
    payload with {!Aead}'s Encrypt-then-MAC composition. *)

val iv_size : int
(** 12 bytes. *)

val tag_size : int
(** 16 bytes. *)

val encrypt :
  key:Aes.key -> iv:string -> ?aad:string -> string -> string * string
(** [encrypt ~key ~iv ~aad plaintext] is [(ciphertext, tag)]. The IV must
    be unique per key. *)

val decrypt :
  key:Aes.key -> iv:string -> ?aad:string -> tag:string -> string ->
  (string, string) result
(** Authenticated decryption; any modification of ciphertext, IV, AAD or
    tag fails. *)

val ghash : h:string -> string -> string
(** The GHASH universal hash over a 16-byte-aligned input — exposed for
    the known-answer tests. *)
