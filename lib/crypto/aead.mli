(** CCA-secure authenticated encryption by the Encrypt-then-MAC generic
    composition (Bellare–Namprempre), the construction the paper prescribes
    for data-plane payload encryption (§IV-A, §IV-D2).

    AES-256-CTR for secrecy, HMAC-SHA256 truncated to 16 bytes for
    integrity, with independent subkeys derived from the session key via
    HKDF. Nonces must be unique per key; the protocol layer uses a packet
    counter. *)

type key

val key_size : int
(** Input keying material size: 32 bytes. *)

val nonce_size : int
(** 16 bytes. *)

val tag_size : int
(** 16 bytes. *)

val of_secret : string -> key
(** [of_secret ikm] derives both subkeys from a 32-byte secret (e.g. an
    X25519 shared secret). *)

val seal : key:key -> nonce:string -> ?aad:string -> string -> string
(** [seal ~key ~nonce ~aad plaintext] is [ciphertext ^ tag]; the tag also
    covers [nonce] and [aad]. *)

val open_ : key:key -> nonce:string -> ?aad:string -> string -> (string, string) result
(** [open_ ~key ~nonce ~aad sealed] authenticates and decrypts. Any
    modification of ciphertext, nonce or aad yields [Error _]. *)
