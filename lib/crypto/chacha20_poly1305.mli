(** RFC 8439 ChaCha20, Poly1305 and the ChaCha20-Poly1305 AEAD, in pure
    OCaml with no secret-dependent branch, index or table. {!Aead} is the
    interface the protocol uses for payloads and {!hash_prf} is the packet
    MAC's core; the other entry points exist for the RFC known-answer tests
    and E5's primitive rows.

    A [nonce] is 12 + 4k bytes. Its last 12 bytes are the RFC 8439 nonce;
    the 4k bytes before them are authenticated as a prefix of [aad]. With
    a 12-byte nonce every function here is RFC 8439 exactly.
    @raise Invalid_argument on a key that is not 32 bytes or a nonce of
    another length. *)

val xor : key:string -> nonce:string -> counter:int -> string -> string
(** [xor ~key ~nonce ~counter m] is [m] xored with the ChaCha20 keystream
    from block [counter] on (§2.4). On 64 zero bytes it is the §2.3 block
    function. *)

val poly1305 : key:string -> string -> string
(** [poly1305 ~key m] is the 16-byte Poly1305 tag of [m] under the
    32-byte one-time key r ‖ s (§2.5). *)

val hash_prf_key_size : int
(** 48: r (16 bytes) ‖ PRF key (32 bytes). *)

val hash_prf : key:string -> Bytes.t -> off:int -> len:int -> out:Bytes.t -> unit
(** [hash_prf ~key b ~off ~len ~out] is a nonce-free hash-then-PRF MAC.
    It takes h, the Poly1305 polynomial of [b.[off..off+len)] under r =
    [key.[0..16)] (clamped, §2.5 padding, no s added) as 16 little-endian
    bytes, and writes to [out.[0..16)] the first 16 bytes of the ChaCha20
    block under [key.[16..48)] whose counter is h[0..4) and nonce
    h[4..16). Allocates nothing.
    @raise Invalid_argument on a [key] that is not {!hash_prf_key_size}
    bytes, a range outside [b] or an [out] shorter than 16 bytes. *)

val seal : key:string -> nonce:string -> aad:string -> string -> string
(** [seal ~key ~nonce ~aad p] is ciphertext ‖ 16-byte tag (§2.8).
    Allocates only its result. *)

val open_ : key:string -> nonce:string -> aad:string -> string -> (string, string) result
(** [open_ ~key ~nonce ~aad sealed] checks the tag, then decrypts; it
    allocates only the plaintext (and its [Ok]). *)
