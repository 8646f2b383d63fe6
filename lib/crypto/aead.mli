(** CCA-secure authenticated encryption for every payload and control
    message (paper §IV-A, §IV-D2): RFC 8439 ChaCha20-Poly1305, itself an
    Encrypt-then-MAC composition (ChaCha20 for secrecy, a one-time
    Poly1305 key from keystream block 0 for integrity).

    {b Nonce layout.} A nonce is 16 bytes. Bytes 4..15 are the RFC 8439
    96-bit nonce; bytes 0..3 are authenticated as a prefix of the AAD, so
    a change to any of the 16 bytes fails {!open_}. A (key, bytes 4..15)
    pair must never repeat: sessions use a per-connection key and put
    direction ‖ sequence number there; control messages draw 16 random
    bytes.

    {b Keys.} [of_secret ikm] uses [ikm] as the ChaCha20 key as it is.
    [ikm] must therefore be uniformly random and used for nothing else:
    an HKDF output under a label of its own, as every caller derives it.
    A key holds those 32 bytes and nothing more.

    {b Timing.} Only additions, xors, rotations and multiplications on
    machine words: no table lookup and no branch or index that depends on
    the key, nonce or data. Tags are compared word by word without an
    early exit. {!seal} allocates only its result and {!open_} only the
    plaintext. *)

type key

val key_size : int
(** Input keying material size: 32 bytes. *)

val nonce_size : int
(** 16 bytes. *)

val tag_size : int
(** 16 bytes. *)

val of_secret : string -> key
(** [of_secret ikm] is the key for a 32-byte secret that is already an
    HKDF output (see above).
    @raise Invalid_argument if [ikm] is not 32 bytes. *)

val seal : key:key -> nonce:string -> ?aad:string -> string -> string
(** [seal ~key ~nonce ~aad plaintext] is [ciphertext ^ tag]; the tag also
    covers [nonce] and [aad]. *)

val open_ : key:key -> nonce:string -> ?aad:string -> string -> (string, string) result
(** [open_ ~key ~nonce ~aad sealed] authenticates and decrypts. Any
    modification of ciphertext, nonce or aad yields [Error _]. *)
