(** Ed25519 signatures (RFC 8032) — the scheme the paper uses for AS-signed
    EphID certificates (SUPERCOP ref10 in the prototype).

    Keys and signatures use the standard wire format: 32-byte public keys,
    32-byte seeds, 64-byte signatures. *)

type keypair

val keypair_of_seed : string -> keypair
(** [keypair_of_seed seed] derives a keypair from a 32-byte seed. *)

val generate : Drbg.t -> keypair
val public_key : keypair -> string
val seed : keypair -> string

val sign : keypair -> string -> string
(** [sign kp msg] is the 64-byte detached signature. *)

val verify : pub:string -> msg:string -> signature:string -> bool
(** [verify ~pub ~msg ~signature] checks a detached signature; returns
    [false] (never raises) on malformed keys, points or scalars. *)

type prepared
(** A public key made ready for repeated verification: decoded strictly,
    checked for small order, and a fixed-base comb built for [-A]. It
    holds ~2,460 words, so it pays off only for keys that verify many
    signatures (trust anchors); one-shot keys use {!verify}. *)

val prepare : string -> prepared option
(** [None] when the key is not 32 bytes, does not decode strictly, or
    lies in the small-order subgroup — the keys {!verify} refuses. *)

val verify_prepared : prepared -> msg:string -> signature:string -> bool
(** The same verdict as {!verify} under the prepared key, on every
    input. *)
