(** AS public-key store — the stand-in for RPKI (paper §IV-A assumption:
    "participating parties can retrieve and verify the public keys of
    ASes"). Maps AIDs to Ed25519 verification keys, plus named zone keys
    for DNSSEC-style record signing (§VII-A).

    Every signature under a key the store holds is checked here, under
    the key's {!Apna_crypto.Ed25519.prepared} form, built on the key's
    first use. *)

type t

val create : unit -> t

val register_as : t -> Apna_net.Addr.aid -> pub:string -> unit
(** Adds or replaces the AID's key; certificates verified under a
    replaced key are checked afresh. *)

val as_pub : t -> Apna_net.Addr.aid -> (string, Error.t) result
val register_zone : t -> string -> pub:string -> unit

val verify_as :
  t -> Apna_net.Addr.aid -> what:string -> msg:string -> signature:string ->
  (unit, Error.t) result
(** Checks a signature by the AID's key; [Bad_signature what] when it
    fails. *)

val verify_zone :
  t -> string -> what:string -> msg:string -> signature:string ->
  (unit, Error.t) result
(** Checks a signature by the named zone's key; [Bad_signature what] when
    it fails. *)

val verify_cert : t -> now:int -> Cert.t -> (unit, Error.t) result
(** Resolves the issuing AS's key and checks expiry, then the signature.
    A certificate that passed recently under the same key, with the same
    bytes, is not checked again; expiry always is. *)

val memo_capacity : int
(** Certificates {!verify_cert} remembers: 16. *)

val memo_size : t -> int

val signature_checks : t -> int
(** Full signature checks made since {!create}; memo hits do not count. *)
