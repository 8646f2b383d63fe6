(** Short-lived EphID certificates (paper §IV-C, Fig. 3).

    C_EphID = {EphID, ExpTime, K+_EphID, AID_AS, EphID_aa} signed with the
    AS's private key. A peer learns from it: the public keys bound to the
    EphID, its expiry, the AS it belongs to, and the accountability agent's
    EphID to contact for shutoff requests.

    Where the paper binds one Curve25519 key, we bind the X25519 (key
    agreement) and Ed25519 (shutoff authorization) public keys — see
    {!Keys.ephid_keys}. *)

type t = {
  ephid : Ephid.t;
  expiry : int;  (** Unix seconds; same lifetime as the EphID itself. *)
  kx_pub : string;  (** 32-byte X25519 public key. *)
  sig_pub : string;  (** 32-byte Ed25519 public key. *)
  aid : Apna_net.Addr.aid;  (** Issuing AS. *)
  aa_ephid : Ephid.t;  (** Where to send shutoff requests (§IV-E). *)
  signature : string;  (** 64-byte Ed25519 signature by the AS. *)
}

val size : int
(** Fixed wire size: 168 bytes. *)

val issue :
  Keys.as_keys -> ephid:Ephid.t -> expiry:int -> kx_pub:string ->
  sig_pub:string -> aa_ephid:Ephid.t -> t
(** Builds and signs a certificate with the AS's signing key. *)

val to_bytes : t -> string
val of_bytes : string -> (t, Error.t) result
val signed_bytes : t -> string
(** The byte string the signature covers; {!Trust.verify_cert} checks
    it. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
