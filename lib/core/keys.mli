(** Key material for ASes and hosts.

    Following the paper's Table I and §IV-B/§V-A1: an AS holds a master
    secret kA from which the EphID encryption key (kA') and EphID MAC key
    (kA'') are derived, an infrastructure key kAS shared among its routers
    and services, an Ed25519 signing key (K-AS, registered in RPKI — our
    {!Trust} store), and an X25519 key used in the bootstrap DH exchange.

    The host–AS shared secret kHA is, as in the paper, a pair of derived
    keys: one encrypts EphID request/reply messages, the other authenticates
    every packet the host sends. *)

open Apna_crypto

type as_keys = {
  aid : Apna_net.Addr.aid;
  master : string;  (** kA — 32 bytes, never leaves the AS. *)
  ephid_enc : Aes.key;  (** kA' — AES-128 key for EphID encryption. *)
  ephid_mac : Aes.key;  (** kA'' — AES-128 key for the EphID CBC-MAC. *)
  infra_mac : string;  (** kAS — authenticates AA-to-router control messages. *)
  signing : Ed25519.keypair;  (** K+AS / K-AS — certificate signatures. *)
  dh_secret : string;  (** X25519 secret for host bootstrap. *)
  dh_public : string;  (** The matching public value (known via RPKI). *)
}

val make_as : Drbg.t -> aid:Apna_net.Addr.aid -> as_keys

type host_as =
  { ctrl_raw : string;  (** encrypts EphID request/reply messages (§IV-C) *)
    auth : string  (** keys the per-packet MAC (§IV-D2) *) }
(** kHA — the two keys shared between a host and its AS. *)

val derive_host_as : shared_secret:string -> host_as
(** [derive_host_as ~shared_secret] derives both kHA keys from the result
    of the host–RS Diffie-Hellman exchange (Fig. 2). *)

val ctrl : host_as -> Aead.key
(** The control-channel AEAD key: [ctrl_raw] itself, with no schedule,
    so a paper-scale registry (1.27 M subscribers) holds nothing per host
    beyond the two 32-byte secrets. *)

type ephid_keys = {
  kx_secret : string;  (** X25519 secret — session-key agreement. *)
  kx_public : string;
  sig_keypair : Ed25519.keypair;  (** Authorizes shutoff requests. *)
}
(** The host-generated keypair material bound to one EphID.

    The paper binds a single Curve25519 keypair per EphID and uses it for
    both DH and signatures; we bind an (X25519, Ed25519) pair instead —
    same curve, separated roles — and certify both public keys. *)

val make_ephid_keys : Drbg.t -> ephid_keys
