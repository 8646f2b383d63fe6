(** End-to-end encrypted sessions (paper §IV-D1/2, §VII-A, §VII-C).

    Two hosts derive a session key from the X25519 keys bound to their
    EphIDs and encrypt every data packet with the CCA-secure AEAD. Each
    session has its own key, giving perfect forward secrecy: compromising
    long-term keys (AS signing keys, host keys) reveals nothing about
    recorded traffic, and compromising one EphID's key opens exactly the
    sessions keyed by that EphID.

    Wire framing (packet payload for proto [Data]):
    {v
      Init      : 0x00 ‖ conn_id(8) ‖ cert(168) ‖ seq(8) ‖ sealed   — may carry 0-RTT data
      Accept    : 0x01 ‖ conn_id(8) ‖ cert(168) ‖ seq(8) ‖ sealed   — server's serving cert (§VII-A)
      Data      : 0x02 ‖ conn_id(8) ‖ seq(8) ‖ sealed
      Fin       : 0x03 ‖ conn_id(8) ‖ seq(8) ‖ sealed   — authenticated close
      Rekey     : 0x04 ‖ conn_id(8) ‖ cert(168) ‖ seq(8) ‖ sealed   — mid-session EphID migration
      Rekey_ack : 0x05 ‖ conn_id(8) ‖ seq(8) ‖ sealed   — sealed under the post-migration key
    v}

    The connection id demultiplexes sessions independently of the source
    EphID, which is what makes the per-packet EphID granularity workable —
    and what lets an established session survive the expiry of the EphID
    that started it: a [Rekey] frame carries the sender's fresh certificate,
    authenticated under the current session key, and both ends re-derive. *)

type t

val conn_id : t -> int64
val remote_cert : t -> Cert.t
val local_cert : t -> Cert.t
val established : t -> bool
(** False only for a client still waiting for an [Accept] from a
    receive-only server EphID. *)

val create :
  conn_id:int64 -> initiator:bool -> local_cert:Cert.t ->
  local_keys:Keys.ephid_keys -> remote_cert:Cert.t -> ?window:int ->
  ?await_accept:bool -> unit -> (t, Error.t) result
(** Derives the session key from ECDH(local EphID key, remote EphID key),
    the two EphIDs and [conn_id], so every connection has its own key.
    [initiator] fixes the nonce direction bit so the two directions of one
    session never reuse a nonce. [await_accept] marks a client session
    towards a receive-only EphID (§VII-A). *)

val rekey : t -> remote_cert:Cert.t -> (unit, Error.t) result
(** Switch to a new certificate from the peer — the server's serving
    certificate (§VII-A) or a mid-session [Rekey] — and re-derive the key;
    marks the session established and resets sequence state. The key being
    replaced is retained as a one-deep grace window so frames sealed under
    it and still in flight continue to open. Refused ([Error (Rejected _)])
    when [remote_cert] carries the peer's current EphID: the key would not
    change while the sequence restarts, repeating nonces. *)

val rekey_local : t -> local_cert:Cert.t -> local_keys:Keys.ephid_keys ->
  (unit, Error.t) result
(** Local side of mid-session EphID migration: rebind the session to a
    fresh local certificate/key pair and re-derive the session key against
    the unchanged remote certificate. Resets sequence state and retains the
    replaced key as the grace window, exactly like {!rekey}, and is
    refused in the same way when [local_cert] carries the current local
    EphID. *)

val seal : t -> string -> int64 * string
(** [seal t data] is [(seq, sealed)] for the next outgoing frame.
    @raise Invalid_argument once 2{^56} frames have been sealed under one
    key (the sequence space the nonce has room for). *)

val open_sealed : t -> seq:int64 -> sealed:string -> (string, Error.t) result
(** AEAD-opens an incoming frame and enforces the anti-replay window. A
    [seq] outside \[0, 2{^56}) is refused before any AEAD work: its top
    bits would collide with the nonce's direction bit. *)

(** Frame codec. *)
module Frame : sig
  type f =
    | Init of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Accept of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Data of { conn_id : int64; seq : int64; sealed : string }
    | Fin of { conn_id : int64; seq : int64; sealed : string }
    | Rekey of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Rekey_ack of { conn_id : int64; seq : int64; sealed : string }

  val to_bytes : f -> string
  val of_bytes : string -> (f, Error.t) result

  val has_cert : string -> bool
  (** [has_cert s] reads only the kind byte: whether [s] would decode to
      an [Init], [Accept] or [Rekey], the frames that carry a certificate. *)
end
