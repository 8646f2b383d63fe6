(** The EphID Management Service (MS) — issuance (paper §IV-C, Fig. 3,
    §V-A).

    The MS receives an encrypted request carrying the host-generated
    ephemeral public keys, validates the control EphID (tag, expiry, HID
    validity), and answers with an encrypted short-lived certificate for a
    freshly issued EphID. Issuance is stateless with respect to EphIDs:
    decrypting the token is the only lookup the AS ever needs. *)

type t

val create :
  keys:Keys.as_keys ->
  host_info:Host_info.t ->
  ?revoked:Revocation.t ->
  rng:Apna_crypto.Drbg.t ->
  ?policy:Lifetime.policy ->
  aa_ephid:Ephid.t ->
  ?audit:Audit.t ->
  unit ->
  t
(** [revoked] is the border routers' revocation list, which preemptive
    releases feed into (§VIII-G2); defaults to a private list. [audit]
    enables data retention of issuance bindings (§VIII-H). *)

val handle_request :
  t -> now:int -> src_ephid:string -> Msgs.t -> (Msgs.t, Error.t) result
(** [handle_request t ~now ~src_ephid msg] performs the Fig. 3 checks —
    control EphID authenticity and expiry, HID validity, request
    decryption — and returns the encrypted [Ephid_reply]. [src_ephid] is
    the raw source identifier from the packet header. *)

val open_from_host :
  keys:Keys.as_keys -> host_info:Host_info.t -> now:int -> src_ephid:string ->
  nonce:string -> sealed:string ->
  (Apna_net.Addr.hid * Host_info.entry * string, Error.t) result
(** The Fig. 3 check every host-to-MS message gets: [src_ephid] must be
    a control EphID under [keys], unexpired at [now], whose HID is live in
    [host_info]; then [sealed] is opened under that host's kHA-ctrl key.
    Returns the HID, its entry and the plaintext body. A NAT-mode access
    point runs the same check for its own domain (§VII-B). *)

val issue_direct :
  t -> now:int -> hid:Apna_net.Addr.hid -> kx_pub:string -> sig_pub:string ->
  lifetime:Lifetime.t -> (Cert.t, Error.t) result
(** Issuance without the message wrapper or its checks: the step
    {!handle_request} runs once a request has passed them. *)

val issue_batch :
  t -> now:int -> hid:Apna_net.Addr.hid ->
  items:Msgs.Batch_request_body.item list -> lifetime:Lifetime.t ->
  (Cert.t list, Error.t) result
(** N grants for one validation: certificates in item order. Both paths
    draw IVs from one shared DRBG pool, so [issue_batch n] grants exactly
    the EphIDs/certs n sequential {!issue_direct} calls would have under
    the same DRBG state (property-tested). Whole batch fails atomically.
    [Error (Malformed _)] when the count is 0 or exceeds
    {!Msgs.Batch_request_body.max_batch}. *)

val issued_count : t -> int
(** Total EphIDs issued — the statistic of the §V-A3 evaluation. *)

val batch_request_count : t -> int
(** Batched issuance requests served (also exported as the
    [apna_ms_issuance_batch_requests_total] counter). *)

val handle_release :
  t -> now:int -> src_ephid:string -> Msgs.t -> (unit, Error.t) result
(** Preemptive revocation by the owner (§VIII-G2): validates that the
    release comes from the EphID's own HID, then revokes it. *)

val released_count : t -> int

(** Host-side helpers for the request/reply exchange. *)
module Client : sig
  val make_request :
    rng:Apna_crypto.Drbg.t -> corr:int64 -> kha:Keys.host_as ->
    keys:Keys.ephid_keys -> lifetime:Lifetime.t -> Msgs.t
  (** [corr] is the requester-chosen correlation id, echoed in the reply. *)

  val read_reply : kha:Keys.host_as -> Msgs.t -> (Cert.t, Error.t) result

  val make_batch_request :
    rng:Apna_crypto.Drbg.t -> corr:int64 -> kha:Keys.host_as ->
    keys:Keys.ephid_keys list -> lifetime:Lifetime.t -> Msgs.t
  (** One request for one EphID per element of [keys] — the prefetcher
      refills its whole stock in a single round trip. *)

  val read_batch_reply :
    kha:Keys.host_as -> Msgs.t -> (Cert.t list, Error.t) result
  (** Certificates in the same order as the request's [keys]. *)

  val make_release :
    rng:Apna_crypto.Drbg.t -> kha:Keys.host_as -> ephid:Ephid.t -> Msgs.t
end
