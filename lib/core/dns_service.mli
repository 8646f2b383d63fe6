(** DNS over APNA (paper §VII-A).

    Servers publish (name → EphID certificate) records; clients resolve
    names to AID:EphID destinations. Records are signed by a zone key
    (DNSSEC stand-in) and queries/replies are encrypted end-to-end under a
    key derived from the client's EphID key and the DNS service's EphID key
    — only the DNS server and the querying host see the queried name.

    Published EphIDs are expected to be {e receive-only} so shutoff
    requests cannot take a published service name offline. *)

module Record : sig
  type t = {
    name : string;
    cert : Cert.t;  (** The service's (receive-only) EphID certificate. *)
    ipv4 : Apna_net.Addr.hid option;
        (** Optional legacy address for gateway interop (§VII-D). *)
    receive_only : bool;
    zone : string;
    signature : string;  (** Zone (DNSSEC) signature. *)
  }

  val to_bytes : t -> string
  val of_bytes : string -> (t, Error.t) result
  val verify : Trust.t -> now:int -> t -> (unit, Error.t) result
  (** Certificate expiry, then the zone signature under the key the trust
      store holds for the record's zone. *)
end

type t

val create :
  rng:Apna_crypto.Drbg.t -> trust:Trust.t -> zone:string ->
  zone_key:Apna_crypto.Ed25519.keypair -> cert:Cert.t ->
  keys:Keys.ephid_keys -> unit -> t
(** [cert]/[keys] are the DNS service's own EphID credentials (issued by
    its AS); the zone public key should be registered in [trust]. *)

val zone : t -> string
val cert : t -> Cert.t

val register : t -> now:int -> name:string -> cert:Cert.t ->
  ?ipv4:Apna_net.Addr.hid -> receive_only:bool -> unit -> (unit, Error.t) result
(** Direct (operator-side) registration; validates the published cert. *)

val lookup : t -> string -> Record.t option

val handle : t -> now:int -> Msgs.t -> (Msgs.t, Error.t) result
(** Processes a [Dns_query] or [Dns_register] message. *)

val record_count : t -> int

(** Host-side query/registration helpers. *)
module Client : sig
  val make_query :
    rng:Apna_crypto.Drbg.t -> corr:int64 -> client_cert:Cert.t ->
    client_keys:Keys.ephid_keys -> dns_cert:Cert.t -> name:string ->
    (Msgs.t, Error.t) result
  (** [corr] is the requester-chosen correlation id, echoed in the reply. *)

  val read_reply :
    client_keys:Keys.ephid_keys -> client_cert:Cert.t -> dns_cert:Cert.t ->
    Msgs.t -> (Record.t option, Error.t) result
  (** [Ok None] is NXDOMAIN. Zone-signature verification is the caller's
      job ({!Record.verify}) since it needs the trust store. *)

  val make_register :
    rng:Apna_crypto.Drbg.t -> corr:int64 -> client_cert:Cert.t ->
    client_keys:Keys.ephid_keys -> dns_cert:Cert.t -> name:string ->
    publish:Cert.t -> ?ipv4:Apna_net.Addr.hid -> receive_only:bool -> unit ->
    (Msgs.t, Error.t) result
end
