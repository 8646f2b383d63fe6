(** One APNA-deploying AS, assembled from its four logical entities
    (paper §III-C): Registry Service, Management Service, Border Router and
    Accountability Agent — plus an optional DNS service — all sharing the
    AS keys, the [host_info] database and the revocation list.

    Reserved HIDs: 1 = MS, 2 = DNS, 3 = AA, 4 = border router (ICMP
    source), 5 = privacy broker; customer HIDs start above. *)

type t

val create :
  rng:Apna_crypto.Drbg.t ->
  aid:Apna_net.Addr.aid ->
  trust:Trust.t ->
  topology:Apna_net.Topology.t ->
  now:(unit -> int) ->
  now_f:(unit -> float) ->
  schedule:(delay:float -> (unit -> unit) -> unit) ->
  ?dns_zone:string ->
  ?lifetime_policy:Lifetime.policy ->
  ?retention:bool ->
  ?icmp_encryption:bool ->
  ?expected_hosts:int ->
  ?aa_limits:Accountability.limits ->
  unit ->
  t
(** Creates the AS, generates its keys, registers its signing key in
    [trust] (the RPKI stand-in), brings up the services and issues their
    EphIDs/certificates. [dns_zone] additionally runs a DNS service whose
    zone key is registered in [trust]. [expected_hosts] pre-sizes the
    sharded host_info database for a known population (the scale
    harness). [aa_limits] overrides the accountability agent's
    admission-control policy ({!Accountability.default_limits}).

    [schedule] is the simulation's timer: shutoff requests delivered to the
    AA go through the bounded admission queue and a budgeted drain loop
    that it arms ({!Accountability.enqueue}/{!Accountability.drain}). *)

val service_cert :
  rng:Apna_crypto.Drbg.t -> keys:Keys.as_keys -> hid:Apna_net.Addr.hid ->
  expiry:int -> aa_ephid:Ephid.t -> Cert.t * Keys.ephid_keys
(** A service identity: fresh ephemeral keys and an EphID on the reserved
    [hid], certified under [keys] and naming [aa_ephid] as the AA. The AS
    certifies its MS and DNS with it, and a NAT-mode access point its
    internal MS ({!Access_point}). *)

val aid : t -> Apna_net.Addr.aid
val keys : t -> Keys.as_keys
val host_info : t -> Host_info.t
val revoked : t -> Revocation.t
val registry : t -> Registry.t
val management : t -> Management.t
val border_router : t -> Border_router.t
val accountability : t -> Accountability.t
val dns : t -> Dns_service.t option

val cert_cache : t -> Cert_cache.t option
(** The observed-certificate cache, when [icmp_encryption] was enabled
    (§VIII-B future work); [None] otherwise. *)

val audit : t -> Audit.t option
(** The data-retention log, when [retention] was enabled at creation
    (§VIII-H); [None] otherwise. *)

val aa_ephid : t -> Ephid.t

val broker_ephid : t -> Ephid.t
(** Service EphID of the privacy broker (reserved HID 5) — the address
    requesters send {!Apna_broker.Broker} wire requests to. *)

val set_broker_handler : t -> (now:int -> string -> string option) -> unit
(** Installs the privacy broker's wire handler: packets delivered to the
    broker HID have their payload passed to it; a [Some reply] is routed
    back to the requester as a Control packet from {!broker_ephid}.
    Installed by [Apna_broker.Broker.attach] — the broker library depends
    on this one, so the hook keeps the dependency acyclic. *)

val set_emit : t -> (next:Apna_net.Addr.aid -> Apna_net.Packet.t -> unit) -> unit
(** Wires the inter-domain output; installed by {!Network}. *)

val add_host :
  t -> Host.t -> ?deliver:(Apna_net.Packet.t -> unit) -> credential:string ->
  unit -> unit
(** Enrolls the subscriber at the RS and attaches the host: after this the
    host can [bootstrap]. [deliver] overrides the delivery path to the host
    (default [Host.deliver]) — the network layer uses it to inject
    access-link faults. *)

val add_device : t ->
  name:string -> credential:string -> deliver:(Apna_net.Packet.t -> unit) ->
  Host.attachment
(** Like {!add_host} for non-host devices — NAT-mode access points (§VII-B)
    and IPv4 gateways (§VII-D) — that implement their own delivery. Returns
    the attachment the device uses to bootstrap and submit packets. *)

val submit : t -> Apna_net.Packet.t -> unit
(** A packet handed over by a local host: runs the egress pipeline and
    routes (locally or toward the next AS). Silently drops on failure —
    exactly what Fig. 4 prescribes. *)

val receive : t -> Apna_net.Packet.t -> unit
(** A packet arriving from a neighbor AS (or looped locally): ingress
    pipeline, then delivery to a host/service or forwarding. Sends ICMP
    destination-unreachable feedback to the source when delivery fails
    (§VIII-B). *)

val hosts : t -> Host.t list

val feedback_to_source :
  t -> Apna_net.Packet.t -> Icmp.t -> unit
(** Sends ICMP feedback about [pkt] back to its source EphID (§VIII-B) —
    used by the network layer for packet-too-big notifications. ICMP
    errors about ICMP errors are suppressed. *)
