(** NAT-mode connection-sharing access point (paper §VII-B).

    The AP is a single host from its AS's point of view, but runs a small
    APNA domain of its own for the devices behind it, playing all four
    roles with the modules that play them for an AS:

    - {b host}: the AP's own identity is an ordinary {!Host} that
      bootstraps by Fig. 2, checking the signed id_info and the service
      certificates;
    - {b RS}: a {!Registry} under the AP's own domain keys and a private
      "virtual" AID authenticates devices, establishes their kHA and issues
      their control EphIDs; a re-bootstrap retires the old identity;
    - {b MS}: every EphID request, batch and release gets
      {!Management.open_from_host}'s Fig. 3 check, then its body is
      re-sealed under the AP's kHA and relayed to the real AS's MS, so
      devices receive genuine AS-signed certificates for keys the AS
      cannot link to a device. A device may release only its own EphIDs;
    - {b router}: verifies devices' per-packet MACs, then rewrites the
      source AID and replaces the MAC with its own kHA before forwarding
      to the AS (Fig. 4 with the two §VII-B differences);
    - {b AA}: tracks which device is behind each relayed EphID
      ([ephid_info]) until it expires, so complaints can be pinned to a
      device.

    Unchanged {!Host} code runs behind an AP: devices bootstrap, request
    EphIDs, connect and serve exactly as when directly attached. *)

type t

val create :
  name:string -> rng:Apna_crypto.Drbg.t -> virtual_as:int -> t
(** [virtual_as] is the private AS number of the AP's internal domain
    (e.g. 64512+); its key is registered in the trust store at bootstrap
    so internal hosts can verify their bootstrap bundle. *)

val name : t -> string

val attach : t -> As_node.t -> credential:string -> unit
(** Attaches the AP to its AS as one ordinary host. *)

val bootstrap : t -> (unit, Error.t) result
(** Bootstraps the AP's host side ({!Host.bootstrap}, so a reply that
    fails Fig. 2's checks is an [Error]) and brings up the internal
    domain services. *)

val attach_internal : t -> Host.t -> credential:string -> unit
(** Enrolls and attaches a host behind the AP. *)

val identify : t -> Ephid.t -> string option
(** [identify t ephid] names the internal host using [ephid] — the AP's
    accountability function when the AS holds it responsible. *)

val ephid_count : t -> int
(** Number of EphID bindings held. Expired ones are dropped whenever a
    reply is relayed. *)

val relayed_requests : t -> int
(** MS messages relayed upstream: requests, batches and releases. *)
