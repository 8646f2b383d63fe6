(** An APNA host: bootstraps to its AS, manages its EphID pool according to
    a granularity policy, and runs encrypted sessions with peers
    (paper §III-C and §IV end to end).

    Hosts are event-driven: operations that involve a network round trip
    (EphID issuance, connection establishment, DNS, ping) take a
    continuation that fires when the reply arrives. Every round trip
    carries a correlation id echoed in the reply and is retransmitted with
    exponential backoff (up to 5 attempts, starting at 250 ms) on the
    attachment's timer; on exhaustion the continuation receives
    [Error.Timeout] (or, for the success-typed convenience wrappers, a
    warning is logged and the continuation never fires). With the
    discrete-event engine, running the simulation to quiescence resolves
    all of them deterministically. *)

type t

type attachment = {
  aid : Apna_net.Addr.aid;
  now : unit -> int;  (** Unix seconds (simulated). *)
  now_f : unit -> float;  (** Simulated time, sub-second resolution. *)
  submit : Apna_net.Packet.t -> unit;  (** Hand a packet to the AS. *)
  schedule : delay:float -> (unit -> unit) -> unit;
      (** Timer facility backing retransmission and timeouts. *)
  bootstrap_rpc :
    host_dh_pub:string -> (Registry.reply, Error.t) result;
      (** The out-of-band authenticated channel to the RS (Fig. 2); the
          subscriber credential is bound in by the AS at attach time. *)
  trust : Trust.t;
}

type endpoint = {
  cert : Cert.t;
  keys : Keys.ephid_keys;
  receive_only : bool;  (** Never used as a source EphID (§VII-A). *)
}

val create :
  name:string -> rng:Apna_crypto.Drbg.t ->
  ?granularity:Granularity.t -> unit -> t
(** Granularity defaults to {!Granularity.Per_flow}. *)

val name : t -> string

(** {2 Wiring (called by the AS / access point)} *)

val attach : t -> attachment -> unit
val attachment : t -> attachment option
val deliver : t -> Apna_net.Packet.t -> unit
(** Entry point for packets addressed to this host. *)

(** {2 Control plane} *)

val bootstrap : t -> (unit, Error.t) result
(** Runs the Fig. 2 procedure: DH with the RS, verification of the signed
    id_info and of the MS/DNS service certificates against the trust
    store. *)

val is_bootstrapped : t -> bool
val ctrl_ephid : t -> Ephid.t option
val ms_cert : t -> Cert.t option
val kha : t -> Keys.host_as option

val request_ephid_r :
  t -> ?lifetime:Lifetime.t -> ?receive_only:bool ->
  ((endpoint, Error.t) result -> unit) -> unit
(** Requests a fresh EphID from the MS (Fig. 3). The reply is matched by
    correlation id (never by arrival order); the request is retransmitted
    with backoff on loss, and the continuation fires exactly once — with
    the endpoint, or with [Error.Timeout] when every attempt went
    unanswered. *)

val request_ephid :
  t -> ?lifetime:Lifetime.t -> ?receive_only:bool ->
  (endpoint -> unit) -> unit
(** {!request_ephid_r} with errors logged instead of delivered: on failure
    the continuation never fires. *)

val endpoints : t -> endpoint list
(** Every live endpoint (unspecified order). Endpoints live in a
    raw-EphID-keyed index, so per-packet delivery lookups and removals are
    O(1) — a host that churns thousands of per-packet EphIDs must not pay
    a list rebuild per retirement. *)

val last_endpoint_op_cost : t -> int
(** Entries examined by the most recent endpoint add/remove/invalidate —
    count-based probe for the quadratic-cost regression tests; stays
    constant as the endpoint population grows. *)

val release_endpoint : t -> endpoint -> (unit, Error.t) result
(** Preemptively retires an EphID the host no longer needs (§VIII-G2):
    tells the MS to revoke it and drops it from the local pools. The EphID
    stays pinned: a session still bound to it never auto-recovers. *)

(** {2 Data plane} *)

val connect :
  t -> remote:Cert.t -> ?data0:string -> ?app:string ->
  ?expect_accept:bool -> (Session.t -> unit) -> unit
(** Establishes a session with the owner of [remote] (§IV-D1): picks or
    requests a source EphID per the granularity policy ([app] labels
    {!Granularity.Per_application} traffic), derives the session key, and
    sends the [Init] frame — carrying [data0] as 0-RTT data when given
    (§VII-C). The continuation receives the session as soon as it exists
    locally; if [remote] is receive-only, the session is usable but
    unestablished until the server's [Accept] arrives. With
    [expect_accept], the [Init] frame is retransmitted verbatim with
    backoff until the [Accept] lands (the receiver deduplicates by
    connection id); on exhaustion the session is forgotten. *)

val send : t -> Session.t -> string -> (unit, Error.t) result
(** Sends a data frame on an established session; before the server's
    [Accept], the data is queued and goes out (0.5-RTT) when it arrives.
    [Error (Rejected _)] when the host no longer has the session (closed,
    or its [Accept] never came). Under {!Granularity.Per_packet} every
    frame goes out under a fresh source EphID from the prefetched pool
    (falling back to the session's bound endpoint — per-flow degradation —
    during an issuance brownout). A spent source stays in {!endpoints}
    until its certificate expires, so encrypted ICMP about its packet can
    still be opened, and is dropped at the next send after that. Sending
    also runs the proactive renewal check: once the session's source EphID
    is inside the renewal margin, a migration starts in the background. *)

(** {2 Session survivability}

    Established sessions outlive the EphIDs that started them. Proactively,
    the host checks the bound source EphID's expiry on every send/receive
    and, inside the renewal margin, acquires a fresh EphID
    and moves the session onto it with an authenticated in-session [Rekey]
    frame (retransmitted until the peer's [Rekey_ack]; duplicates are
    accepted idempotently). Reactively, ICMP [Ephid_expired]/[Ephid_revoked]
    feedback quoting a live session's frame invalidates the dead endpoint
    everywhere, migrates, and retransmits the quoted frame once. EphIDs
    named in a shutoff {!revocation_notices} never auto-recover. Issuance
    itself sits behind a {!Breaker}: when it opens, sends degrade per the
    brownout policy instead of blackholing. *)

val set_ephid_lifetime : t -> Lifetime.t -> unit
(** Lifetime class requested for session, pool and prefetch EphIDs
    (default {!Lifetime.Medium}); explicit [?lifetime] arguments win. *)

val set_renewal_margin : t -> int -> unit
(** Seconds before expiry at which an endpoint counts as due for renewal
    (default 30): pooled endpoints are replaced, prefetched stock is
    discarded at dequeue, and live sessions migrate. *)

val issuance_breaker : t -> Breaker.t
(** The circuit breaker guarding EphID issuance round trips. *)

val migrations : t -> int
(** Completed rebindings of a live session onto a fresh source EphID. *)

val recoveries : t -> int
(** ICMP-driven recoveries (reactive migrations / bounded retransmits). *)

val brownout_sends : t -> int
(** Times an acquisition or send fell back to a degraded EphID because
    issuance was unavailable. *)

val stale_prefetch_discards : t -> int
(** Prefetched EphIDs discarded at dequeue for staleness. *)

val on_data : t -> (session:Session.t -> data:string -> unit) -> unit
(** Installs the application data handler, replacing the previous one. It
    is the only way payloads leave the host: each decrypted payload is
    passed to it once and the host keeps no copy. *)

val sessions : t -> Session.t list

val close : t -> Session.t -> (unit, Error.t) result
(** Authenticated session close: sends a [Fin] frame, drops local state,
    and preemptively releases the backing EphID when it was per-flow and
    no other connection is bound to it (§VIII-G2's pool management). Such
    a release leaves nothing behind: unlike {!release_endpoint}, it pins
    nothing. *)

val set_zero_rtt_policy : t -> bool -> unit
(** Server-side policy for 0-RTT data arriving under a receive-only
    EphID's key (§VII-C): accepted by default; refusing costs the client
    0.5 RTT but protects first-flight data against later compromise of the
    receive-only key. *)

(** {2 Server role (§VII-A)} *)

val publish :
  t -> name:string -> ?dns:Cert.t -> ?ipv4:Apna_net.Addr.hid ->
  (unit -> unit) -> unit
(** Requests a receive-only EphID, then registers it in DNS under [name]
    ([dns] defaults to the host's own AS's DNS service). On [Init] frames
    arriving at a receive-only EphID the host automatically answers with an
    [Accept] carrying a fresh serving certificate. *)

val dns_lookup :
  t -> name:string -> ?dns:Cert.t -> (Dns_service.Record.t option -> unit) -> unit
(** Encrypted DNS query (§VII-A); verifies the zone signature against the
    trust store and discards forged records (calls back with [None]). *)

(** {2 Feedback and defence} *)

val ping :
  t -> dst_aid:Apna_net.Addr.aid -> dst_ephid:Ephid.t -> (float -> unit) -> unit
(** ICMP echo (§VIII-B); continuation receives the RTT in seconds. Echo
    idents are 16 bits on the wire: they wrap after 65,536 pings. *)

val unreachables : t -> Icmp.unreachable_reason list
(** The last 256 ICMP destination-unreachable notifications received,
    oldest first; the total (and per-reason breakdown) lives in
    {!unreachable_total} and [apna_host_icmp_unreachable_total{reason}]. *)

val unreachable_total : t -> int
(** Unreachable notifications ever received, including those the bounded
    {!unreachables} ring has dropped. *)

val path_mtu : t -> int option
(** The smallest path MTU any ICMP packet-too-big notice has reported: the
    largest APNA packet the constraining link carries. [None] until one
    arrives. *)

val revocation_notices : t -> (Ephid.t * string option) list
(** Shutoff notices from the AS, oldest first: the revoked EphID and —
    under {!Granularity.Per_application} — the application behind it, so
    host and AS can collaboratively pin down a misbehaving app (§VIII-A). *)

val last_packet : t -> Session.t -> Apna_net.Packet.t option
(** The most recent raw packet received on a session — shutoff evidence. *)

val request_shutoff : t -> session:Session.t -> evidence:Apna_net.Packet.t ->
  (unit, Error.t) result
(** Victim side of the shutoff protocol (Fig. 5): signs the unwanted
    packet with the key of the session's local (destination) EphID and
    sends the request to the accountability agent named in the {e peer's}
    certificate. *)

(** {2 Introspection for tests and benchmarks} *)

val ephid_requests_sent : t -> int
val packets_sent : t -> int

val rpc_retries : t -> int
(** Control-plane retransmissions this host has performed. *)

val rpc_timeouts : t -> int
(** Round trips abandoned with [Error.Timeout]. *)

val pending_rpc_count : t -> int
(** In-flight round trips: EphID issuance and DNS requests, pings, and for
    each connection an awaited [Accept] or an unacknowledged [Rekey]. A
    request stops counting when its reply lands, when it times out, or
    when its connection closes — 0 once every continuation has fired. *)
