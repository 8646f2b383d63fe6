(** The simulated inter-domain network: ASes on a topology, a shared trust
    store (RPKI stand-in), a discrete-event engine, and a simulated wall
    clock for EphID expiry.

    This is the test bench on which all examples, tests and benchmarks run
    end-to-end protocol flows. Everything is deterministic given the
    seed. *)

type t

type transport =
  | Native  (** APNA packets travel as-is between border routers. *)
  | Gre_ipv4
      (** The §VII-D deployment (Fig. 9): every inter-AS transmission is
          serialized as IPv4 / GRE / APNA and re-parsed at the next router,
          with router IPv4 addresses standing in for AIDs on the wire. *)

val create : ?seed:string -> ?transport:transport -> unit -> t
(** The simulation starts at Unix time 1,750,000,000. Fault injection draws from an independent DRBG derived from
    [seed ^ "/faults"], so identical seeds inject identical faults and
    fault-free runs are byte-identical to runs built without the fault
    model at all. *)

val engine : t -> Apna_sim.Engine.t
val topology : t -> Apna_net.Topology.t
val trust : t -> Trust.t
val now_unix : t -> int
val now_f : t -> float
val rng : t -> Apna_crypto.Drbg.t

val add_as :
  t -> int -> ?dns_zone:string -> ?retention:bool -> ?icmp_encryption:bool ->
  ?lifetime_policy:Lifetime.policy -> ?expected_hosts:int ->
  ?aa_limits:Accountability.limits -> unit -> As_node.t
(** [add_as t 64500 ()] creates and registers an AS with that number.
    [retention] turns on the §VIII-H audit log; [icmp_encryption] turns on
    §VIII-B sealed ICMP feedback (with its certificate cache);
    [lifetime_policy] overrides the §VIII-G1 short/medium/long EphID
    lifetimes this AS's management service issues; [expected_hosts]
    pre-sizes the sharded host_info database for a known population;
    [aa_limits] overrides the accountability agent's admission-control
    policy (rate limits, queue bound, revocation batching). *)

val node : t -> Apna_net.Addr.aid -> As_node.t option
val node_exn : t -> int -> As_node.t

val ases : t -> As_node.t list
(** Every registered AS, sorted by AS number — deterministic iteration
    for the telemetry tick's per-AS gauge refresh. *)

val connect_as : t -> int -> int -> ?link:Apna_net.Link.t -> unit -> unit
(** Inter-AS link; default 10 Gbps, 5 ms. Pass a link built with
    [Link.make ~faults ...] to inject loss, duplication, reorder jitter or
    a bounded sender queue on every transmission it carries. *)

val link_fault_stats :
  t -> int -> int -> Apna_net.Link.fault_stats option
(** Injected-fault counters of the (undirected) link between two AS
    numbers; [None] when they are not connected. *)

val set_host_faults : t -> Apna_net.Link.faults option -> unit
(** Applies a fault model to every host<->border-router access-link
    crossing (both directions, all hosts added by {!add_host}). [None]
    (the default) restores the exact fault-free delivery path. *)

val host_fault_stats : t -> Apna_net.Link.fault_stats
(** Counters for faults injected on access links by {!set_host_faults}. *)

val add_host :
  t -> as_number:int -> name:string -> credential:string ->
  ?granularity:Granularity.t -> unit -> Host.t
(** Creates a host with its own derived RNG, attaches it to the AS and
    enrolls the credential. The host still has to {!Host.bootstrap}. *)

val run : ?until:float -> t -> unit
(** Drives the event engine until quiescence (or simulated time [until]). *)

val set_tap :
  t -> (from:Apna_net.Addr.aid -> to_:Apna_net.Addr.aid -> Apna_net.Packet.t -> unit) -> unit
(** Installs a passive observer on every inter-AS transmission — the
    adversary's vantage point for the privacy experiments and tests. *)

val advance_time : t -> float -> unit
(** [advance_time t dt] fast-forwards the clock by [dt] seconds, processing
    any events in between — for expiry and garbage-collection tests. *)
