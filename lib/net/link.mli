(** Point-to-point link model: capacity, propagation delay, and an optional
    deterministic fault model (loss, duplication, reorder jitter, bounded
    queue with tail drop). *)

type faults = {
  loss : float;  (** probability a frame is silently dropped *)
  duplicate : float;  (** probability a frame is delivered twice *)
  reorder : float;  (** probability a frame picks up extra jitter *)
  jitter_s : float;  (** max extra delay applied to a reordered frame *)
  queue_frames : int;  (** bounded sender queue; 0 = unbounded *)
}

val no_faults : faults

val make_faults :
  ?loss:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?jitter_ms:float ->
  ?queue_frames:int ->
  unit ->
  faults
(** All fault knobs default to off. Raises [Invalid_argument] on
    probabilities outside [0, 1] or negative jitter/queue sizes. *)

val faults_active : faults -> bool
(** [true] when any fault class can fire. A record whose probabilities are
    all zero (even with a non-zero queue bound) consumes no randomness on
    the fast path. *)

type fault_stats = {
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable queue_dropped : int;
}

val fresh_fault_stats : unit -> fault_stats

type t = {
  capacity_bps : float;
  propagation_s : float;
  mtu : int;
  faults : faults;
  stats : fault_stats;
}

val make :
  ?capacity_gbps:float ->
  ?propagation_ms:float ->
  ?mtu:int ->
  ?faults:faults ->
  unit ->
  t
(** Defaults: 10 Gbps, 5 ms, 1500-byte MTU, no faults. *)

val fault_stats : t -> fault_stats
(** Per-link injected-fault counters, updated by [plan_delivery] and
    [note_queue_drop]. *)

val transit_delay : t -> bytes:int -> float
(** Serialization plus propagation delay for a frame of [bytes] bytes. *)

val observe_transit : bytes:int -> unit
(** Count one committed frame in the process-wide totals the default
    metrics registry shows ([apna_net_link_transits_total] /
    [apna_net_link_bytes_total]); the network layer calls this when it
    actually schedules a frame. *)

val plan_faults :
  faults -> stats:fault_stats -> rand:(unit -> float) -> float list
(** Decide the fate of one frame: [[]] = lost, otherwise one extra-delay
    entry per delivered copy (0.0 = on time). [rand] must return uniform
    floats in [0, 1); it is consulted only for fault classes whose
    probability is non-zero, so the draw sequence — and therefore the whole
    simulation — is reproducible from the fault DRBG seed. Updates [stats]
    and the process-wide totals behind the [apna_net_fault_*] series. *)

val plan_delivery : t -> rand:(unit -> float) -> float list
(** [plan_faults] against the link's own fault config and stats. *)

val note_queue_drop : stats:fault_stats -> unit
(** Record one tail drop from a bounded link queue. *)
