(** The Accountability Agent (AA) — shutoff handling (paper §IV-E, Fig. 5,
    §VI-C, §VIII-G2), hardened against shutoff-request floods.

    The AA validates a shutoff request in four steps: the requester's
    certificate chains to its AS; the signature over the evidence packet
    proves ownership of the destination EphID; the requester was actually
    the packet's destination; and the packet's MAC proves the accused
    source really sent it. Only then does it revoke the source EphID on
    the AS's border routers.

    Because one cheap forged request can trigger all of that work plus a
    revocation broadcast, every request first passes {e admission
    control}: a per-requester token bucket, duplicate-evidence dedup by
    packet digest (one unwanted packet cannot be replayed into N
    revocations), and an evidence-freshness check against the quoted
    source EphID's validity window. Admitted requests enter a bounded
    two-priority work queue ({!enqueue}/{!drain}) that sheds presumed-spam
    before legitimate evidence and announces revocations to the border
    routers in batches.

    Per §VIII-G2, a host whose EphIDs get revoked too many times has its
    HID revoked entirely. *)

type t

(** Admission-control and queueing policy. All bounds exist to cap
    attacker-paid work and memory. *)
type limits = {
  rate_burst : int;  (** token-bucket capacity per requester EphID *)
  rate_per_s : float;  (** token refill rate *)
  dedup_cap : int;  (** evidence digests remembered (FIFO eviction) *)
  queue_cap : int;  (** bounded work queue: hi + lo entries *)
  drain_budget : int;  (** requests verified per drain pass *)
  batch_max : int;  (** revocations per batched announce command *)
  max_expiry_horizon_s : int;
      (** refuse evidence whose quoted source EphID claims an expiry
          further in the future than any issuable lifetime *)
  drain_interval_s : float;  (** drain-loop period when scheduled *)
}

val default_limits : limits
(** burst 8 / 1 token·s⁻¹ (the shutoff demo's seven-wave victim stays
    under it), 8192-entry dedup, queue cap 64, drain budget 16, batches
    of ≤32, 31-day expiry horizon, 20 ms drain period. *)

val create :
  keys:Keys.as_keys -> host_info:Host_info.t -> revoked:Revocation.t ->
  trust:Trust.t -> ?max_revocations_per_host:int -> ?limits:limits ->
  unit -> t
(** [max_revocations_per_host] defaults to 6, echoing the Copyright Alert
    System's warning ladder the paper cites. *)

(** {2 Admission and drain} *)

type verdict =
  | Queued  (** admitted; a later {!drain} will verify it *)
  | Refused of Error.t  (** failed admission control *)
  | Shed  (** admitted but dropped by queue load-shedding *)

val enqueue : t -> now:int -> at:float -> Msgs.t -> verdict
(** Admission control plus bounded enqueue. [at] is the arrival time in
    simulation seconds — the start of the propagation-latency clock.
    Admission refusals ([Refused (Rejected "shutoff rate limit")],
    [Refused (Rejected "duplicate evidence")], [Refused (Expired
    "evidence")]) touch no {!Revocation} state; a refusal in {!drain}'s
    verification shows in {!refusal_reasons} and the decision sink.
    Requesters that have burned through half their token burst ride the
    low-priority queue and are shed first when the queue is at
    [queue_cap]; a high-priority arrival to a full queue evicts the
    oldest low-priority entry instead of being dropped. *)

val drain : t -> now:int -> at:float -> (Apna_net.Addr.hid * Ephid.t) list
(** Verifies up to [drain_budget] queued requests (high-priority first)
    and flushes granted revocations to the border routers as batched,
    kAS-authenticated announcements ({!Command.make_batch} →
    {!Revocation.revoke_many}): a storm costs O(batches) control messages
    and cache invalidations, not O(revocations). Returns the granted
    [(hid, ephid)] bindings so the AS can send revocation notices. *)

(** {2 Introspection} *)

val revocations_of : t -> Apna_net.Addr.hid -> int
val limits : t -> limits
val queue_depth : t -> int

val queue_peak : t -> int
(** High-water mark of {!queue_depth} — the bench gate that the bounded
    queue never exceeded its cap. *)

val shed_count : t -> int
val granted_count : t -> int

val refused_count : t -> int
(** Total refusals (admission + verification), all reasons. *)

val refusal_reasons : t -> (string * int) list
(** Per-reason refusal counts ({!Error.kind_label} labels), sorted. *)

val propagation_samples : t -> float list
(** One sample per granted queued shutoff: seconds from evidence arrival
    ({!enqueue}'s [at]) to the revocation entering the revoked list. *)

val set_decision_sink : t -> (now:int -> string -> unit) -> unit
(** Installs a sink that receives a one-line record of every shutoff
    decision (grant, refusal or shed). The privacy broker attaches its
    hash-chained journal here so AA disclosures are tamper-evident too. *)

(** The AA → border-router revoke announcement of Fig. 5: a batch of
    revocations authenticated with the infrastructure key kAS. *)
module Command : sig
  type batch = { entries : (Ephid.t * int) list; bmac : string }

  val make_batch : keys:Keys.as_keys -> entries:(Ephid.t * int) list -> batch
  val verify_batch : keys:Keys.as_keys -> batch -> bool
end
