(** Circuit breaker for the EphID issuance control-plane round trip.

    The host's data plane must not blackhole just because the management
    service is slow or unreachable: after [threshold] {e consecutive}
    failures the breaker opens and issuance requests fail fast, letting
    callers fall back to a brownout policy (reuse the freshest endpoint on
    hand, stretch per-packet granularity to per-flow). Once [cooldown_s] of
    simulated time has passed, a single half-open probe is let through; its
    success re-closes the breaker, its failure re-opens it.

    {v
        Closed --(threshold consecutive failures)--> Open
        Open --(cooldown elapsed; one probe)--> Half_open
        Half_open --(probe succeeds)--> Closed
        Half_open --(probe fails)--> Open
    v} *)

type state = Closed | Open | Half_open

type t

val create : ?threshold:int -> ?cooldown_s:float -> unit -> t
(** Defaults: [threshold = 3] consecutive failures, [cooldown_s = 10.0]. *)

val state : t -> state

val opens : t -> int
(** Number of Closed/Half_open -> Open transitions so far. *)

val acquire : t -> now:float -> bool
(** May this request proceed? [false] means fail fast — the caller should
    apply its brownout fallback instead of issuing. An [Open] breaker whose
    cooldown has elapsed transitions to [Half_open] here and admits the
    caller as the single probe. *)

val success : t -> unit
(** Report a completed issuance round trip; re-closes the breaker. *)

val failure : t -> now:float -> unit
(** Report a failed (timed-out) issuance round trip. *)

val on_transition : t -> (state -> unit) -> unit
(** Observer invoked on every state change (metrics/log hook). *)

val state_label : state -> string
val state_to_float : state -> float
(** Gauge encoding: closed = 0, half-open = 1, open = 2. *)
