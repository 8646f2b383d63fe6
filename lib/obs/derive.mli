(** Derived indicators, computed once per sampler tick from the raw
    registry series and recorded back into the {!Timeseries} as
    [derived:*] series — so alert rules and dashboards read ratios and
    rates exactly like raw metrics.

    Per-tick ratios use the delta between the last two samples; rates
    use a sliding [window] (default 8 sampling intervals). A ratio with
    an empty denominator (no traffic this tick) records [nan], which
    every alert predicate treats as false. *)

val compute : ?window:float -> Timeseries.t -> now:float -> unit
(** Run after [Timeseries.tick] with the same [now]. *)

(** {2 Series-name catalog} *)

val cache_hit_ratio : string
(** [derived:ephid_cache_hit_ratio{aid}] — validated-EphID cache hits /
    lookups over the last tick. Collapses during a revocation storm
    (invalidation churn). *)

val drop_ratio_total : string
(** [derived:br_drop_ratio_total{aid}] — all drops / all verdicts. *)

val revocation_growth : string
(** [derived:revocation_growth{aid}] — revocation-list entries/s from
    the [apna_revocation_list_size] gauge. *)

val replay_reject_rate : string
(** [derived:replay_reject_rate] — replayed-or-stale rejections/s:
    host session replay windows + BR-level rejected drops. *)

val budget_exhausted_rate : string
(** [derived:budget_exhausted_rate{aid}] — refusals/s with reason
    [budget-exhausted]: the drain signature. *)

val breaker_max : string
(** [derived:issuance_breaker_max] — worst issuance-breaker state over
    all hosts (0 closed, 1 half-open, 2 open). *)

val shutoff_backlog : string
(** [derived:shutoff_backlog] — shutoff requests built by victims but
    not yet parsed by an accountability agent. Requests carry no
    timestamp, so propagation latency is detected as a sustained
    in-flight backlog rather than a per-request duration. *)

val catalog : string list
(** Every derived series name above. *)
