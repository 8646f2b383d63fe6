(** Engine-driven telemetry: wires the {!Apna_obs.Timeseries} sampler,
    {!Apna_obs.Derive} indicators and the {!Apna_obs.Alert} engine onto a
    running {!Network}.

    {!attach} enables the default metrics registry, builds a fresh
    sampler + alert engine, and arms a recurring engine-scheduled tick.
    Each tick (simulated time, fully deterministic):

    + registers any new AS's [apna_revocation_list_size] reader,
    + snapshots every registry series into the ring buffers,
    + computes the [derived:*] indicators,
    + evaluates the alert rules.

    The tick self-reschedules only while the engine has other events
    queued, then takes a final snapshot and disarms — so
    [Network.run]'s run-to-quiescence loop still terminates. Drive
    multi-phase workloads with {!kick} before each phase.

    Nothing here runs unless [attach] was called. The counters it samples
    count from each role's creation, so the first tick already holds what
    was counted before the attach. *)

type t

val attach :
  ?interval:float ->
  ?capacity:int ->
  ?rules:Apna_obs.Alert.rule list ->
  Network.t ->
  t
(** [interval] is the tick period in simulated seconds (default 0.25);
    [capacity] the per-series ring size; [rules] defaults to
    [Alert.default_rules ~interval ()]. Alert transitions go to the
    flight recorder ({!Apna_obs.Event.default}) when it is enabled. *)

val tick_now : t -> unit
(** One immediate tick at the network's current time — for callers that
    pace sampling themselves (the trace-scale bench's checkpoints). *)

val kick : t -> unit
(** Re-arm the periodic tick if it disarmed at quiescence. *)

val stop : t -> unit
(** Permanently disarm. *)

val timeseries : t -> Apna_obs.Timeseries.t
val alerts : t -> Apna_obs.Alert.t
val interval : t -> float

val health : t -> Apna_obs.Health.report list

val export : t -> Apna_obs.Json.t
(** The [telemetry.json] document:
    [{"timeseries": {...}, "alerts": {...}, "health": [...]}]. *)

val dashboard : t -> string
(** The [apnad top] frame: health table, non-inactive alerts, derived
    indicators with 24-point sparklines. *)
