(** Periodic sampler: snapshots a {!Metrics} registry into fixed-capacity
    ring-buffered time series.

    Each tick re-scans the registry (so lazily-registered series —
    per-reason drop counters, per-AS gauges — appear as soon as they first
    record) and appends one point per series. Counters are stored
    cumulatively and converted to windowed rates on read ({!rate});
    gauges keep their sampled history; histograms contribute p50/p99 and
    cumulative-count sub-series (suffixed [:p50], [:p99], [:count]).

    Like every observability layer here, a sampler starts {e disabled}:
    {!tick} and {!record} are a mutable load and a branch until
    [set_enabled t true]. Memory is bounded: [capacity] points per
    series, oldest overwritten first. Ticks are driven externally — in a
    simulation by an engine-scheduled recurring event
    ([Apna.Telemetry]), so sampling runs on simulated time and is fully
    deterministic. *)

type kind =
  | Kcounter  (** cumulative, monotonic; read through {!rate}/{!delta} *)
  | Kgauge  (** point-in-time level *)
  | Kderived  (** computed indicator recorded via {!record} *)

val kind_label : kind -> string

type series
type t

val create : ?capacity:int -> ?interval:float -> Metrics.t -> t
(** [capacity] points per series (default 512, min 2); [interval] is the
    nominal tick period in seconds (default 0.25) — advisory for whoever
    schedules ticks, and the basis alert rules use for [for_]
    durations. *)

val default : t
(** Process-wide sampler over {!Metrics.default}; disabled until
    [set_enabled default true]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool
val interval : t -> float
val registry : t -> Metrics.t

val tick : t -> now:float -> unit
(** Snapshot every registry series at time [now]. No-op while
    disabled. *)

val record :
  t -> ?kind:kind -> name:string -> ?labels:(string * string) list ->
  now:float -> float -> unit
(** Append a point to a non-registry series (default kind
    [Kderived]) — how {!Derive} publishes computed indicators. Labels
    are sorted, series identity is [name{label="v",...}] exactly as in
    {!Metrics}. No-op while disabled. *)

val ticks : t -> int

val names : t -> string list
(** Series identities, oldest-registered first. *)

val find : t -> string -> series option
(** Look up a series by identity ([name{label="v",...}]). *)

val fold : t -> ('a -> series -> 'a) -> 'a -> 'a

(** {2 Reading one series} *)

val series_id : series -> string
val name : series -> string
val labels : series -> (string * string) list
val kind : series -> kind

val written : series -> int
(** Total points ever appended (may exceed capacity). *)

val length : series -> int
(** Retained points, at most the sampler capacity. *)

val points : series -> (float * float) list
(** Retained [(time, value)] points, oldest first. *)

val last_value : series -> float
(** [nan] when empty. *)

val delta : series -> window:float -> float
(** Value change from the oldest retained point within [window] seconds
    of the newest, to the newest. [0.] with fewer than two points. *)

val rate : series -> window:float -> float
(** Windowed per-second rate over the same span as {!delta}. For
    [Kcounter] series a negative slope (metric reset) clamps to [0.].
    Ring wraparound only narrows the window to the retained span — the
    rate stays correct for whatever points survive. *)

val last_delta : series -> float
(** Change between the last two points — the per-tick delta {!Derive}
    builds ratios from. *)

val clear : t -> unit

val to_json : t -> Json.t
(** [{"interval":..,"capacity":..,"ticks":..,"series":{id:{"kind":..,
    "points":[[t,v],...]},...}}] — the [telemetry.json] timeline
    section. *)
