(** Metrics registry: named counters, gauges and histograms with labels.

    The library's counts live in the roles that make them, as plain ints
    counted on every event; the registry reads them through functions
    registered per series ({!Counter.register_fn}, {!Gauge.register_fn},
    like Prometheus's [CounterFunc]/[GaugeFunc]). A series thus counts from
    its role's creation. A registry starts {e disabled}; the flag governs
    only what costs work to record: histograms, pushed series, {!Tally}
    registrations and opt-in measurements that check {!enabled}.

    Metric identity is the pair (name, sorted label set). Registering the
    same identity twice returns the same underlying metric, so independent
    modules can share a series. Naming follows the scrape-format
    conventions: [apna_<component>_<what>_total] for counters,
    [apna_<component>_<what>] for gauges, unit-suffixed histogram names
    ([..._ns], [..._seconds]). See docs/OBSERVABILITY.md for the catalog. *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry; [enabled] defaults to [false]. *)

val default : t
(** Process-wide registry all built-in instrumentation records into.
    Disabled until [set_enabled default true]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

type labels = (string * string) list
(** Label pairs; order is irrelevant (they are sorted on registration).
    Registration raises [Invalid_argument] on an empty label name or a
    duplicate label name — both would otherwise render ambiguous series
    like [name{a="1",a="2"}]. *)

module Counter : sig
  type m

  val register : t -> ?help:string -> ?labels:labels -> string -> m
  (** A push handle; its {!value} reads the whole series. *)

  val register_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> int) -> unit
  (** Adds a reader, summed with the identity's other readers at scrape
      (two worlds with an AS 64500 show one total). It should close over
      a counters record, never over the role, so no role is kept alive. *)

  val incr : ?by:int -> m -> unit
  (** No-op while the owning registry is disabled. *)

  val value : m -> int
end

module Gauge : sig
  type m

  val register : t -> ?help:string -> ?labels:labels -> string -> m

  val register_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> float) -> unit
  (** Reads live state; replaces any earlier reader of the identity. *)

  val set : m -> float -> unit
  val add : m -> float -> unit
  (** Both no-ops while the owning registry is disabled, and hidden by a
      registered reader. *)

  val value : m -> float
end

module Histogram : sig
  type m

  val register :
    t ->
    ?help:string ->
    ?labels:labels ->
    ?buckets:int ->
    lo:float ->
    hi:float ->
    string ->
    m
  (** Linear buckets over [\[lo, hi\]] (see {!Accum.Hist}); samples outside
      clamp to the edges but still count toward sum and count. *)

  val observe : m -> float -> unit
  (** No-op while the owning registry is disabled. *)

  val count : m -> int
  val mean : m -> float
  val percentile : m -> float -> float
end

(** A role's always-on counts per value of one label (a drop reason). The
    series [name{label="v",...}] is registered as a reader of [v]'s count
    the first time [v] is counted while the registry is enabled. *)
module Tally : sig
  type tally

  val create : t -> ?help:string -> ?labels:labels -> label:string -> string -> tally
  val incr : tally -> string -> unit

  val to_list : tally -> (string * int) list
  (** Sorted by value. *)

  val total : tally -> int

  val registrations : tally -> int
  (** At most one per value. *)
end

(** {2 Sampling}

    The {!Timeseries} tick's view of the registry: one flat snapshot of
    every registered series, in registration order. Rescanned on every
    tick, so series registered lazily (per-reason drop counters, per-AS
    gauges) appear as soon as they first record. *)

type hist_sample = {
  hcount : int;
  hsum : float;
  p50 : float;
  p90 : float;
  p99 : float;
  hclamped_lo : int;
  hclamped_hi : int;
}

type sample_value =
  | Sample_counter of int  (** cumulative (monotonic) count *)
  | Sample_gauge of float
  | Sample_hist of hist_sample

type sample = {
  sname : string;  (** metric name, without labels *)
  slabels : labels;  (** sorted label pairs *)
  sseries : string;  (** [name{label="v",...}] — the series identity *)
  svalue : sample_value;
}

val samples : t -> sample list
(** Snapshot of every series, registration order. Values are readable
    whether or not the registry is enabled (a disabled registry just
    never accumulates anything). *)

val label_suffix : labels -> string
(** [{a="1",b="2"}] (or [""] for no labels) with escaped values — the
    suffix that makes a series identity out of a name. *)

val escape_label_value : string -> string
(** Exposition-format escaping for label values: backslash, double
    quote, newline, carriage return and tab are escaped so hostile label
    values (drop reasons echoed off the wire) cannot break out of the
    [label="value"] quoting in {!render_text} or corrupt {!to_json}. *)

val add_appendix : t -> (unit -> string) -> unit
(** Registers an extra scrape section rendered (in registration order)
    after the metric series in {!render_text} — how the alert engine's
    state lines ride along with every scrape. The callback must return
    either [""] or newline-terminated text. *)

val render_text : t -> string
(** Scrape-style exposition: [# HELP]/[# TYPE] comments, one
    [name{label="v",...} value] line per series; histograms render as
    summaries with p50/p90/p99 quantile lines plus [_sum]/[_count], and
    [_clamped{edge="lo"|"hi"}] lines whenever out-of-range samples were
    clamped into an edge bucket. Appendix sections follow the series. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}], keyed by
    [name{label="v",...}]; histograms carry count/mean/min-percentile
    fields. NaN (empty histogram) renders as [null]. *)

val summary_line : t -> string
(** One human line: series counts and total counter events — what
    examples print at exit. Computed over registration order
    (deterministic for a fixed registration sequence). *)
