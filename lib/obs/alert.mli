(** Declarative alert engine over {!Timeseries} data.

    A {!rule} names a metric (optionally narrowed by a label subset), a
    predicate over its series, a [for_] hold-down duration and a
    severity. Every concrete series matching the rule gets its own state
    machine {e instance}:

    {v inactive -> pending -(held for_ seconds)-> firing -> resolved v}

    The [for_] hold-down is the hysteresis: a series oscillating around
    the threshold bounces between inactive and pending and never fires.
    A pending instance that drops below threshold goes straight back to
    inactive (it never fired, so there is nothing to resolve); a firing
    instance whose predicate clears becomes resolved, and stays visibly
    resolved until the predicate trips again.

    Transitions emit [apna_alert_*] metrics into the sampled registry,
    flight-recorder {!Event.Alert_state} events (when the sink is
    enabled), and a bounded transition history for [telemetry.json].
    {!attach_scrape} appends live alert-state lines to every
    [Metrics.render_text] scrape. *)

type predicate =
  | Above of float  (** latest value strictly above — [nan] never holds *)
  | Below of float
  | Rate_above of { window : float; per_s : float }
      (** windowed {!Timeseries.rate} above [per_s] *)
  | Rate_below of { window : float; per_s : float }

type severity = Warn | Crit

val severity_label : severity -> string

type rule = {
  name : string;
  metric : string;  (** series {e name} (labels excluded), e.g.
                        ["apna_net_fault_lost_total"] or a [Derive]
                        indicator *)
  where : (string * string) list;
      (** label subset a series must carry to match; [[]] matches all *)
  pred : predicate;
  for_ : float;  (** seconds the predicate must hold before firing;
                     [0.] fires on the first true evaluation *)
  severity : severity;
  summary : string;  (** operator-facing rationale *)
}

type state = Inactive | Pending of float | Firing of float | Resolved of float

val state_label : state -> string

type instance
type t

val create : ?rules:rule list -> Timeseries.t -> t
(** Transitions go to {!Event.default} as [Alert_state] records when it
    is enabled, and to a transition log bounded at 1024 entries. *)

val default_rules : ?interval:float -> unit -> rule list
(** The ROADMAP-4 attack-signature rulepack: replay-flood, link-loss,
    revocation-storm, shutoff-stall, broker-budget-drain, breaker-open,
    cache-collapse. [interval] is the sampler tick period the [for_]
    durations are scaled from (default 0.25 s). Thresholds are
    documented in docs/OBSERVABILITY.md. *)

val rules : t -> rule list

val eval : t -> now:float -> unit
(** Evaluate every rule against the current series (run after
    [Timeseries.tick] + [Derive.compute]). Creates instances lazily as
    matching series appear, steps each state machine, and updates the
    emitted gauges. *)

val instances : t -> instance list
(** All instances, creation order. *)

val rule : instance -> rule
val series : instance -> string
val state : instance -> state

val firing : t -> instance list

val has_fired : t -> string -> bool
(** Whether the named rule ever reached [Firing] — the bench gates. *)

val fired_rules : t -> string list

val rules_text : string list -> string
(** Rule names sorted and comma-separated, or ["(none)"] — how reports
    print {!fired_rules}. *)

val render : t -> string
(** Alert-state lines: a [# ALERTS ...] summary plus one
    [apna_alert{rule=..,series=..,severity=..,state=..} code] line per
    non-inactive instance. *)

val attach_scrape : t -> Metrics.t -> unit
(** Append {!render} to every [Metrics.render_text] of [reg]. *)

val to_json : t -> Json.t
(** [{"rules":[...with "fired" flags], "instances":[...],
    "transitions":[...]}] — the [telemetry.json] alerts section. *)
