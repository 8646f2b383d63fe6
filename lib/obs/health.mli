(** Per-AS health rollup: ok / degraded / critical, from firing alerts
    plus early-warning indicator bands.

    Scopes come from series labels: every AS appearing in any [aid]-
    labeled series gets a row (healthy ASes report [Ok] with no
    reasons), and unlabeled series roll into a ["global"] row. A firing
    [Crit] alert makes its scope [Critical]; a firing [Warn] alert — or
    a [Crit] alert still pending — makes it [Degraded]. Independent of
    alerts, indicator {e bands} (drop ratio, cache hit ratio, budget
    exhaustion, breaker state) shade a scope before rules fire. *)

type status = Ok | Degraded | Critical

val worse : status -> status -> status

type report = {
  scope : string;  (** ["AS64500"] or ["global"] *)
  status : status;
  reasons : string list;  (** contributing alerts and bands *)
}

val rollup : Alert.t -> Timeseries.t -> report list
(** Sorted by scope; the global row is always present. *)

val render : report list -> string
(** Text table: scope, status, reasons. *)

val worst : report list -> status

val to_json : report list -> Json.t
