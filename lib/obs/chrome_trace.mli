(** Export the flight recorder as Chrome trace-event JSON.

    The output is the trace-event array format understood by Perfetto and
    [chrome://tracing]: a JSON array whose elements each carry ["name"],
    ["cat"], ["ph"], ["ts"] (microseconds), ["pid"] and ["tid"].

    Mapping: [pid] is the AS number the record happened in (0 for gateway
    and alert records, which carry no AS identity), [tid] is the packet
    key (FNV-64, truncated to a non-negative OCaml int — the full key is
    in ["args.key"] as hex). Timed records ([dur > 0]) become ["ph":"X"]
    complete events with a ["dur"] and [ts] at their start; instants
    become ["ph":"i"] thread-scoped instants. Entries are sorted by
    timestamp. *)

val to_json : Event.sink -> Json.t
(** Trace-event array over the sink's retained records. *)

val to_string : Event.sink -> string

val write_file : Event.sink -> string -> unit
(** Render to a file, newline-terminated. *)
