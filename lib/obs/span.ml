(* Kept only because perf/ (frozen by BENCHMARK.json) still enables
   [Span.default]; it is the one flight recorder, Event.default. *)
let default = Event.default
let set_enabled = Event.set_enabled
