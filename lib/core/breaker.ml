type state = Closed | Open | Half_open

type t = {
  threshold : int;
  cooldown_s : float;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe_inflight : bool;
  mutable opens : int;
  mutable on_transition : state -> unit;
}

let create ?(threshold = 3) ?(cooldown_s = 10.0) () =
  {
    threshold = max 1 threshold;
    cooldown_s;
    state = Closed;
    consecutive_failures = 0;
    opened_at = neg_infinity;
    probe_inflight = false;
    opens = 0;
    on_transition = ignore;
  }

let state t = t.state
let opens t = t.opens
let on_transition t f = t.on_transition <- f

let state_label = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let state_to_float = function Closed -> 0.0 | Half_open -> 1.0 | Open -> 2.0

let transition t state =
  if t.state <> state then begin
    t.state <- state;
    if state = Open then t.opens <- t.opens + 1;
    t.on_transition state
  end

let acquire t ~now =
  match t.state with
  | Closed -> true
  | Open ->
      if now -. t.opened_at >= t.cooldown_s then begin
        (* Cooldown elapsed: let exactly one probe through. *)
        transition t Half_open;
        t.probe_inflight <- true;
        true
      end
      else false
  | Half_open ->
      if t.probe_inflight then false
      else begin
        t.probe_inflight <- true;
        true
      end

let success t =
  t.probe_inflight <- false;
  t.consecutive_failures <- 0;
  transition t Closed

let failure t ~now =
  t.consecutive_failures <- t.consecutive_failures + 1;
  t.probe_inflight <- false;
  match t.state with
  | Half_open ->
      t.opened_at <- now;
      transition t Open
  | Closed when t.consecutive_failures >= t.threshold ->
      t.opened_at <- now;
      transition t Open
  | Closed | Open -> ()
