type event = { time : float; seq : int; action : unit -> unit }

(* Binary min-heap on (time, seq). *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let dummy = { time = 0.0; seq = 0; action = ignore }

(* Engine series in the default registry, shared by every engine (an
   engine has no stable identity to label by): the event counter totals
   all engines; the two gauges read the newest engine, held weakly so the
   registry keeps no world alive. *)
let events = ref 0
let newest : t Weak.t = Weak.create 1

let () =
  let module M = Apna_obs.Metrics in
  let newest_f f () = match Weak.get newest 0 with Some t -> f t | None -> 0.0 in
  M.Counter.register_fn M.default "apna_sim_events_total"
    ~help:"Events processed by the discrete-event engine" (fun () -> !events);
  M.Gauge.register_fn M.default "apna_sim_queue_depth"
    ~help:"Pending events in the engine heap"
    (newest_f (fun t -> float_of_int t.size));
  M.Gauge.register_fn M.default "apna_sim_clock_seconds" ~help:"Current simulated time"
    (newest_f (fun t -> t.clock))

let create () =
  let t = { heap = Array.make 64 dummy; size = 0; clock = 0.0; next_seq = 0 } in
  Weak.set newest 0 (Some t);
  t

let now t = t.clock
let pending t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop_event t =
  (* Guard against underflow: popping an empty heap would drive [size] to
     -1 and hand back the dummy event. *)
  if t.size = 0 then invalid_arg "Engine.pop: empty heap";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

let schedule t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule: time in the past";
  push t { time = at; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1

let schedule_in t ~delay action = schedule t ~at:(t.clock +. delay) action

let pop t = (pop_event t).action

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop_event t in
    t.clock <- ev.time;
    incr events;
    ev.action ();
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue do
    if t.size = 0 then begin
      (match until with
      | Some limit when limit > t.clock -> t.clock <- limit
      | _ -> ());
      continue := false
    end
    else
      match until with
      | Some limit when t.heap.(0).time > limit ->
          t.clock <- limit;
          continue := false
      | _ -> ignore (step t)
  done
