(* Periodic sampler: snapshots a Metrics registry into fixed-capacity
   ring-buffered series. Follows the Event sink discipline: created
   disabled, bounded memory, a single mutable load + branch when off. *)

type kind = Kcounter | Kgauge | Kderived

let kind_label = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Kderived -> "derived"

type series = {
  name : string;  (* metric name without labels *)
  labels : (string * string) list;
  skind : kind;
  times : float array;
  values : float array;
  (* Total points ever recorded; ring slot is [written mod capacity]. *)
  mutable written : int;
}

type t = {
  mutable on : bool;
  reg : Metrics.t;
  capacity : int;
  interval : float;
  tbl : (string, series) Hashtbl.t;
  (* Registration order, newest first. *)
  mutable order : string list;
  mutable ticks : int;
}

let create ?(capacity = 512) ?(interval = 0.25) reg =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity < 2";
  if interval <= 0.0 then invalid_arg "Timeseries.create: interval <= 0";
  {
    on = false;
    reg;
    capacity;
    interval;
    tbl = Hashtbl.create 64;
    order = [];
    ticks = 0;
  }

let default = create Metrics.default

let set_enabled t on = t.on <- on
let enabled t = t.on
let interval t = t.interval

let registry t = t.reg
let ticks t = t.ticks

(* ---- per-series ring ---- *)

let series_of t ~series ~name ~labels ~skind =
  match Hashtbl.find_opt t.tbl series with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          labels;
          skind;
          times = Array.make t.capacity nan;
          values = Array.make t.capacity nan;
          written = 0;
        }
      in
      Hashtbl.replace t.tbl series s;
      t.order <- series :: t.order;
      s

let push s ~now v =
  let cap = Array.length s.times in
  let slot = s.written mod cap in
  s.times.(slot) <- now;
  s.values.(slot) <- v;
  s.written <- s.written + 1

let record t ?(kind = Kderived) ~name ?(labels = []) ~now v =
  if t.on then begin
    let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    let series = name ^ Metrics.label_suffix labels in
    push (series_of t ~series ~name ~labels ~skind:kind) ~now v
  end

(* ---- tick: snapshot the registry ---- *)

let sample_one t ~now (s : Metrics.sample) =
  let put ?(suffix = "") ~skind v =
    let name = s.Metrics.sname ^ suffix in
    let series = name ^ Metrics.label_suffix s.Metrics.slabels in
    push (series_of t ~series ~name ~labels:s.Metrics.slabels ~skind) ~now v
  in
  match s.Metrics.svalue with
  | Metrics.Sample_counter c -> put ~skind:Kcounter (float_of_int c)
  | Metrics.Sample_gauge g -> put ~skind:Kgauge g
  | Metrics.Sample_hist h ->
      (* Percentile history plus the cumulative count (a counter, so
         Alert rate predicates work on observation throughput). *)
      put ~suffix:":p50" ~skind:Kgauge h.Metrics.p50;
      put ~suffix:":p99" ~skind:Kgauge h.Metrics.p99;
      put ~suffix:":count" ~skind:Kcounter (float_of_int h.Metrics.hcount)

let tick t ~now =
  if t.on then begin
    List.iter (sample_one t ~now) (Metrics.samples t.reg);
    t.ticks <- t.ticks + 1
  end

(* ---- reading ---- *)

let names t = List.rev t.order
let find t series = Hashtbl.find_opt t.tbl series

let fold t f init =
  List.fold_left (fun acc n -> f acc (Hashtbl.find t.tbl n)) init (names t)

let series_id s = s.name ^ Metrics.label_suffix s.labels
let name s = s.name
let labels s = s.labels
let kind s = s.skind
let written s = s.written
let length s = min s.written (Array.length s.times)

let nth_point s i =
  (* [i] in [0, length-1], oldest retained first. *)
  let cap = Array.length s.times in
  let retained = min s.written cap in
  let slot = (s.written - retained + i) mod cap in
  (s.times.(slot), s.values.(slot))

let points s = List.init (length s) (nth_point s)

let last_point s =
  let n = length s in
  if n = 0 then None else Some (nth_point s (n - 1))

let last_value s = match last_point s with None -> nan | Some (_, v) -> v

(* Oldest retained point with time >= [t1 - window]; the newest point is
   always in range, so this is well-defined whenever the series is
   non-empty. Linear scan back from the newest — capacity is small. *)
let window_start s ~window =
  let n = length s in
  let t1, _ = nth_point s (n - 1) in
  let rec back i best =
    if i < 0 then best
    else
      let ti, _ = nth_point s i in
      if ti >= t1 -. window then back (i - 1) i else best
  in
  back (n - 2) (n - 1)

let delta s ~window =
  let n = length s in
  if n < 2 then 0.0
  else begin
    let i0 = window_start s ~window in
    if i0 >= n - 1 then 0.0
    else
      let _, v0 = nth_point s i0 in
      let _, v1 = nth_point s (n - 1) in
      v1 -. v0
  end

let rate s ~window =
  let n = length s in
  if n < 2 then 0.0
  else begin
    let i0 = window_start s ~window in
    if i0 >= n - 1 then 0.0
    else begin
      let t0, v0 = nth_point s i0 in
      let t1, v1 = nth_point s (n - 1) in
      if t1 <= t0 then 0.0
      else begin
        let r = (v1 -. v0) /. (t1 -. t0) in
        (* A monotonic counter going backwards means the underlying metric
           was reset; report quiescence rather than a negative rate. *)
        match s.skind with Kcounter -> Float.max r 0.0 | _ -> r
      end
    end
  end

let last_delta s =
  let n = length s in
  if n < 2 then 0.0
  else
    let _, v0 = nth_point s (n - 2) in
    let _, v1 = nth_point s (n - 1) in
    v1 -. v0

let clear t =
  Hashtbl.reset t.tbl;
  t.order <- [];
  t.ticks <- 0

(* ---- export ---- *)

let series_json s =
  Json.Obj
    [
      ("kind", Json.Str (kind_label s.skind));
      ("points",
       Json.List
         (List.map (fun (ti, v) -> Json.List [ Json.Float ti; Json.Float v ])
            (points s)));
    ]

let to_json t =
  Json.Obj
    [
      ("interval", Json.Float t.interval);
      ("capacity", Json.Int t.capacity);
      ("ticks", Json.Int t.ticks);
      ("series",
       Json.Obj (fold t (fun acc s -> (series_id s, series_json s) :: acc) []
                 |> List.rev));
    ]
