type labels = (string * string) list

type key = { name : string; labels : labels }

type value =
  | Vcounter of Accum.Counter.t
  | Vgauge of float ref
  | Vhist of Accum.Hist.t

type t = {
  mutable on : bool;
  tbl : (key, value) Hashtbl.t;
  help : (string, string) Hashtbl.t;
  (* Registration order, newest first; reversed for rendering. *)
  mutable order : key list;
  (* Extra scrape sections (the alert engine's state lines); rendered
     after the metric series, oldest registration first. *)
  mutable appendix : (unit -> string) list;
}

let create ?(enabled = false) () =
  {
    on = enabled;
    tbl = Hashtbl.create 64;
    help = Hashtbl.create 16;
    order = [];
    appendix = [];
  }

let add_appendix t f = t.appendix <- f :: t.appendix

let default = create ()
let set_enabled t on = t.on <- on
let enabled t = t.on

let normalize labels =
  List.iter
    (fun (k, _) -> if k = "" then invalid_arg "Metrics: empty label name")
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Metrics: duplicate label name %S" a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let register_value t ?help ~labels ~name ~kind make =
  let key = { name; labels = normalize labels } in
  (match help with
  | Some h when not (Hashtbl.mem t.help name) -> Hashtbl.replace t.help name h
  | _ -> ());
  match Hashtbl.find_opt t.tbl key with
  | Some existing -> begin
      match (existing, kind) with
      | Vcounter _, `Counter | Vgauge _, `Gauge | Vhist _, `Hist -> existing
      | _ ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered with another type" name)
    end
  | None ->
      let v = make () in
      Hashtbl.replace t.tbl key v;
      t.order <- key :: t.order;
      v

module Counter = struct
  type m = { reg : t; c : Accum.Counter.t }

  let register reg ?help ?(labels = []) name =
    match
      register_value reg ?help ~labels ~name ~kind:`Counter (fun () ->
          Vcounter (Accum.Counter.create ()))
    with
    | Vcounter c -> { reg; c }
    | _ -> assert false

  (* [?by] is passed through as is: re-wrapping a defaulted [by] in [Some]
     would allocate on every increment. *)
  let incr ?by m = if m.reg.on then Accum.Counter.incr ?by m.c
  let value m = Accum.Counter.value m.c
end

module Gauge = struct
  type m = { reg : t; g : float ref }

  let register reg ?help ?(labels = []) name =
    match
      register_value reg ?help ~labels ~name ~kind:`Gauge (fun () ->
          Vgauge (ref 0.0))
    with
    | Vgauge g -> { reg; g }
    | _ -> assert false

  let set m v = if m.reg.on then m.g := v
  let add m v = if m.reg.on then m.g := !(m.g) +. v
  let value m = !(m.g)
end

module Histogram = struct
  type m = { reg : t; h : Accum.Hist.t }

  let register reg ?help ?(labels = []) ?buckets ~lo ~hi name =
    match
      register_value reg ?help ~labels ~name ~kind:`Hist (fun () ->
          Vhist (Accum.Hist.create ?buckets ~lo ~hi ()))
    with
    | Vhist h -> { reg; h }
    | _ -> assert false

  let observe m v = if m.reg.on then Accum.Hist.add m.h v
  let count m = Accum.Hist.count m.h
  let mean m = Accum.Hist.mean m.h
  let percentile m p = Accum.Hist.percentile m.h p
end

(* ------------------------------------------------------------------ *)
(* Export *)

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_suffix = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let series_name key = key.name ^ label_suffix key.labels

let ordered t =
  List.rev_map (fun key -> (key, Hashtbl.find t.tbl key)) t.order

let quantiles = [ 0.5; 0.9; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Sampling (the Timeseries tick's view of the registry) *)

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
  | Sample_counter of int
  | Sample_gauge of float
  | Sample_hist of hist_sample

type sample = {
  sname : string;
  slabels : labels;
  sseries : string;
  svalue : sample_value;
}

let samples t =
  List.map
    (fun (key, v) ->
      let svalue =
        match v with
        | Vcounter c -> Sample_counter (Accum.Counter.value c)
        | Vgauge g -> Sample_gauge !g
        | Vhist h ->
            Sample_hist
              {
                hcount = Accum.Hist.count h;
                hsum = Accum.Hist.sum h;
                p50 = Accum.Hist.percentile h 0.5;
                p90 = Accum.Hist.percentile h 0.9;
                p99 = Accum.Hist.percentile h 0.99;
                hclamped_lo = Accum.Hist.clamped_lo h;
                hclamped_hi = Accum.Hist.clamped_hi h;
              }
      in
      { sname = key.name; slabels = key.labels; sseries = series_name key; svalue })
    (ordered t)

let render_text t =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (key, v) ->
      if not (Hashtbl.mem seen_header key.name) then begin
        Hashtbl.replace seen_header key.name ();
        (match Hashtbl.find_opt t.help key.name with
        | Some h -> Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" key.name h)
        | None -> ());
        let kind =
          match v with
          | Vcounter _ -> "counter"
          | Vgauge _ -> "gauge"
          | Vhist _ -> "summary"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" key.name kind)
      end;
      match v with
      | Vcounter c ->
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" (series_name key) (Accum.Counter.value c))
      | Vgauge g -> Buffer.add_string b (Printf.sprintf "%s %g\n" (series_name key) !g)
      | Vhist h ->
          List.iter
            (fun q ->
              let labels = key.labels @ [ ("quantile", string_of_float q) ] in
              Buffer.add_string b
                (Printf.sprintf "%s%s %g\n" key.name (label_suffix labels)
                   (Accum.Hist.percentile h q)))
            quantiles;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %g\n" key.name (label_suffix key.labels)
               (Accum.Hist.sum h));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" key.name (label_suffix key.labels)
               (Accum.Hist.count h));
          (* Edge-clamped samples: nonzero means the percentile lines above
             are lying at the histogram's range boundary. *)
          if Accum.Hist.clamped h > 0 then begin
            Buffer.add_string b
              (Printf.sprintf "%s_clamped%s %d\n" key.name
                 (label_suffix (key.labels @ [ ("edge", "lo") ]))
                 (Accum.Hist.clamped_lo h));
            Buffer.add_string b
              (Printf.sprintf "%s_clamped%s %d\n" key.name
                 (label_suffix (key.labels @ [ ("edge", "hi") ]))
                 (Accum.Hist.clamped_hi h))
          end)
    (ordered t);
  List.iter (fun f -> Buffer.add_string b (f ())) (List.rev t.appendix);
  Buffer.contents b

let to_json t =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (key, v) ->
      let name = series_name key in
      match v with
      | Vcounter c -> counters := (name, Json.Int (Accum.Counter.value c)) :: !counters
      | Vgauge g -> gauges := (name, Json.Float !g) :: !gauges
      | Vhist h ->
          let fields =
            [
              ("count", Json.Int (Accum.Hist.count h));
              ("mean", Json.Float (Accum.Hist.mean h));
            ]
            @ List.map
                (fun q ->
                  ( Printf.sprintf "p%g" (q *. 100.0),
                    Json.Float (Accum.Hist.percentile h q) ))
                quantiles
            @ [
                ("clamped_lo", Json.Int (Accum.Hist.clamped_lo h));
                ("clamped_hi", Json.Int (Accum.Hist.clamped_hi h));
              ]
          in
          hists := (name, Json.Obj fields) :: !hists)
    (ordered t);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]

let summary_line t =
  let nc = ref 0 and ng = ref 0 and nh = ref 0 in
  let events = ref 0 and samples = ref 0 in
  List.iter
    (fun (_, v) ->
      match v with
      | Vcounter c ->
          incr nc;
          events := !events + Accum.Counter.value c
      | Vgauge _ -> incr ng
      | Vhist h ->
          incr nh;
          samples := !samples + Accum.Hist.count h)
    (ordered t);
  Printf.sprintf
    "%d counters (%d events), %d gauges, %d histograms (%d samples)" !nc !events
    !ng !nh !samples
