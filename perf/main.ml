(* APNA benchmark: four closed-loop workloads over the full packet path.

     dune exec perf/main.exe -- --seed N                 every workload
     dune exec perf/main.exe -- --workload NAME --seed N one workload
       [--seconds S]   run length the work is sized for (default 12)
       [--trace 0|1]   1: also the traced run and the replay ledger
     dune exec perf/main.exe -- --smoke                  all workloads at 1%
     dune exec perf/main.exe -- --compare A.json B.json  deltas against bounds

   Each workload prints "workload metric value unit" lines, then one JSON
   line {"correct", "attempted", "failed", "metrics"} holding the
   end-to-end metrics, or with --trace 1 the per-layer ones. Every workload
   of a full run runs in a child process of its own, one at a time, and the
   run writes perf_results.json. See perf/README.md. *)

module Json = Apna_obs.Json

module Args = struct
  let workload = ref None
  let seed = ref 1
  let seconds = ref Spec.reference_seconds
  let trace = ref false
  let smoke = ref false
  let compare = ref None

  let usage () =
    prerr_endline
      "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
      \       main.exe --smoke\n\
      \       main.exe --compare A.json[,A2.json...] B.json[,B2.json...]";
    exit 2

  let parse () =
    let rec go = function
      | [] -> ()
      | "--workload" :: v :: rest -> workload := Some v; go rest
      | "--seed" :: v :: rest ->
          (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
          go rest
      | "--seconds" :: v :: rest ->
          (match float_of_string_opt v with
          | Some s when s > 0.0 -> seconds := s
          | _ -> usage ());
          go rest
      | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
      | "--trace" :: rest -> trace := true; go rest
      | "--smoke" :: rest -> smoke := true; go rest
      | "--compare" :: a :: b :: rest -> compare := Some (a, b); go rest
      | _ -> usage ()
    in
    go (List.tl (Array.to_list Sys.argv))
end

let fmt_float v = Json.to_string (Json.Float v)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median l =
  let a = sorted (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* One workload, in this process. *)

type runner = {
  world : World.t;
  probe : World.instr -> int -> World.phase;
  load : World.instr -> int -> World.phase;
  live : unit -> World.live;
  frames_per_op : int;
  churn : bool;
}

let setup (wl : Spec.workload) ~seed =
  match wl.kind with
  | Spec.Stream { payload; observed } ->
      let st = World.setup_stream ~seed ~payload ~observed ~sessions:wl.concurrency in
      {
        world = st.sw;
        probe = (fun instr total -> World.run_stream st instr ~slots:[| st.slots.(0) |] ~total);
        load = (fun instr total -> World.run_stream st instr ~slots:st.slots ~total);
        live = (fun () -> World.live_stream st ~n:Apna.Border_router.max_burst);
        frames_per_op = 1;
        churn = false;
      }
  | Spec.Churn { payload } ->
      let ch = World.setup_churn ~seed ~payload in
      {
        world = ch.cw;
        probe = (fun instr total -> World.run_churn ch instr ~concurrency:1 ~total);
        load = (fun instr total -> World.run_churn ch instr ~concurrency:wl.concurrency ~total);
        live = (fun () -> World.live_churn ch ~n:Apna.Border_router.max_burst);
        frames_per_op = World.frames_per_flow;
        churn = true;
      }

let rounds = 10

(* Returns (metrics as (name, value) in print order, attempted, failed). *)
let run_workload (wl : Spec.workload) ~seed ~seconds ~trace =
  let per_round n =
    max 2 (int_of_float (Float.round (float_of_int n *. seconds /. Spec.reference_seconds
                                      /. float_of_int rounds)))
  in
  let probe_ops = per_round wl.probe and load_ops = per_round wl.load in
  (* Set-up, warm-up included, three times over for setup_s (a traced run
     does not report it and sets up once); the last world is used. Each
     starts from a compacted heap, so no set-up and no measured phase pays
     for collecting the worlds thrown away before it. *)
  let setup_s = ref [] and d = ref None in
  for _ = 1 to if trace then 1 else 3 do
    d := None;
    Gc.compact ();
    let t0 = World.now_ns () in
    d := Some (setup wl ~seed);
    setup_s := (World.ns_since t0 /. 1e9) :: !setup_s
  done;
  let d = Option.get !d in
  let w = d.world in
  Gc.compact ();
  let tail = if d.churn then 0.90 else 0.99 in
  let probe instr =
    let lat = sorted (World.latencies (d.probe instr probe_ops)) in
    (percentile lat 0.5, percentile lat tail)
  in
  (* Probe and load alternate over equal-work rounds, so a burst of noise
     from neighbouring tenants lands on a few rounds of both instead of on
     all of one; latencies are medians over rounds. Throughput is the median
     over sub-chunks of each load round: up to 32 per round, each of at
     least 4 x concurrency completions (so completions are regular within
     it) and spanning several minor collections (so GC cost stays in).
     Stalls, when the VM loses the CPU to a neighbour for a few ms, then
     land in a minority of sub-chunks. *)
  let sub = min load_ops (max (load_ops / 32) (4 * wl.concurrency)) in
  let load_counts = ref None in
  let measured =
    List.init rounds (fun _ ->
        let p50, tl = probe World.plain in
        let before = World.counters w in
        let rates = World.rates (d.load World.plain load_ops) ~sub in
        let delta = World.delta before (World.counters w) in
        load_counts := Some (Option.fold ~none:delta ~some:(World.add delta) !load_counts);
        (p50, tl, rates))
  in
  World.check_quiescent w ~churn:d.churn;
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let median_of f = median (List.map f measured) in
  let p50 = median_of (fun (p, _, _) -> p) in
  let e2e =
    [
      ("setup_s", median !setup_s);
      ("ops_per_s", median (List.concat_map (fun (_, _, r) -> r) measured));
      ("op_us_p50", p50);
      ("op_us_tail", median_of (fun (_, t, _) -> t));
      ("heap_peak_mb", heap_mb);
    ]
  in
  let attempted = rounds * (probe_ops + load_ops) in
  if not trace then (e2e, attempted, w.failures)
  else begin
    let c = Option.get !load_counts in
    let count k = List.assoc k c in
    let load_total = float_of_int (rounds * load_ops) in
    let per_op k = count k /. load_total in
    let lookups = count "hits" +. count "misses" +. count "invalidations" in
    let hosts f = float_of_int (f w.client + f w.server) in
    let counts =
      [
        ("border_router.cache_hit_ratio", count "hits" /. Float.max 1.0 lookups);
        ("border_router.cache_hits", count "hits");
        ("border_router.cache_misses", count "misses");
        ("border_router.cache_invalidations", count "invalidations");
        ("border_router.drops", float_of_int (World.drops w));
        ("revocation.generation_per_op", per_op "generation");
        ("management.issued_per_op", per_op "issued");
        ("host.packets_per_op", per_op "packets");
        ("engine.steps_per_op", per_op "steps");
        ("gc.minor_words_per_op", per_op "minor_words");
        ("gc.promoted_words_per_op", per_op "promoted_words");
        ("gc.major_collections_per_1k_ops", 1e3 *. per_op "major_collections");
        ("host.rpc_retries", hosts Apna.Host.rpc_retries);
        ("host.rpc_timeouts", hosts Apna.Host.rpc_timeouts);
      ]
    in
    (* Traced rounds, each followed by a round of replays on a live
       session's captured packets. Every span, every replayed cost and the
       residual is the median over rounds. *)
    let replay_round, replay_failures = Ledger.replay w (d.live ()) in
    let tracer = Ledger.tracer w in
    let traced =
      List.init rounds (fun _ ->
          let before = Array.copy tracer.self_ns and steps0 = w.steps in
          let p50, _ = probe tracer.instr in
          let per_op x = x /. float_of_int probe_ops in
          let spans = Array.mapi (fun i v -> per_op ((v -. before.(i)) /. 1e3)) tracer.self_ns in
          let costs = replay_round () in
          let whole_us = Array.fold_left ( +. ) 0.0 spans in
          let parts_us =
            ((Ledger.frame_parts_ns costs *. float_of_int d.frames_per_op)
            +. (List.assoc "engine.step.ns" costs *. per_op (float_of_int (w.steps - steps0))))
            /. 1e3
          in
          (p50, spans, costs, (whole_us -. parts_us) /. whole_us))
    in
    Ledger.stop w;
    let n = float_of_int (rounds * probe_ops) in
    let round_median f = median (List.map f traced) in
    let spans =
      Array.to_list
        (Array.mapi
           (fun i name -> (name, round_median (fun (_, s, _, _) -> s.(i))))
           Ledger.span_names)
    in
    let costs =
      let _, _, first, _ = List.hd traced in
      List.map (fun (name, _) -> (name, round_median (fun (_, _, c, _) -> List.assoc name c))) first
    in
    let residual = round_median (fun (_, _, _, r) -> r) in
    let gated = match wl.kind with Spec.Stream { observed; _ } -> not observed | _ -> false in
    let residual_failure = if gated && Float.abs residual > 0.20 then 1 else 0 in
    if residual_failure > 0 then
      Printf.eprintf "%s: ledger residual %.1f%% is outside +-20%%\n" wl.name (100. *. residual);
    let per_layer =
      spans @ costs @ counts
      @ [
          ("network.transits_per_op", float_of_int !(tracer.transits) /. n);
          ("ledger.residual_frac", residual);
          ("trace.overhead_frac", (round_median (fun (p, _, _, _) -> p) /. p50) -. 1.0);
        ]
    in
    ( e2e @ per_layer,
      attempted + (rounds * probe_ops),
      w.failures + replay_failures () + residual_failure )
  end

let unit_of name = (Option.get (Spec.find_metric name)).unit_

let print_workload (wl : Spec.workload) ~trace =
  let metrics, attempted, failed =
    run_workload wl ~seed:!Args.seed ~seconds:!Args.seconds ~trace
  in
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %s %s\n" wl.name name (fmt_float v) (unit_of name))
    metrics;
  Printf.printf "%s failed_frac %s 1\n" wl.name
    (fmt_float (float_of_int failed /. float_of_int attempted));
  let reported = if trace then Spec.per_layer else Spec.end_to_end in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m : Spec.metric) ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.Float (List.assoc m.name metrics));
                       ("unit", Json.Str m.unit_);
                     ] ))
               reported) );
      ]
  in
  print_endline (Json.to_string json);
  if failed = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process. *)

type child = {
  cname : string;
  values : (string * float) list;
  attempted : int;
  failed : int;
  ok : bool;
}

let run_child (wl : Spec.workload) ~seconds ~trace ~echo =
  let args =
    [|
      Sys.executable_name; "--workload"; wl.name; "--seed"; string_of_int !Args.seed;
      "--seconds"; fmt_float seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let values = ref [] and last = ref "" in
  (try
     while true do
       let line = input_line ic in
       last := line;
       match String.split_on_char ' ' line with
       | [ w; name; v; _unit ] when w = wl.name -> (
           if echo then print_endline line;
           match float_of_string_opt v with
           | Some v -> values := (name, v) :: !values
           | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let field k conv = Option.bind (Json.parse !last |> Result.to_option) (Json.member k) |> Option.map conv in
  let int_of = function Json.Int i -> i | _ -> -1 in
  let attempted = Option.value ~default:0 (field "attempted" int_of) in
  let failed = Option.value ~default:(-1) (field "failed" int_of) in
  {
    cname = wl.name;
    values = List.rev !values;
    attempted;
    failed;
    ok = status = Unix.WEXITED 0 && failed = 0;
  }

let results_json ~seconds ~trace children =
  Json.Obj
    [
      ("seed", Json.Int !Args.seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "workloads",
        Json.Obj
          (List.map
             (fun c ->
               ( c.cname,
                 Json.Obj
                   [
                     ("attempted", Json.Int c.attempted);
                     ("failed", Json.Int c.failed);
                     ( "metrics",
                       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) c.values) );
                   ] ))
             children) );
    ]

(* A smoke run only reports each workload's verdict; a full run echoes every
   metric and writes perf_results.json. *)
let run_all ~seconds ~trace ~smoke =
  let children = List.map (fun wl -> run_child wl ~seconds ~trace ~echo:(not smoke)) Spec.workloads in
  if smoke then
    List.iter (fun c -> Printf.printf "smoke %s: %d ops, %d failed\n" c.cname c.attempted c.failed) children
  else begin
    let oc = open_out "perf_results.json" in
    output_string oc (Json.to_string ~pretty:true (results_json ~seconds ~trace children));
    output_char oc '\n';
    close_out oc
  end;
  let bad = List.filter (fun c -> not c.ok) children in
  List.iter (fun c -> Printf.printf "FAILED: %s (%d of %d ops failed)\n" c.cname c.failed c.attempted) bad;
  if bad = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* --compare: each side is one results file or a comma-separated list of
   them, reduced to per-metric medians. *)

let load_side spec =
  List.map
    (fun file ->
      let ic = open_in_bin file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse text with
      | Ok j -> j
      | Error e -> failwith (Printf.sprintf "%s: %s" file e))
    (String.split_on_char ',' spec)

let side_value docs ~workload ~metric =
  let get doc =
    let ( let* ) = Option.bind in
    let* ws = Json.member "workloads" doc in
    let* w = Json.member workload ws in
    if metric = "failed_frac" then
      let* a = Option.bind (Json.member "attempted" w) Json.number in
      let* f = Option.bind (Json.member "failed" w) Json.number in
      Some (f /. a)
    else
      let* ms = Json.member "metrics" w in
      Option.bind (Json.member metric ms) Json.number
  in
  match List.filter_map get docs with [] -> None | vs -> Some (median vs)

let compare a b =
  let a = load_side a and b = load_side b in
  let regressions = ref 0 in
  Printf.printf "%-18s %-14s %14s %14s %9s %7s\n" "workload" "metric" "A" "B" "worse" "bound";
  List.iter
    (fun (wl : Spec.workload) ->
      (* [worse va vb]: how much worse B is than A, in the bound's terms. *)
      let row metric ~worse ~bound =
        match (side_value a ~workload:wl.name ~metric, side_value b ~workload:wl.name ~metric) with
        | Some va, Some vb ->
            let worse = worse va vb in
            let bad = worse > bound in
            if bad then incr regressions;
            Printf.printf "%-18s %-14s %14.6g %14.6g %8.2f%% %6.1f%% %s\n" wl.name metric va vb
              (100. *. worse) (100. *. bound) (if bad then "REGRESSED" else "ok")
        | _ ->
            incr regressions;
            Printf.printf "%-18s %-14s missing\n" wl.name metric
      in
      List.iter
        (fun (m : Spec.metric) ->
          let worse va vb =
            match m.better with Spec.Lower -> (vb -. va) /. va | Spec.Higher -> (va -. vb) /. va
          in
          row m.name ~worse ~bound:m.bound)
        Spec.end_to_end;
      row "failed_frac" ~worse:(fun va vb -> vb -. va) ~bound:0.0)
    Spec.workloads;
  if !regressions = 0 then 0 else 1

let () =
  Args.parse ();
  let code =
    match !Args.compare with
    | Some (a, b) -> compare a b
    | None when !Args.smoke ->
        run_all ~seconds:(Spec.reference_seconds *. 0.01) ~trace:true ~smoke:true
    | None -> (
        match !Args.workload with
        | None -> run_all ~seconds:!Args.seconds ~trace:!Args.trace ~smoke:false
        | Some name -> (
            match Spec.find name with
            | Some wl -> print_workload wl ~trace:!Args.trace
            | None ->
                Printf.eprintf "unknown workload %S (known: %s)\n" name
                  (String.concat ", " (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads));
                2))
  in
  exit code
