(* A/B runner for the BENCHMARK.json benchmark: alternating runs of a base
   revision and the working tree on one workload, summarised per end-to-end
   metric with the pair-win rule of a claimed gain.

     ab.exe --base REV --workload W [-n N] [--seed S] [--seconds S]

   The base revision is exported with `git archive` into a fresh directory
   under the temp dir (TMPDIR, default /tmp) and runs its own perf/run.sh;
   the working tree runs its own. Pair i runs base first when i is odd and
   the working tree first when it is even. Each run's last stdout line is
   the benchmark's JSON result. For every metric BENCHMARK.json lists as
   end-to-end, it prints each side's median and quartiles, how many pairs
   the working tree won (ties count for neither side) and the verdict:
   "resolved" only when the working tree wins at least 9/10 of the pairs and
   the medians differ by more than the base's interquartile range,
   "unresolved" otherwise. *)

module J = Apna_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ab: " ^ s); exit 2) fmt

let usage () =
  die "usage: ab.exe --base REV --workload W [-n N] [--seed S] [--seconds S]"

(* Run [prog args], returning its stdout; a non-zero exit is fatal unless
   [~any_exit] (the benchmark exits 1 when some operation failed, and its
   result line still counts). *)
let run_out ?(any_exit = false) prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | Unix.WEXITED _ when any_exit -> out
  | _ -> die "%s %s failed" prog (String.concat " " args)

let sh cmd = if Sys.command cmd <> 0 then die "command failed: %s" cmd

(* ---- statistics ---- *)

(* Quantile by linear interpolation between the closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* ---- one run ---- *)

type run = { values : (string * float) list; attempted : float; failed : float }

let run_side ~root ~workload ~extra =
  let out =
    run_out ~any_exit:true "bash"
      ([ Filename.concat root "perf/run.sh"; "--workload"; workload; "--trace"; "0" ]
      @ extra)
  in
  let last =
    match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> die "%s: no output" root
  in
  let doc = match J.parse last with Ok d -> d | Error e -> die "%s: result line: %s" root e in
  let num k d = Option.bind (J.member k d) J.number in
  let metrics = match J.member "metrics" doc with Some (J.Obj m) -> m | _ -> [] in
  {
    values =
      List.filter_map
        (fun (name, v) -> Option.map (fun x -> (name, x)) (num "value" v))
        metrics;
    attempted = Option.value ~default:nan (num "attempted" doc);
    failed = Option.value ~default:nan (num "failed" doc);
  }

(* ---- main ---- *)

type metric = { name : string; lower_better : bool }

let end_to_end root =
  let file = Filename.concat root "BENCHMARK.json" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  match J.parse text with
  | Error e -> die "%s: %s" file e
  | Ok doc -> (
      match J.member "end_to_end" doc with
      | Some (J.List ms) ->
          List.filter_map
            (fun m ->
              match (J.member "name" m, J.member "better" m) with
              | Some (J.Str name), Some (J.Str better) ->
                  Some { name; lower_better = better = "lower" }
              | _ -> None)
            ms
      | _ -> die "%s: no end_to_end list" file)

let () =
  let base = ref None and workload = ref None and n = ref 10 and extra = ref [] in
  let rec go = function
    | [] -> ()
    | "--base" :: v :: rest -> base := Some v; go rest
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "-n" :: v :: rest ->
        (match int_of_string_opt v with Some k when k > 0 -> n := k | _ -> usage ());
        go rest
    | ("--seed" | "--seconds") as flag :: v :: rest ->
        extra := !extra @ [ flag; v ];
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let base, workload =
    match (!base, !workload) with Some b, Some w -> (b, w) | _ -> usage ()
  in
  let head_root = String.trim (run_out "git" [ "rev-parse"; "--show-toplevel" ]) in
  let rev = String.trim (run_out "git" [ "rev-parse"; "--short"; base ^ "^{commit}" ]) in
  let base_root =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "apna-ab-%s" rev)
  in
  let q = Filename.quote in
  sh (Printf.sprintf "rm -rf %s && mkdir -p %s" (q base_root) (q base_root));
  sh
    (Printf.sprintf "git -C %s archive %s | tar -x -C %s" (q head_root) (q rev)
       (q base_root));
  let metrics = end_to_end head_root in
  Printf.printf "A/B %s: base %s (%s) vs working tree (%s), %d pairs\n%!" workload rev
    base_root head_root !n;
  let get m r = Option.value ~default:nan (List.assoc_opt m r.values) in
  let pairs =
    List.init !n (fun i ->
        let side root = run_side ~root ~workload ~extra:!extra in
        let b, h =
          if i mod 2 = 0 then
            let b = side base_root in
            (b, side head_root)
          else
            let h = side head_root in
            (side base_root, h)
        in
        let show r =
          String.concat " "
            (List.map (fun m -> Printf.sprintf "%s=%g" m.name (get m.name r)) metrics)
        in
        Printf.printf "pair %2d (%s first)\n  base: %s\n  head: %s\n%!" (i + 1)
          (if i mod 2 = 0 then "base" else "head")
          (show b) (show h);
        (b, h))
  in
  Printf.printf "\n%-14s %34s %34s %7s %6s  %s\n" "metric" "base median [q1, q3]"
    "head median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun m ->
      let bs = List.map (fun (b, _) -> get m.name b) pairs
      and hs = List.map (fun (_, h) -> get m.name h) pairs in
      let better h b = if m.lower_better then h < b else h > b in
      let wins = List.length (List.filter (fun (b, h) -> better h b) (List.combine bs hs)) in
      let bm = quantile bs 0.5 and hm = quantile hs 0.5 in
      let iqr = quantile bs 0.75 -. quantile bs 0.25 in
      let resolved =
        10 * wins >= 9 * List.length pairs && better hm bm && Float.abs (hm -. bm) > iqr
      in
      let side xs =
        Printf.sprintf "%.4g [%.4g, %.4g]" (quantile xs 0.5) (quantile xs 0.25)
          (quantile xs 0.75)
      in
      Printf.printf "%-14s %34s %34s %+6.1f%% %3d/%-2d  %s\n" m.name (side bs) (side hs)
        (100.0 *. (hm -. bm) /. bm) wins (List.length pairs)
        (if resolved then "resolved" else "unresolved"))
    metrics;
  let failed side =
    List.fold_left (fun acc p -> acc +. (side p).failed) 0.0 pairs
    /. List.fold_left (fun acc p -> acc +. (side p).attempted) 0.0 pairs
  in
  Printf.printf "%-14s %34g %34g\n" "failed_frac" (failed fst) (failed snd)
