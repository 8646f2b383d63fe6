(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) plus the ablations indexed in DESIGN.md. Each
   experiment lives in its own bench/eN.ml module; this file is the
   registry and the command line.

   Absolute numbers are not expected to match the paper (pure OCaml vs
   AES-NI + DPDK); the shapes are. See EXPERIMENTS.md.

   Every run writes one result document, BENCH_results.json (schema
   apna-bench/2, described in docs/OBSERVABILITY.md): each experiment's
   section and gates, plus a dump of the default metrics registry. The
   process exits 1 if any gate fails, and 2 on a usage error.

     dune exec bench/main.exe                  every experiment, full tier
     dune exec bench/main.exe -- --quick       every experiment, quick tier
     dune exec bench/main.exe -- E2 E17        a subset (either tier) *)

open Harness

let experiments =
  [
    E1.experiment;
    E2.experiment;
    E3.experiment;
    E4.experiment;
    E5.experiment;
    E6.experiment;
    E7.experiment;
    E8.experiment;
    E9.experiment;
    E10.experiment;
    E11.experiment;
    E12.experiment;
    E13.experiment;
    E14.experiment;
    E15.experiment;
    E16.experiment;
    E17.experiment;
    E18.experiment;
  ]

let usage_error msg =
  Printf.eprintf "%s\nusage: main.exe [--quick] [ID...]   (IDs: %s)\n" msg
    (String.concat " " (List.map (fun e -> e.id) experiments));
  exit 2

(* Runs one experiment; an exception inside it fails the run through a
   "completed" gate rather than losing the other experiments' results. *)
let run_one tier e =
  line "";
  line "================================================================";
  line "%s  %s" e.id e.title;
  line "    paper reference: %s" e.paper_ref;
  line "================================================================";
  let t0 = Monotonic_clock.now () in
  let section, gates =
    try e.run tier
    with exn ->
      line "%s aborted: %s" e.id (Printexc.to_string exn);
      (J.Null, [ holds "completed" false ])
  in
  if gates <> [] then line "";
  List.iter print_gate gates;
  ( e.id,
    J.Obj
      [
        ("title", J.Str e.title);
        ("paper_ref", J.Str e.paper_ref);
        ("wall_s", J.Float (Fixtures.ns_since t0 /. 1e9));
        ("gates", J.List (List.map gate_json gates));
        ("results", section);
      ],
    List.filter_map (fun g -> if g.ok then None else Some (e.id ^ "." ^ g.name)) gates )

let json_path = "BENCH_results.json"

(* Writes the document and parses the file back as a self-check. *)
let write_json doc =
  let oc = open_out json_path in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  let ic = open_in_bin json_path in
  let read_back = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match J.parse read_back with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "%s does not parse: %s" json_path e));
  line "";
  line "wrote %s (%d bytes, parse-checked)" json_path (String.length read_back)

let () =
  Logs.set_level (Some Logs.Error);
  let args = List.tl (Array.to_list Sys.argv) in
  let tier = if List.mem "--quick" args then Quick else Full in
  let ids = List.filter (fun a -> a <> "--quick") args in
  let selected =
    match ids with
    | [] -> experiments
    | _ ->
        List.map
          (fun id ->
            match List.find_opt (fun e -> e.id = id) experiments with
            | Some e -> e
            | None -> usage_error ("unknown experiment or option: " ^ id))
          ids
  in
  line "APNA benchmark harness (%s tier; one section per paper table/figure)"
    (tier_label tier);
  let results = List.map (run_one tier) selected in
  let failed = List.concat_map (fun (_, _, f) -> f) results in
  write_json
    (J.Obj
       [
         ("schema", J.Str "apna-bench/2");
         ("tier", J.Str (tier_label tier));
         ("ok", J.Bool (failed = []));
         ("experiments", J.Obj (List.map (fun (id, j, _) -> (id, j)) results));
         ("metrics", Apna_obs.Metrics.to_json Apna_obs.Metrics.default);
       ]);
  if failed <> [] then begin
    line "bench gates FAILED: %s" (String.concat ", " failed);
    exit 1
  end
