(* The bench harness vocabulary: tiers, gates, the compiled-in baseline and
   the experiment record that main.ml's registry lists. *)

module J = Apna_obs.Json

let line fmt = Printf.printf (fmt ^^ "\n%!")

type tier = Quick | Full

let tier_label = function Quick -> "quick" | Full -> "full"
let by_tier tier ~quick ~full = match tier with Quick -> quick | Full -> full

(* Timing-loop iteration counts: a twentieth at the quick tier, never
   fewer than 20. *)
let iters tier n = by_tier tier ~quick:(max 20 (n / 20)) ~full:n

(* ------------------------------------------------------------------ *)
(* Gates *)

type bound = At_most of float | At_least of float
type gate = { name : string; measured : float; bound : bound; ok : bool }

let cmp_limit = function At_most l -> ("<=", l) | At_least l -> (">=", l)

(* The one gate function. A nan measurement fails. *)
let gate name measured bound =
  let ok = match bound with At_most l -> measured <= l | At_least l -> measured >= l in
  { name; measured; bound; ok }

(* A yes/no invariant as a gate: measured 1 when it holds. *)
let holds name cond = gate name (if cond then 1.0 else 0.0) (At_least 1.0)

let print_gate g =
  let num x =
    if Float.is_integer x || Float.abs x >= 1e4 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.4g" x
  in
  let cmp, limit = cmp_limit g.bound in
  line "  %s %s: %s %s %s"
    (if g.ok then "gate ok:" else "GATE FAIL:")
    g.name (num g.measured) cmp (num limit)

let gate_json g =
  let cmp, limit = cmp_limit g.bound in
  J.Obj
    [
      ("name", J.Str g.name);
      ("measured", J.Float g.measured);
      ("cmp", J.Str cmp);
      ("limit", J.Float limit);
      ("ok", J.Bool g.ok);
    ]

(* ------------------------------------------------------------------ *)
(* Baseline: bench/baseline.json, compiled in by the dune rule that
   generates Baseline_json, so verdicts do not depend on the working
   directory. Keyed experiment -> tier -> metric; every value is the
   ceiling its gate enforces. *)

let baseline_doc =
  match J.parse Baseline_json.text with
  | Ok doc -> doc
  | Error e -> failwith ("bench/baseline.json does not parse: " ^ e)

(* A missing experiment, tier or metric is an error, never a skipped
   gate. *)
let baseline ~id tier metric =
  let path = Printf.sprintf "%s.%s.%s" id (tier_label tier) metric in
  let get k doc =
    match J.member k doc with
    | Some v -> v
    | None -> failwith ("bench/baseline.json has no " ^ path)
  in
  match J.number (baseline_doc |> get id |> get (tier_label tier) |> get metric) with
  | Some x -> x
  | None -> failwith ("bench/baseline.json: " ^ path ^ " is not a number")

(* ------------------------------------------------------------------ *)
(* Registry entries *)

type experiment = {
  id : string;
  title : string;
  paper_ref : string;
  run : tier -> J.t * gate list;
      (** The experiment's section of BENCH_results.json and its gates. *)
}
