(* E11: in-network replay filter (§VIII-D future work). *)

open Harness
open Fixtures
module Rf = Apna.Replay_filter

let load = 100_000
let probes = 10_000

let run tier =
  line "";
  line "%-12s | %12s | %12s %14s %14s" "bits/gen" "memory" "ns/packet" "fp at 100k"
    "analytic";
  line "%s" (String.make 73 '-');
  let rows =
    List.map
      (fun bits_log2 ->
        let f = Rf.create ~bits_log2 ~rotate_every_s:1e9 () in
        let i = ref 0 in
        let check_ns =
          time_per_op ~iters:(iters tier 200_000) (fun () ->
              incr i;
              ignore (Rf.check_and_insert f ~now:0.0 (string_of_int !i)))
          *. 1e9
        in
        (* FP probe on a filter loaded with 100k entries; every loaded key,
           checked again, must read Replayed. *)
        let f2 = Rf.create ~bits_log2 ~rotate_every_s:1e9 () in
        let loaded = List.init load (fun j -> "l" ^ string_of_int j) in
        List.iter (fun k -> ignore (Rf.check_and_insert f2 ~now:0.0 k)) loaded;
        let false_negatives =
          List.length
            (List.filter (fun k -> Rf.check_and_insert f2 ~now:0.0 k = Rf.Fresh) loaded)
        in
        let fp = ref 0 in
        for j = 0 to probes - 1 do
          if Rf.check_and_insert f2 ~now:0.0 ("p" ^ string_of_int j) = Rf.Replayed then incr fp
        done;
        let fp_rate = float_of_int !fp /. float_of_int probes in
        let fp_pct = fp_rate *. 100.0 in
        (* The analytic Bloom rate (1 - e^{-kn/m})^k for the default k = 4
           hashes, with 25% slack plus 3 binomial sigmas over the probes. *)
        let k = 4.0 in
        let analytic =
          (1.0 -. exp (-.k *. float_of_int load /. float_of_int (1 lsl bits_log2))) ** k
        in
        let bound =
          (1.25 *. analytic)
          +. (3.0 *. sqrt (analytic *. (1.0 -. analytic) /. float_of_int probes))
        in
        line "%-12d | %9d KiB | %12.0f %13.2f%% %13.4f%%" (1 lsl bits_log2)
          (Rf.memory_bytes f / 1024) check_ns fp_pct (analytic *. 100.0);
        ( J.Obj
            [
              ("bits_per_generation", J.Int (1 lsl bits_log2));
              ("memory_bytes", J.Int (Rf.memory_bytes f));
              ("ns_per_packet", J.Float check_ns);
              ("false_positive_pct_at_100k", J.Float fp_pct);
              ("analytic_fp_pct_at_100k", J.Float (analytic *. 100.0));
              ("false_negatives", J.Int false_negatives);
            ],
          (false_negatives, fp_rate <= bound) ))
      [ 18; 20; 22; 24 ]
  in
  line "";
  line "a few hundred ns of constant-time work per packet buys in-network";
  line "replay suppression; sizing the filter for packets-per-rotation";
  line "keeps the false-positive rate negligible — the practicality question";
  line "the paper leaves as future work.";
  ( J.List (List.map fst rows),
    [
      holds "false_negatives_eq_0"
        (List.for_all (fun (_, (fn, _)) -> fn = 0) rows);
      holds "fp_within_bloom_bound" (List.for_all (fun (_, (_, ok)) -> ok) rows);
    ] )

let experiment =
  {
    id = "E11";
    title = "REPLAY-FILTER";
    paper_ref = "§VIII-D (in-network replay detection)";
    run;
  }
