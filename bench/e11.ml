(* E11: in-network replay filter (§VIII-D future work). *)

open Harness
open Fixtures
module Rf = Apna.Replay_filter

let run tier =
  line "";
  line "%-12s | %12s | %12s %14s" "bits/gen" "memory" "ns/packet" "fp at 100k";
  line "%s" (String.make 58 '-');
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
        (* FP probe on a filter loaded with 100k entries. *)
        let f2 = Rf.create ~bits_log2 ~rotate_every_s:1e9 () in
        for j = 0 to 99_999 do
          ignore (Rf.check_and_insert f2 ~now:0.0 ("l" ^ string_of_int j))
        done;
        let fp = ref 0 and probes = 10_000 in
        for j = 0 to probes - 1 do
          if Rf.check_and_insert f2 ~now:0.0 ("p" ^ string_of_int j) = Rf.Replayed then incr fp
        done;
        let fp_pct = float_of_int !fp /. float_of_int probes *. 100.0 in
        line "%-12d | %9d KiB | %12.0f %13.2f%%" (1 lsl bits_log2)
          (Rf.memory_bytes f / 1024) check_ns fp_pct;
        J.Obj
          [
            ("bits_per_generation", J.Int (1 lsl bits_log2));
            ("memory_bytes", J.Int (Rf.memory_bytes f));
            ("ns_per_packet", J.Float check_ns);
            ("false_positive_pct_at_100k", J.Float fp_pct);
          ])
      [ 18; 20; 22; 24 ]
  in
  line "";
  line "a few hundred ns of constant-time work per packet buys in-network";
  line "replay suppression; sizing the filter for packets-per-rotation";
  line "keeps the false-positive rate negligible — the practicality question";
  line "the paper leaves as future work.";
  (J.List rows, [])

let experiment =
  {
    id = "E11";
    title = "REPLAY-FILTER";
    paper_ref = "§VIII-D (in-network replay detection)";
    run;
  }
