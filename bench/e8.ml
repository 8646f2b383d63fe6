(* E8: replay window (§VIII-D). *)

open Apna
open Harness

let run tier =
  let wrng = Apna_sim.Rng.create 99L in
  let stream = iters tier 20_000 and jitter = 24 in
  line "";
  line "%-8s | %14s %16s" "window" "legit dropped" "replays accepted";
  line "%s" (String.make 44 '-');
  let rows =
    List.map
      (fun size ->
        let w = Replay_window.create ~size () in
        (* Reordered delivery: each packet is delayed by a uniform jitter and
           the stream re-sorted by arrival time, which bounds displacement by
           the jitter horizon. A replayed duplicate is injected every 10
           packets. *)
        let keyed = Array.init stream (fun i -> (i + Apna_sim.Rng.int wrng jitter, i)) in
        Array.sort compare keyed;
        let legit_dropped = ref 0 and replay_accepted = ref 0 in
        Array.iteri
          (fun i (_, s) ->
            if not (Replay_window.check_and_update w (Int64.of_int s)) then
              incr legit_dropped;
            if i mod 10 = 0 && Replay_window.check_and_update w (Int64.of_int s) then
              incr replay_accepted)
          keyed;
        let dropped_pct = float_of_int !legit_dropped /. float_of_int stream *. 100.0 in
        line "%-8d | %13.2f%% %16d" size dropped_pct !replay_accepted;
        ( J.Obj
            [
              ("window", J.Int size);
              ("legit_dropped_pct", J.Float dropped_pct);
              ("replays_accepted", J.Int !replay_accepted);
            ],
          !replay_accepted ))
      [ 1; 8; 32; 64; 256 ]
  in
  line "";
  line "shape check: duplicates are never accepted at any window size; a";
  line "window >= the reordering horizon (%d here) also never drops legit" jitter;
  line "traffic — the paper's nonce-based dedup with bounded state.";
  ( J.Obj [ ("stream", J.Int stream); ("windows", J.List (List.map fst rows)) ],
    [
      gate "replays_accepted"
        (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 rows))
        (At_most 0.0);
    ] )

let experiment =
  { id = "E8"; title = "REPLAY-WINDOW"; paper_ref = "§VIII-D (handling replay attacks)"; run }
