(* E6: revocation list scaling (§VIII-G2). The quick tier stops the sweep
   at 100k entries. *)

open Apna
open Harness
open Fixtures

let run tier =
  let keys = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64500) in
  let ephid ~hid ~expiry =
    Ephid.issue_random keys rng ~hid:(Apna_net.Addr.hid_of_int hid) ~expiry
  in
  line "";
  line "%-10s | %14s %14s | %12s" "entries" "hit ns" "miss ns" "gc removes/s";
  line "%s" (String.make 58 '-');
  let rows =
    List.map
      (fun n ->
        let rev = Revocation.create () in
        let samples = Array.init 256 (fun i -> ephid ~hid:(i + 1) ~expiry:(now0 + 60)) in
        for i = 1 to n do
          Revocation.revoke rev
            (ephid ~hid:(i land 0xffffff) ~expiry:(now0 + 60))
            ~expiry:(now0 + 60)
        done;
        Array.iter (fun e -> Revocation.revoke rev e ~expiry:(now0 + 60)) samples;
        let i = ref 0 in
        let hit_ns =
          time_per_op ~iters:(iters tier 200_000) (fun () ->
              incr i;
              ignore (Revocation.is_revoked rev samples.(!i land 255)))
          *. 1e9
        in
        let miss = ephid ~hid:99 ~expiry:now0 in
        let miss_ns =
          time_per_op ~iters:(iters tier 200_000) (fun () ->
              ignore (Revocation.is_revoked rev miss))
          *. 1e9
        in
        (* All entries expire at now0+60: GC at now0+61 empties the list. *)
        let t0 = Sys.time () in
        let removed = Revocation.gc rev ~now:(now0 + 61) in
        let gc_rate = float_of_int removed /. Float.max 1e-9 (Sys.time () -. t0) in
        line "%-10d | %14.0f %14.0f | %12.2e" n hit_ns miss_ns gc_rate;
        J.Obj
          [
            ("entries", J.Int n);
            ("hit_ns", J.Float hit_ns);
            ("miss_ns", J.Float miss_ns);
            ("gc_removes_per_s", J.Float gc_rate);
          ])
      (by_tier tier ~quick:[ 1_000; 10_000; 100_000 ]
         ~full:[ 1_000; 10_000; 100_000; 1_000_000 ])
  in
  line "";
  line "shape check: O(1) lookups regardless of list size; expiry-driven GC";
  line "keeps the list bounded, as §VIII-G2 prescribes.";
  (J.List rows, [])

let experiment =
  {
    id = "E6";
    title = "REVOCATION-SCALING";
    paper_ref = "§VIII-G2 (managing revoked EphIDs)";
    run;
  }
