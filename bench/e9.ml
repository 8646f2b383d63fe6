(* E9: APIP contrast (§IX). Counting, not timing: the sender briefs only
   its first 32 packets, so both tiers run the same flow. A packet is
   attributable only if the delegate can vouch for it (it was briefed);
   the count walks the whole flow through the delegate. *)

open Harness

let run _tier =
  let n_packets = 10_000 and whitelist_after = 32 in
  let module Apip = Apna_baseline.Apip_sketch in
  let delegate = Apip.create () in
  (* APIP: the sender briefs until the flow is whitelisted; after that a
     malicious sender can stop (the recursive-verification gap). *)
  for i = 1 to whitelist_after do
    Apip.brief delegate ~sender:1 ~packet:(string_of_int i)
  done;
  Apip.whitelist delegate ~flow:1;
  let apip_unattributable = ref 0 in
  for i = 1 to n_packets do
    if not (Apip.verify delegate ~packet:(string_of_int i)) then incr apip_unattributable
  done;
  let apip_unattributable = !apip_unattributable in
  let storage = Apip.brief_bytes delegate in
  line "";
  line "%-44s %14s %16s" "metric (flow of 10,000 packets)" "APIP" "APNA";
  line "%-44s %14s %16s" "in-packet accountability bytes" "0"
    (Printf.sprintf "%dB/pkt" Apna_net.Apna_header.mac_size);
  line "%-44s %14s %16s" "control messages to delegate/AS"
    (Printf.sprintf "%d briefs" whitelist_after)
    "0";
  line "%-44s %14s %16s" "delegate storage" (Printf.sprintf "%dB" storage) "0B (stateless)";
  line "%-44s %14d %16d" "packets unattributable if sender cheats"
    apip_unattributable 0;
  line "%-44s %14s %16s" "data privacy" "out of scope" "AEAD + PFS";
  line "";
  line "APNA's per-packet MAC keeps every packet attributable with no";
  line "delegate state — the gap the paper identifies in APIP (§IX).";
  ( J.Obj
      [
        ("packets", J.Int n_packets);
        ("apip_briefs", J.Int whitelist_after);
        ("apip_delegate_bytes", J.Int storage);
        ("apip_unattributable", J.Int apip_unattributable);
        ("apna_mac_bytes_per_pkt", J.Int Apna_net.Apna_header.mac_size);
      ],
    [
      holds "apip_unattributable_eq_9968" (apip_unattributable = 9968);
      gate "apip_delegate_bytes" (float_of_int storage) (At_least 1.0);
    ] )

let experiment =
  { id = "E9"; title = "APIP-COMPARISON"; paper_ref = "§IX (related work: APIP)"; run }
