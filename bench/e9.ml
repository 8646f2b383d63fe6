(* E9: APIP contrast (§IX). Counting, not timing: the sender briefs only
   its first 32 packets, so both tiers run the same flow. *)

open Harness

let run _tier =
  let n_packets = 10_000 and whitelist_after = 32 in
  let delegate = Apna_baseline.Apip_sketch.create () in
  (* APIP: the sender briefs until the flow is whitelisted; after that a
     malicious sender can stop (the recursive-verification gap). *)
  for i = 1 to whitelist_after do
    Apna_baseline.Apip_sketch.brief delegate ~sender:1 ~packet:(string_of_int i)
  done;
  Apna_baseline.Apip_sketch.whitelist delegate ~flow:1;
  let apip_unattributable = n_packets - whitelist_after in
  let storage = Apna_baseline.Apip_sketch.brief_bytes delegate in
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
    [] )

let experiment =
  { id = "E9"; title = "APIP-COMPARISON"; paper_ref = "§IX (related work: APIP)"; run }
