(* E10: path-proof shutoff strengthening (§VIII-C). *)

open Apna
open Harness
open Fixtures

let run tier =
  let fx = make_br_fixture () in
  let pkt = make_packet fx ~frame:512 in
  line "";
  line "%-12s | %14s %14s %14s | %16s" "path length" "cold ns/pkt"
    "cached ns/pkt" "bytes/pkt" "verify-claim ns";
  line "%s" (String.make 80 '-');
  let rows =
    List.map
      (fun hops ->
        let path =
          List.init hops (fun i ->
              let k = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int (64501 + i)) in
              (k.aid, k.dh_public))
        in
        let attest_ns =
          time_per_op ~iters:(iters tier 200) (fun () ->
              ignore (ok_or_fail (Path_proof.attest ~src_keys:fx.keys ~path pkt)))
          *. 1e9
        in
        (* Steady state: AS-pair keys derived once, cached by the router. *)
        let cached_keys =
          List.map
            (fun (aid, dh_pub) ->
              (aid, ok_or_fail (Path_proof.pairwise_key fx.keys ~peer_dh_pub:dh_pub)))
            path
        in
        let cached_ns =
          time_per_op ~iters:(iters tier 10_000) (fun () ->
              ignore (Path_proof.attest_cached ~keys:cached_keys pkt))
          *. 1e9
        in
        let attestations = ok_or_fail (Path_proof.attest ~src_keys:fx.keys ~path pkt) in
        let bytes = String.length (Path_proof.to_bytes attestations) in
        let claimant_aid, claimant_pub = List.hd path in
        let attestation = List.hd attestations in
        let verify_ns =
          time_per_op ~iters:(iters tier 5_000) (fun () ->
              ok_or_fail
                (Path_proof.verify_claim ~src_keys:fx.keys ~claimant:claimant_aid
                   ~claimant_dh_pub:claimant_pub ~attestation pkt))
          *. 1e9
        in
        line "%-12d | %14.0f %14.0f %14d | %16.0f" hops attest_ns cached_ns bytes
          verify_ns;
        J.Obj
          [
            ("hops", J.Int hops);
            ("cold_ns_per_pkt", J.Float attest_ns);
            ("cached_ns_per_pkt", J.Float cached_ns);
            ("bytes_per_pkt", J.Int bytes);
            ("verify_claim_ns", J.Float verify_ns);
          ])
      [ 1; 2; 4; 8 ]
  in
  line "";
  line "cost grows linearly with path length (one X25519+HKDF-derived";
  line "pairwise key and one MAC per on-path AS); AS-pair keys are cacheable,";
  line "making the steady-state per-packet cost one MAC per hop.";
  (J.List rows, [])

let experiment =
  {
    id = "E10";
    title = "PATH-PROOF";
    paper_ref = "§VIII-C (strengthening the shutoff protocol)";
    run;
  }
