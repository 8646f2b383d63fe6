(* E10: path-proof shutoff strengthening (§VIII-C). *)

open Apna
open Harness
open Fixtures

(* The two refusals of §VIII-C on one path: an off-path AS gets nowhere
   with a stolen attestation, whether it claims it as it stands or
   relabelled with its own AID; and the on-path owner's genuine
   attestation, accepted for its packet, is refused for another. *)
let claims_refused ~src_keys ~path ~attestation pkt ~other =
  let off =
    Keys.make_as (Apna_crypto.Drbg.create ~seed:"e10-off-path")
      ~aid:(Apna_net.Addr.aid_of_int 64600)
  in
  let refused (claimant, claimant_dh_pub) attestation pkt =
    Result.is_error
      (Path_proof.verify_claim ~src_keys ~claimant ~claimant_dh_pub ~attestation pkt)
  in
  let owner = List.hd path and off_path = (off.aid, off.dh_public) in
  ( refused off_path attestation pkt
    && refused off_path { attestation with Path_proof.aid = off.aid } pkt,
    (not (refused owner attestation pkt)) && refused owner attestation other )

let run tier =
  let fx = make_br_fixture () in
  let pkt = make_packet fx ~frame:512 in
  let other = make_packet fx ~frame:256 in
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
        (* Per hop, the codec writes the attested AS's AID and the MAC. *)
        let per_hop =
          String.length (Apna_net.Addr.aid_to_bytes attestation.aid)
          + String.length attestation.mac
        in
        let off_path, replay =
          claims_refused ~src_keys:fx.keys ~path ~attestation pkt ~other
        in
        ( J.Obj
            [
              ("hops", J.Int hops);
              ("cold_ns_per_pkt", J.Float attest_ns);
              ("cached_ns_per_pkt", J.Float cached_ns);
              ("bytes_per_pkt", J.Int bytes);
              ("verify_claim_ns", J.Float verify_ns);
            ],
          (per_hop = 20 && bytes = 1 + (per_hop * hops), off_path, replay) ))
      [ 1; 2; 4; 8 ]
  in
  line "";
  line "cost grows linearly with path length (one X25519+HKDF-derived";
  line "pairwise key and one MAC per on-path AS); AS-pair keys are cacheable,";
  line "making the steady-state per-packet cost one MAC per hop.";
  let all f = List.for_all (fun (_, c) -> f c) rows in
  ( J.List (List.map fst rows),
    [
      holds "attestation_bytes_eq_1_plus_20h" (all (fun (b, _, _) -> b));
      holds "off_path_claim_rejected" (all (fun (_, o, _) -> o));
      holds "cross_packet_replay_rejected" (all (fun (_, _, r) -> r));
    ] )

let experiment =
  {
    id = "E10";
    title = "PATH-PROOF";
    paper_ref = "§VIII-C (strengthening the shutoff protocol)";
    run;
  }
