(* Security-property tests mirroring the paper's §VI analysis: every attack
   the paper claims APNA prevents is exercised against this implementation. *)

open Apna
open Apna_crypto

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let aid = Apna_net.Addr.aid_of_int

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

(* Two hosts in AS100 (attacker-adjacent), one in AS300. *)
let make_world ?(seed = "sec") () =
  Scenario.line ~seed ~dns:(300, "example.net") [ 100; 200; 300 ]

(* ------------------------------------------------------------------ *)
(* §VI-A: attacking source accountability *)

let accountability_tests =
  [
    Alcotest.test_case "ephid spoofing without kHA is dropped at egress" `Quick
      (fun () ->
        (* Mallory sniffs Alice's EphID on their shared segment and uses it
           as her source — but she cannot produce Alice's per-packet MAC. *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let _mallory =
          Scenario.host net ~as_number:100 ~name:"mallory" ~credential:"mallory-token"
        in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let alice_ep = Scenario.endpoint net alice in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        let node = Network.node_exn net 100 in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 100)
            ~src_ephid:(Ephid.to_bytes alice_ep.cert.ephid)
            ~dst_aid:(aid 300)
            ~dst_ephid:(Ephid.to_bytes bob_ep.cert.ephid)
            ()
        in
        (* Mallory's best effort: no key, so a guessed MAC. *)
        let spoofed =
          Apna_net.Packet.make
            ~header:(Apna_net.Apna_header.with_mac header (String.make 8 '\x41'))
            ~proto:Apna_net.Packet.Data ~payload:"spoofed"
        in
        let before = (Border_router.counters (As_node.border_router node)).dropped in
        As_node.submit node spoofed;
        Network.run net;
        let after = (Border_router.counters (As_node.border_router node)).dropped in
        Alcotest.(check int) "dropped at egress" (before + 1) after;
        Alcotest.(check bool) "nothing delivered" true (inbox () = []));
    qtest "unauthorized ephid generation fails (CCA security)" ~count:500
      QCheck2.Gen.(string_size (return 16))
      (fun forged ->
        (* Without kA', kA'' a random 16-byte token never parses: the
           4-byte tag gives a forger at best a 2^-32 chance. *)
        let net = make_world () in
        let node = Network.node_exn net 100 in
        match Ephid.of_bytes forged with
        | Error _ -> true
        | Ok e -> Result.is_error (Ephid.parse (As_node.keys node) e));
    Alcotest.test_case "identity minting: new identity revokes the old" `Quick
      (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let old_ep = Scenario.endpoint net alice in
        (* Alice re-authenticates for a second identity: the AS revokes the
           first HID and every EphID bound to it (§VI-A). *)
        ok_or_fail "re-bootstrap" (Host.bootstrap alice);
        let node = Network.node_exn net 100 in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 100)
            ~src_ephid:(Ephid.to_bytes old_ep.cert.ephid)
            ~dst_aid:(aid 300)
            ~dst_ephid:(Ephid.to_bytes bob_ep.cert.ephid)
            ()
        in
        let pkt =
          Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"old"
        in
        (* Even with the correct old MAC key the old identity is dead. *)
        let old_kha = Option.get (Host.kha alice) in
        ignore old_kha;
        let br = As_node.border_router node in
        (match Border_router.egress_check br ~now:(Network.now_unix net) pkt with
        | Error (Error.Revoked _) -> ()
        | Error e -> Alcotest.failf "wrong drop reason: %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "old identity still accepted"));
    Alcotest.test_case "every delivered packet is attributable" `Quick (fun () ->
        (* The destination AS can hand any delivered packet to the source
           AS, which recovers the sender — accountability end to end. *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let captured = ref [] in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Data then captured := pkt :: !captured);
        Host.connect alice ~remote:bob_ep.cert ~data0:"attributable" (fun _ -> ());
        Network.run net;
        let node = Network.node_exn net 100 in
        Alcotest.(check bool) "captured" true (!captured <> []);
        List.iter
          (fun (pkt : Apna_net.Packet.t) ->
            let e = Result.get_ok (Ephid.of_bytes pkt.header.src_ephid) in
            let info = ok_or_fail "parse" (Ephid.parse (As_node.keys node) e) in
            (* The AS maps the packet to a registered customer and can
               re-verify the sender's MAC. *)
            let entry =
              ok_or_fail "host_info" (Host_info.find (As_node.host_info node) info.hid)
            in
            Alcotest.(check bool) "mac verifies" true
              (Pkt_auth.verify ~auth_key:entry.kha.auth pkt))
          !captured);
  ]

(* ------------------------------------------------------------------ *)
(* §VI-B: attacking privacy *)

let privacy_tests =
  [
    Alcotest.test_case "observer learns only the AID pair" `Quick (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let captured = ref [] in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Data then captured := pkt :: !captured);
        Host.connect alice ~remote:bob_ep.cert ~data0:"secret-payload" (fun _ -> ());
        Network.run net;
        let eve_keys = Keys.make_as (Drbg.create ~seed:"eve") ~aid:(aid 200) in
        List.iter
          (fun (pkt : Apna_net.Packet.t) ->
            (* The source EphID is opaque to anyone but AS100. *)
            let e = Result.get_ok (Ephid.of_bytes pkt.header.src_ephid) in
            Alcotest.(check bool) "opaque" true
              (Result.is_error (Ephid.parse eve_keys e));
            (* The payload never appears in the clear. *)
            let contains_needle haystack needle =
              let nl = String.length needle and hl = String.length haystack in
              let rec scan i =
                i + nl <= hl
                && (String.sub haystack i nl = needle || scan (i + 1))
              in
              scan 0
            in
            Alcotest.(check bool) "encrypted" false
              (contains_needle (Apna_net.Packet.to_bytes pkt) "secret-payload"))
          !captured);
    Alcotest.test_case "per-session keys: one key opens exactly one session"
      `Quick (fun () ->
        (* Two sessions between the same pair use independent keys, so
           compromising one EphID's key exposes only that session
           (§IV-D, §VI-B). *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let sealed_frames = ref [] in
        (* Tap only the first link: the same frame crosses two links. *)
        Network.set_tap net (fun ~from ~to_:_ pkt ->
            if Apna_net.Addr.aid_equal from (aid 100)
               && pkt.proto = Apna_net.Packet.Data then
              match Session.Frame.of_bytes pkt.payload with
              | Ok (Session.Frame.Init { conn_id; seq; sealed; _ }) ->
                  sealed_frames := (conn_id, seq, sealed) :: !sealed_frames
              | _ -> ());
        let sessions = ref [] in
        Host.connect alice ~remote:bob_ep.cert ~data0:"session-one" (fun s ->
            sessions := s :: !sessions);
        Network.run net;
        Host.connect alice ~remote:bob_ep.cert ~data0:"session-two" (fun s ->
            sessions := s :: !sessions);
        Network.run net;
        match (!sessions, List.rev !sealed_frames) with
        | [ s2; s1 ], [ (c1, q1, f1); (c2, q2, f2) ] ->
            (* Each session opens its own recorded frame... *)
            Alcotest.(check bool) "own frame" true
              (Session.conn_id s1 = c1 && Session.conn_id s2 = c2);
            ignore (q1, q2);
            (* ...but cannot open the other's: independent keys. *)
            let cross =
              Session.open_sealed s1 ~seq:0L ~sealed:f2
            in
            let cross2 = Session.open_sealed s2 ~seq:0L ~sealed:f1 in
            Alcotest.(check bool) "s1 cannot open s2 traffic" true
              (Result.is_error cross);
            Alcotest.(check bool) "s2 cannot open s1 traffic" true
              (Result.is_error cross2)
        | _ -> Alcotest.fail "expected two sessions and two captured frames");
    Alcotest.test_case "forward secrecy: long-term key compromise opens nothing"
      `Quick (fun () ->
        (* Record everything, then hand the adversary every long-term
           secret APNA has: the AS master keys (kA, kA', kA'', kAS), the
           AS signing and DH keys, and the host-AS kHA keys. None of them
           decrypts recorded session traffic: the session key came from
           ephemeral X25519 keys that were never sent and are gone. *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let recorded = ref [] in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Data then
              match Session.Frame.of_bytes pkt.payload with
              | Ok (Session.Frame.Init { conn_id; seq; sealed; _ })
              | Ok (Session.Frame.Data { conn_id; seq; sealed }) ->
                  recorded := (conn_id, seq, sealed) :: !recorded
              | _ -> ());
        Host.connect alice ~remote:bob_ep.cert ~data0:"pfs-protected" (fun _ -> ());
        Network.run net;
        Alcotest.(check bool) "recorded" true (!recorded <> []);
        (* The adversary's key material. *)
        let node = Network.node_exn net 100 in
        let as_keys = As_node.keys node in
        let alice_kha = Option.get (Host.kha alice) in
        let candidate_keys =
          [
            Aead.of_secret as_keys.master;
            Aead.of_secret as_keys.infra_mac;
            Aead.of_secret alice_kha.ctrl_raw;
            Aead.of_secret alice_kha.auth;
            Aead.of_secret as_keys.dh_secret;
            Aead.of_secret (Ed25519.seed as_keys.signing);
          ]
        in
        List.iter
          (fun (conn_id, seq, sealed) ->
            List.iter
              (fun key ->
                (* Try the session nonce construction with each key. *)
                let nonce = Bytes.make Aead.nonce_size '\000' in
                Bytes.set_int64_be nonce 0 conn_id;
                Bytes.set_int64_be nonce 8 seq;
                Alcotest.(check bool) "undecryptable" true
                  (Result.is_error
                     (Aead.open_ ~key ~nonce:(Bytes.unsafe_to_string nonce) sealed)))
              candidate_keys)
          !recorded);
    Alcotest.test_case "MitM: a non-colluding AS cannot forge the peer's cert"
      `Quick (fun () ->
        (* The transit AS builds a lookalike certificate for bob's EphID
           with keys it controls. Alice rejects it: the signature does not
           verify under AS300's key, and the transit AS cannot sign as
           AS300. *)
        let net = make_world () in
        let _alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let transit = Network.node_exn net 200 in
        let mitm_keys = Keys.make_ephid_keys (Drbg.create ~seed:"mitm") in
        (* Forgery 1: claim AID 300 — signature check fails. *)
        let forged_as_300 =
          { (Cert.issue (As_node.keys transit) ~ephid:bob_ep.cert.ephid
               ~expiry:bob_ep.cert.expiry ~kx_pub:mitm_keys.kx_public
               ~sig_pub:(Ed25519.public_key mitm_keys.sig_keypair)
               ~aa_ephid:bob_ep.cert.aa_ephid)
            with aid = aid 300 }
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error
             (Trust.verify_cert (Network.trust net) ~now:(Network.now_unix net)
                forged_as_300));
        (* Forgery 2: honestly sign as AS200 — verifies, but now names the
           wrong AS: bob's DNS record or out-of-band cert pins AID 300, so
           the substitution is visible. *)
        let forged_as_200 =
          Cert.issue (As_node.keys transit) ~ephid:bob_ep.cert.ephid
            ~expiry:bob_ep.cert.expiry ~kx_pub:mitm_keys.kx_public
            ~sig_pub:(Ed25519.public_key mitm_keys.sig_keypair)
            ~aa_ephid:bob_ep.cert.aa_ephid
        in
        Alcotest.(check bool) "aid differs from the genuine cert" false
          (Apna_net.Addr.aid_equal forged_as_200.aid bob_ep.cert.aid));
    Alcotest.test_case "sender-flow unlinkability under per-flow EphIDs" `Quick
      (fun () ->
        (* Two hosts each open flows; an observer clustering by source
           EphID cannot tell which flows share a sender: all source EphIDs
           are distinct and pairwise dissimilar. *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let carol = Scenario.host net ~as_number:100 ~name:"carol" ~credential:"carol-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let srcs = ref [] in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Data then
              srcs := pkt.header.src_ephid :: !srcs);
        for _ = 1 to 4 do
          Host.connect alice ~remote:bob_ep.cert ~data0:"a" (fun _ -> ());
          Host.connect carol ~remote:bob_ep.cert ~data0:"c" (fun _ -> ())
        done;
        Network.run net;
        let distinct = List.sort_uniq compare !srcs in
        Alcotest.(check int) "all flows distinct sources" 8 (List.length distinct);
        (* Pairwise Hamming distances of the EphID bodies look random:
           mean within 64 +/- 16 bits of 128. *)
        let hamming a b =
          let d = ref 0 in
          String.iteri
            (fun i c ->
              d := !d + (let x = Char.code c lxor Char.code b.[i] in
                         let rec pop x acc = if x = 0 then acc else pop (x lsr 1) (acc + (x land 1)) in
                         pop x 0))
            a;
          !d
        in
        let total = ref 0 and pairs = ref 0 in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if j > i then begin
                  total := !total + hamming a b;
                  incr pairs
                end)
              distinct)
          distinct;
        let mean = float_of_int !total /. float_of_int !pairs in
        Alcotest.(check bool) "looks uniform" true (mean > 48.0 && mean < 80.0));
    Alcotest.test_case "ephid request/reply encryption hides K+ binding" `Quick
      (fun () ->
        (* §IV-C: an observer of control traffic must not link the
           requested public keys to later Init frames. Our control
           payloads are AEAD-sealed; verify the public key bytes never
           appear in any control packet on the wire. *)
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token" in
        let bob_ep = Scenario.endpoint net bob in
        let control = ref [] in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Control then
              control := Apna_net.Packet.to_bytes pkt :: !control);
        let ep = Scenario.endpoint net alice in
        ignore bob_ep;
        let contains_needle haystack needle =
          let nl = String.length needle and hl = String.length haystack in
          let rec scan i =
            i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
          in
          scan 0
        in
        (* Intra-AS control traffic does not cross the tap in this
           topology, so also check the request bytes directly. *)
        let kha = Option.get (Host.kha alice) in
        let req =
          Management.Client.make_request ~rng:(Drbg.create ~seed:"x") ~corr:1L ~kha
            ~keys:{ kx_secret = ""; kx_public = ep.cert.kx_pub;
                    sig_keypair = Ed25519.keypair_of_seed (String.make 32 'k') }
            ~lifetime:Lifetime.Medium
        in
        Alcotest.(check bool) "pubkey not visible in request" false
          (contains_needle (Msgs.to_bytes req) ep.cert.kx_pub);
        List.iter
          (fun bytes ->
            Alcotest.(check bool) "pubkey not visible on wire" false
              (contains_needle bytes ep.cert.kx_pub))
          !control);
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_security"
    [ ("accountability", accountability_tests); ("privacy", privacy_tests) ]
