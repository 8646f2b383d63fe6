(* End-to-end protocol flows over the simulated network: the communication
   example of paper §III-C, the client-server handshake of §VII-A, ICMP
   (§VIII-B) and the shutoff protocol (§IV-E). *)

open Apna

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

(* A 3-AS line: AS100 (alice) — AS200 (transit) — AS300 (bob, runs DNS). *)
let make_world ?(seed = "e2e") () =
  let net = Scenario.line ~seed ~dns:(300, "example.net") [ 100; 200; 300 ] in
  let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-token" in
  (net, alice, Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-token")

let basic_tests =
  [
    Alcotest.test_case "bootstrap populates identity" `Quick (fun () ->
        let net, alice, _bob = make_world () in
        Network.run net;
        Alcotest.(check bool) "bootstrapped" true (Host.is_bootstrapped alice);
        Alcotest.(check bool) "has ctrl ephid" true (Host.ctrl_ephid alice <> None);
        Alcotest.(check bool) "has MS cert" true (Host.ms_cert alice <> None));
    Alcotest.test_case "ephid issuance round trip" `Quick (fun () ->
        let net, alice, _bob = make_world () in
        let ep = ref None in
        Host.request_ephid alice (fun e -> ep := Some e);
        Network.run net;
        match !ep with
        | None -> Alcotest.fail "no EphID issued"
        | Some endpoint ->
            let node = Network.node_exn net 100 in
            Alcotest.(check bool) "cert verifies" true
              (Result.is_ok
                 (Trust.verify_cert (Network.trust net) ~now:(Network.now_unix net)
                    endpoint.cert));
            (* The AS can link the EphID back to a HID; others cannot. *)
            let parsed = Ephid.parse (As_node.keys node) endpoint.cert.ephid in
            Alcotest.(check bool) "issuing AS parses" true (Result.is_ok parsed);
            let other = Network.node_exn net 300 in
            Alcotest.(check bool) "other AS cannot parse" true
              (Result.is_error (Ephid.parse (As_node.keys other) endpoint.cert.ephid)));
    Alcotest.test_case "encrypted end-to-end data (0-RTT)" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        Host.connect alice ~remote:bob_ep.cert ~data0:"hello bob" (fun _session -> ());
        Network.run net;
        (match inbox () with
        | [ "hello bob" ] -> ()
        | other ->
            Alcotest.failf "bob received %d messages" (List.length other)));
    Alcotest.test_case "bidirectional session data" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        (* Bob echoes everything back uppercased. *)
        Host.on_data bob (fun ~session ~data ->
            ignore (Host.send bob session (String.uppercase_ascii data)));
        let inbox = Scenario.inbox alice in
        Host.connect alice ~remote:bob_ep.cert ~data0:"ping" (fun session ->
            ignore session);
        Network.run net;
        (match inbox () with
        | [ "PING" ] -> ()
        | other -> Alcotest.failf "alice received %d messages" (List.length other)));
    Alcotest.test_case "multiple messages flow in order" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        Host.connect alice ~remote:bob_ep.cert ~data0:"m0" (fun session ->
            for i = 1 to 5 do
              ignore (Host.send alice session (Printf.sprintf "m%d" i))
            done);
        Network.run net;
        Alcotest.(check (list string)) "all delivered in order"
          [ "m0"; "m1"; "m2"; "m3"; "m4"; "m5" ] (inbox ()));
    Alcotest.test_case "ping measures a plausible rtt" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let rtt = ref nan in
        Host.ping alice ~dst_aid:(Apna_net.Addr.aid_of_int 300)
          ~dst_ephid:bob_ep.cert.ephid (fun r -> rtt := r);
        Network.run net;
        (* 4 inter-AS link crossings at 5 ms propagation each, plus access
           hops: at least 20 ms, well under a second. *)
        Alcotest.(check bool) "rtt sane" true (!rtt >= 0.02 && !rtt < 1.0));
    Alcotest.test_case "ping idents wrap at 16 bits" `Quick (fun () ->
        (* The ident is a u16 on the wire: past 65,535 pings every reply
           must still find its own request. *)
        let net = Scenario.line ~seed:"ping-wrap" [ 100 ] in
        let alice =
          Scenario.host ~granularity:Granularity.Per_host net ~as_number:100
            ~name:"alice" ~credential:"a"
        in
        let bob = Scenario.host net ~as_number:100 ~name:"bob" ~credential:"b" in
        let bob_ep = Scenario.endpoint net bob in
        let pings = 65_537 and replies = ref 0 in
        for i = 1 to pings do
          Host.ping alice ~dst_aid:(Apna_net.Addr.aid_of_int 100)
            ~dst_ephid:bob_ep.cert.ephid (fun _ -> incr replies);
          if i mod 4_096 = 0 then Network.run net
        done;
        Network.run net;
        Alcotest.(check int) "every ping answered" pings !replies;
        Alcotest.(check int) "nothing pending" 0 (Host.pending_rpc_count alice));
    Alcotest.test_case "icmp unreachable on expired destination" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        (* Let bob's EphID (medium lifetime, 900 s) expire, then connect. *)
        Network.advance_time net 1000.0;
        Host.connect alice ~remote:bob_ep.cert ~data0:"too late" (fun _ -> ());
        Network.run net;
        Alcotest.(check bool) "bob got nothing" true (inbox () = []);
        (* Alice's connect was blocked at certificate verification (expired),
           so nothing was even sent; force a raw expired send via ping. *)
        Host.ping alice ~dst_aid:(Apna_net.Addr.aid_of_int 300)
          ~dst_ephid:bob_ep.cert.ephid (fun _ -> ());
        Network.run net;
        (match Host.unreachables alice with
        | Icmp.Ephid_expired :: _ -> ()
        | [] -> Alcotest.fail "no unreachable feedback"
        | r :: _ -> Alcotest.failf "wrong reason: %s" (Icmp.reason_to_string r)));
  ]

let shutoff_tests =
  [
    Alcotest.test_case "victim shuts off attacker" `Quick (fun () ->
        let net, attacker, victim = make_world () in
        let victim_ep = Scenario.endpoint net victim in
        let victim_session = ref None and floods = ref 0 in
        Host.on_data victim (fun ~session ~data:_ ->
            incr floods;
            victim_session := Some session);
        let attacker_session = ref None in
        Host.connect attacker ~remote:victim_ep.cert ~data0:"flood-0" (fun s ->
            attacker_session := Some s);
        Network.run net;
        let att_s = Option.get !attacker_session in
        ignore (Host.send attacker att_s "flood-1");
        Network.run net;
        let vic_s = Option.get !victim_session in
        Alcotest.(check int) "floods arrived" 2 !floods;
        (* The victim presents the last unwanted packet as evidence. *)
        let evidence = Option.get (Host.last_packet victim vic_s) in
        ok_or_fail "shutoff" (Host.request_shutoff victim ~session:vic_s ~evidence);
        Network.run net;
        (* The attacker's EphID is now on its own AS's revocation list... *)
        let attacker_as = Network.node_exn net 100 in
        Alcotest.(check int) "revocation recorded" 1
          (Revocation.size (As_node.revoked attacker_as));
        (* ...so further floods die at egress and never reach the victim. *)
        ignore (Host.send attacker att_s "flood-2");
        ignore (Host.send attacker att_s "flood-3");
        Network.run net;
        Alcotest.(check int) "no more floods" 2 !floods);
    Alcotest.test_case "shutoff with forged signature is refused" `Quick (fun () ->
        let net, attacker, victim = make_world () in
        let victim_ep = Scenario.endpoint net victim in
        let victim_session = ref None in
        Host.on_data victim (fun ~session ~data:_ -> victim_session := Some session);
        Host.connect attacker ~remote:victim_ep.cert ~data0:"x" (fun _ -> ());
        Network.run net;
        let vic_s = Option.get !victim_session in
        let evidence = Option.get (Host.last_packet victim vic_s) in
        (* Deliver a shutoff request whose signature comes from the wrong
           key, straight to the attacker's AA. *)
        let attacker_as = Network.node_exn net 100 in
        let rogue_keys =
          Keys.make_ephid_keys (Apna_crypto.Drbg.create ~seed:"rogue")
        in
        let forged =
          Msgs.Shutoff_request
            {
              packet = Apna_net.Packet.to_bytes evidence;
              signature =
                Apna_crypto.Ed25519.sign rogue_keys.sig_keypair
                  (Apna_net.Packet.to_bytes evidence);
              cert = Cert.to_bytes (Session.local_cert vic_s);
            }
        in
        (match
           Accountability.handle_shutoff
             (As_node.accountability attacker_as)
             ~now:(Network.now_unix net) forged
         with
        | Error (Error.Bad_signature _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "forged shutoff accepted");
        Alcotest.(check int) "nothing revoked" 0
          (Revocation.size (As_node.revoked attacker_as)));
    Alcotest.test_case "bystander cannot shut off someone else's flow" `Quick
      (fun () ->
        (* A third host that merely observed a packet cannot get it shut
           off: it does not own the destination EphID (§VI-C). *)
        let net, attacker, victim = make_world () in
        let victim_ep = Scenario.endpoint net victim in
        let victim_session = ref None in
        Host.on_data victim (fun ~session ~data:_ -> victim_session := Some session);
        Host.connect attacker ~remote:victim_ep.cert ~data0:"x" (fun _ -> ());
        Network.run net;
        let vic_s = Option.get !victim_session in
        let evidence = Option.get (Host.last_packet victim vic_s) in
        (* Bystander has its own valid cert but signs with its own key. *)
        let bystander_ep = Scenario.endpoint net attacker in
        let forged =
          Msgs.Shutoff_request
            {
              packet = Apna_net.Packet.to_bytes evidence;
              signature =
                Apna_crypto.Ed25519.sign bystander_ep.keys.sig_keypair
                  (Apna_net.Packet.to_bytes evidence);
              cert = Cert.to_bytes bystander_ep.cert;
            }
        in
        let attacker_as = Network.node_exn net 100 in
        (match
           Accountability.handle_shutoff
             (As_node.accountability attacker_as)
             ~now:(Network.now_unix net) forged
         with
        | Error (Error.Rejected _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "bystander shutoff accepted");
        Alcotest.(check int) "nothing revoked" 0
          (Revocation.size (As_node.revoked attacker_as)));
  ]

let lifecycle_tests =
  [
    Alcotest.test_case "close tears down both ends and releases the EphID"
      `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let session = ref None in
        Host.connect alice ~remote:bob_ep.cert ~data0:"hi" (fun s -> session := Some s);
        Network.run net;
        Alcotest.(check int) "bob has the session" 1 (List.length (Host.sessions bob));
        let s = Option.get !session in
        ok_or_fail "close" (Host.close alice s);
        Network.run net;
        Alcotest.(check int) "alice forgot it" 0 (List.length (Host.sessions alice));
        Alcotest.(check int) "bob forgot it" 0 (List.length (Host.sessions bob));
        (* The per-flow EphID was preemptively released (§VIII-G2). *)
        let node = Network.node_exn net 100 in
        Alcotest.(check int) "EphID revoked" 1
          (Revocation.size (As_node.revoked node)));
    Alcotest.test_case "a shared server EphID outlives its first close" `Quick
      (fun () ->
        (* Two clients on one server EphID: the first Fin must not release
           it under the second connection; the last one does. *)
        let net, alice, bob = make_world () in
        let carol = Scenario.host net ~as_number:100 ~name:"carol" ~credential:"carol-token" in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        let open_session client data0 =
          let session = ref None in
          Host.connect client ~remote:bob_ep.cert ~data0 (fun s -> session := Some s);
          Network.run net;
          Option.get !session
        in
        let sa = open_session alice "from alice" in
        let sc = open_session carol "from carol" in
        Alcotest.(check int) "bob serves both" 2 (List.length (Host.sessions bob));
        let bob_as = Network.node_exn net 300 in
        let bob_holds () =
          List.exists (fun (e : Host.endpoint) -> Cert.equal e.cert bob_ep.cert)
            (Host.endpoints bob)
        in
        ok_or_fail "alice close" (Host.close alice sa);
        Network.run net;
        Alcotest.(check int) "not released after the first close" 0
          (Revocation.size (As_node.revoked bob_as));
        Alcotest.(check bool) "bob still holds the EphID" true (bob_holds ());
        ok_or_fail "carol send" (Host.send carol sc "still served");
        Network.run net;
        Alcotest.(check bool) "carol's frame delivered" true
          (List.mem "still served" (inbox ()));
        ok_or_fail "carol close" (Host.close carol sc);
        Network.run net;
        Alcotest.(check int) "released after the last close" 1
          (Revocation.size (As_node.revoked bob_as));
        Alcotest.(check bool) "bob dropped the EphID" false (bob_holds ()));
    Alcotest.test_case "spoofed fin does not kill a session" `Quick (fun () ->
        let net, alice, bob = make_world () in
        let bob_ep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        let s = Scenario.connect ~data0:"hi" net alice ~remote:bob_ep.cert in
        (* Mallory forges a Fin with the right conn id but no session key. *)
        let mallory = Scenario.host net ~as_number:100 ~name:"mallory" ~credential:"m" in
        let mep = Scenario.endpoint net mallory in
        let forged =
          Session.Frame.Fin
            { conn_id = Session.conn_id s; seq = 99L; sealed = String.make 24 'F' }
        in
        let header =
          Apna_net.Apna_header.make
            ~src_aid:(Apna_net.Addr.aid_of_int 100)
            ~src_ephid:(Ephid.to_bytes mep.cert.ephid)
            ~dst_aid:(Apna_net.Addr.aid_of_int 300)
            ~dst_ephid:(Ephid.to_bytes bob_ep.cert.ephid)
            ()
        in
        let pkt =
          Pkt_auth.seal ~auth_key:(Option.get (Host.kha mallory)).auth
            (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
               ~payload:(Session.Frame.to_bytes forged))
        in
        (match Host.attachment mallory with
        | Some att -> att.submit pkt
        | None -> Alcotest.fail "no attachment");
        Network.run net;
        (* Bob's session survives and still carries data. *)
        Alcotest.(check int) "session alive" 1 (List.length (Host.sessions bob));
        ignore (Host.send alice s "still here");
        Network.run net;
        Alcotest.(check bool) "data still flows" true
          (List.mem "still here" (inbox ())));
    Alcotest.test_case "0-RTT refusal policy drops first flight only" `Quick
      (fun () ->
        let net, client, server = make_world () in
        Host.set_zero_rtt_policy server false;
        let served = ref [] in
        Host.on_data server (fun ~session ~data ->
            served := data :: !served;
            ignore (Host.send server session ("srv:" ^ data)));
        let inbox = Scenario.inbox client in
        Host.publish server ~name:"svc.example.net" (fun () -> ());
        Network.run net;
        let dns_cert =
          Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
        in
        let record = ref None in
        Host.dns_lookup client ~name:"svc.example.net" ~dns:dns_cert (fun r ->
            record := r);
        Network.run net;
        let record = Option.get !record in
        Host.connect client ~remote:record.cert ~data0:"early"
          ~expect_accept:true (fun session ->
            (* Queued until Accept: arrives under the serving key. *)
            ignore (Host.send client session "late"));
        Network.run net;
        (* "early" was refused by policy; "late" made it. *)
        Alcotest.(check (list string)) "server view" [ "late" ] (List.rev !served);
        Alcotest.(check (list string)) "client reply" [ "srv:late" ] (inbox ()));
  ]

let () =
  Logs.set_level (Some Logs.Warning);
  Alcotest.run "apna_e2e"
    [
      ("basic", basic_tests);
      ("shutoff", shutoff_tests);
      ("lifecycle", lifecycle_tests);
    ]
