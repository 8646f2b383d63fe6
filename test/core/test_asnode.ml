(* AS-node dispatch, host error paths, and simulator stress: the glue the
   other suites exercise implicitly, pinned down explicitly here. *)

open Apna

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let aid = Apna_net.Addr.aid_of_int

let make_world ?(seed = "asnode") () =
  Scenario.line ~seed ~dns:(100, "z.test") [ 100; 300 ]

let asnode_tests =
  [
    Alcotest.test_case "duplicate AS number rejected" `Quick (fun () ->
        let net = make_world () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Network.add_as: AS100 already exists") (fun () ->
            ignore (Network.add_as net 100 ())));
    Alcotest.test_case "unknown AS lookup" `Quick (fun () ->
        let net = make_world () in
        Alcotest.(check bool) "none" true (Network.node net (aid 999) = None));
    Alcotest.test_case "garbage control payload to MS is ignored" `Quick
      (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let node = Network.node_exn net 100 in
        let ms_ephid = (Option.get (Host.ms_cert alice)).ephid in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 100)
            ~src_ephid:(Ephid.to_bytes (Option.get (Host.ctrl_ephid alice)))
            ~dst_aid:(aid 100) ~dst_ephid:(Ephid.to_bytes ms_ephid) ()
        in
        let pkt =
          Pkt_auth.seal ~auth_key:(Option.get (Host.kha alice)).auth
            (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Control
               ~payload:"\xff garbage")
        in
        (match Host.attachment alice with
        | Some att -> att.submit pkt
        | None -> Alcotest.fail "attachment");
        Network.run net;
        (* Nothing crashes, nothing is issued. *)
        Alcotest.(check int) "no issuance" 0
          (Management.issued_count (As_node.management node)));
    Alcotest.test_case "no-route feedback reaches the sender" `Quick (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let ep = Scenario.endpoint net alice in
        (* Destination AS 999 does not exist. *)
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 100)
            ~src_ephid:(Ephid.to_bytes ep.cert.ephid) ~dst_aid:(aid 999)
            ~dst_ephid:(String.make 16 'x') ()
        in
        let pkt =
          Pkt_auth.seal ~auth_key:(Option.get (Host.kha alice)).auth
            (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
               ~payload:"lost")
        in
        (match Host.attachment alice with
        | Some att -> att.submit pkt
        | None -> Alcotest.fail "attachment");
        Network.run net;
        (match Host.unreachables alice with
        | Icmp.No_route :: _ -> ()
        | [] -> Alcotest.fail "no feedback"
        | r :: _ -> Alcotest.failf "wrong reason %s" (Icmp.reason_to_string r)));
    Alcotest.test_case "drop reasons are itemized" `Quick (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let node = Network.node_exn net 100 in
        let ep = Scenario.endpoint net alice in
        (* One bad-MAC drop, one expired drop. *)
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 100)
            ~src_ephid:(Ephid.to_bytes ep.cert.ephid) ~dst_aid:(aid 300)
            ~dst_ephid:(String.make 16 'x') ()
        in
        As_node.submit node
          (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"x");
        Network.advance_time net 2000.0 (* medium EphID expires *);
        As_node.submit node
          (Pkt_auth.seal ~auth_key:(Option.get (Host.kha alice)).auth
             (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"x"));
        Network.run net;
        let reasons = Border_router.drop_reasons (As_node.border_router node) in
        Alcotest.(check (option int)) "bad-mac" (Some 1)
          (List.assoc_opt "bad-mac" reasons);
        Alcotest.(check (option int)) "expired" (Some 1)
          (List.assoc_opt "expired" reasons));
  ]

let host_error_tests =
  [
    Alcotest.test_case "bootstrap before attach fails" `Quick (fun () ->
        let h = Host.create ~name:"loner" ~rng:(Apna_crypto.Drbg.create ~seed:"l") () in
        (match Host.bootstrap h with
        | Error (Error.Rejected _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok () -> Alcotest.fail "bootstrapped without an AS"));
    Alcotest.test_case "wrong credential fails bootstrap" `Quick (fun () ->
        let net2 = make_world ~seed:"cred" () in
        let node = Network.node_exn net2 100 in
        let att =
          As_node.add_device node ~name:"dev" ~credential:"enrolled"
            ~deliver:(fun _ -> ())
        in
        (* The device bootstraps fine with its enrolled credential. *)
        let _, pub = Apna_crypto.X25519.generate (Apna_crypto.Drbg.create ~seed:"d") in
        Alcotest.(check bool) "enrolled works" true
          (Result.is_ok (att.bootstrap_rpc ~host_dh_pub:pub));
        (* An unenrolled credential is refused at the registry itself. *)
        (match
           Registry.bootstrap (As_node.registry node)
             ~now:(Network.now_unix net2) ~credential:"stranger" ~host_dh_pub:pub
         with
        | Error Error.Auth_failed -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "stranger accepted"));
    Alcotest.test_case "send on an unknown session fails" `Quick (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
        let bep = Scenario.endpoint net bob in
        let s = Scenario.connect ~data0:"x" net alice ~remote:bep.cert in
        ok_or_fail "close" (Host.close alice s);
        Network.run net;
        (match Host.send alice s "after close" with
        | Error (Error.Rejected _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok () -> Alcotest.fail "sent on a closed session"));
    Alcotest.test_case "connect to an expired certificate is refused locally"
      `Quick (fun () ->
        let net = make_world () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
        let bep = Scenario.endpoint ~lifetime:Lifetime.Short net bob in
        Network.advance_time net 120.0;
        let fired = ref false in
        Host.connect alice ~remote:bep.cert ~data0:"late" (fun _ -> fired := true);
        Network.run net;
        Alcotest.(check bool) "continuation never fires" false !fired;
        Alcotest.(check int) "nothing sent for it" 0
          (List.length (Host.received bob)));
  ]

let stress_tests =
  [
    Alcotest.test_case "engine sustains 100k events" `Quick (fun () ->
        let e = Apna_sim.Engine.create () in
        let rng = Apna_sim.Rng.create 5L in
        let fired = ref 0 in
        for _ = 1 to 100_000 do
          Apna_sim.Engine.schedule e
            ~at:(Apna_sim.Rng.float rng *. 1000.0)
            (fun () -> incr fired)
        done;
        Apna_sim.Engine.run e;
        Alcotest.(check int) "all fired" 100_000 !fired);
    Alcotest.test_case "many sessions on one pair stay isolated" `Slow (fun () ->
        let net = make_world ~seed:"many" () in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
        let bep = Scenario.endpoint net bob in
        let n = 50 in
        for i = 1 to n do
          Host.connect alice ~remote:bep.cert ~data0:(Printf.sprintf "s%d" i)
            (fun _ -> ())
        done;
        Network.run net;
        let got = List.map snd (Host.received bob) |> List.sort compare in
        let want =
          List.init n (fun i -> Printf.sprintf "s%d" (i + 1)) |> List.sort compare
        in
        Alcotest.(check (list string)) "all delivered once" want got;
        Alcotest.(check int) "bob tracks all sessions" n
          (List.length (Host.sessions bob)));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_asnode"
    [
      ("as_node", asnode_tests);
      ("host_errors", host_error_tests);
      ("stress", stress_tests);
    ]
