(* Chaos suite: control-plane convergence under injected link faults, and
   the wire-robustness regressions that motivated the fault model — reply
   mis-pairing, duplicate Init/Accept handling, fault determinism, and
   byte-identity of the zero-fault fast path. *)

open Apna
open Apna_net

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let qtest ?(count = 20) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* The e2e line topology — AS100 (alice) — AS200 — AS300 (bob + DNS) —
   with a fault model on every inter-AS link and, optionally, on the
   host<->BR access links. *)
let make_world ?(seed = "chaos") ?link_faults ?host_faults () =
  let net =
    Scenario.line ~seed ~dns:(300, "example.net")
      ?link:(Option.map (fun faults () -> Link.make ~faults ()) link_faults)
      [ 100; 200; 300 ]
  in
  Network.set_host_faults net host_faults;
  let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
  let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
  (net, alice, bob)

(* ~10% loss plus duplication and reorder jitter: the acceptance scenario. *)
let rough_faults =
  Link.make_faults ~loss:0.10 ~duplicate:0.05 ~reorder:0.2 ~jitter_ms:2.0 ()

let convergence_tests =
  [
    Alcotest.test_case "full control plane converges under 10% loss" `Quick
      (fun () ->
        let net, alice, bob =
          make_world ~link_faults:rough_faults
            ~host_faults:(Link.make_faults ~loss:0.10 ())
            ()
        in
        Network.run net;
        Alcotest.(check bool) "alice up" true (Host.is_bootstrapped alice);
        (* Server side: receive-only EphID published in DNS. *)
        let published = ref 0 in
        Host.publish bob ~name:"svc.example.net" (fun () -> incr published);
        Network.run net;
        Alcotest.(check int) "publish completed once" 1 !published;
        (* Client side: encrypted DNS resolution. *)
        let dns_cert =
          Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
        in
        let record = ref None in
        Host.dns_lookup alice ~name:"svc.example.net" ~dns:dns_cert (fun r ->
            record := r);
        Network.run net;
        let record =
          match !record with
          | Some r -> r
          | None -> Alcotest.fail "lookup did not resolve"
        in
        (* Session establishment with a retransmitted Init. *)
        Host.connect alice ~remote:record.Dns_service.Record.cert
          ~data0:"hello" ~expect_accept:true (fun session ->
            ignore (Host.send alice session "after-accept"));
        Network.run net;
        (match Host.sessions alice with
        | [ s ] ->
            Alcotest.(check bool) "established" true (Session.established s)
        | l -> Alcotest.failf "alice has %d sessions" (List.length l));
        (* data0 delivered exactly once despite Init retransmission and
           link-level duplication; the follow-up frame also lands. *)
        Alcotest.(check (list string)) "bob's view" [ "hello"; "after-accept" ]
          (List.map snd (Host.received bob));
        (* Nothing left hanging, and the loss really exercised retries. *)
        Alcotest.(check int) "alice quiescent" 0 (Host.pending_rpc_count alice);
        Alcotest.(check int) "bob quiescent" 0 (Host.pending_rpc_count bob);
        let retries = Host.rpc_retries alice + Host.rpc_retries bob in
        Alcotest.(check bool) "some retransmissions happened" true (retries > 0);
        let stats = Network.host_fault_stats net in
        Alcotest.(check bool) "access-link losses recorded" true
          (stats.Link.lost > 0));
    Alcotest.test_case "every continuation fires exactly once under loss"
      `Quick (fun () ->
        let net, alice, _bob =
          make_world ~seed:"chaos-once"
            ~host_faults:(Link.make_faults ~loss:0.15 ())
            ()
        in
        Network.run net;
        let n = 20 in
        let fired = Array.make n 0 in
        let ok = ref 0 and timeout = ref 0 in
        for i = 0 to n - 1 do
          Host.request_ephid_r alice (fun result ->
              fired.(i) <- fired.(i) + 1;
              match result with
              | Ok _ -> incr ok
              | Error (Error.Timeout _) -> incr timeout
              | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))
        done;
        Network.run net;
        Array.iteri
          (fun i c ->
            Alcotest.(check int) (Printf.sprintf "request %d fired once" i) 1 c)
          fired;
        Alcotest.(check int) "all settled" n (!ok + !timeout);
        Alcotest.(check int) "nothing pending" 0
          (Host.pending_rpc_count alice));
    Alcotest.test_case "bounded queue tail-drops under a burst" `Quick
      (fun () ->
        (* A slow link with a one-frame queue: a burst must overflow it. *)
        let faults = Link.make_faults ~queue_frames:1 () in
        let net =
          Scenario.line ~seed:"chaos-queue"
            ~link:(fun () -> Link.make ~capacity_gbps:0.000002 ~faults ())
            [ 100; 300 ]
        in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        Network.run net;
        let remote = (Scenario.endpoint net bob).cert in
        (* data0 rides the Init frame, which is admitted while the burst
           behind it overflows the one-frame queue. *)
        Host.connect alice ~remote ~data0:"first" (fun session ->
            for i = 1 to 10 do
              ignore (Host.send alice session (Printf.sprintf "burst-%d" i))
            done);
        Network.run net;
        let stats = Option.get (Network.link_fault_stats net 100 300) in
        Alcotest.(check bool) "tail drops recorded" true
          (stats.Link.queue_dropped > 0);
        Alcotest.(check bool) "admitted frames still delivered" true
          (List.mem "first" (List.map snd (Host.received bob))));
  ]

let mispair_tests =
  [
    Alcotest.test_case "dropped MS reply cannot mis-pair issuance replies"
      `Quick (fun () ->
        (* Two concurrent EphID requests; the reply to the first is eaten
           by the access link. With FIFO pairing the surviving reply would
           be sealed for request 1's keys but matched to request 2 —
           correlation ids keep each reply with its own request, and the
           orphaned request retransmits. *)
        let net = Network.create ~seed:"chaos-mispair" () in
        let node = Network.add_as net 100 () in
        let carol =
          Host.create ~name:"carol"
            ~rng:(Apna_crypto.Drbg.split (Network.rng net) "host-carol")
            ()
        in
        let arm = ref false and dropped = ref 0 in
        As_node.add_host node carol
          ~deliver:(fun pkt ->
            if !arm && !dropped = 0 then incr dropped
            else Host.deliver carol pkt)
          ~credential:"carol-tok" ();
        ok_or_fail "carol bootstrap" (Host.bootstrap carol);
        Network.run net;
        arm := true;
        let results = ref [] in
        Host.request_ephid_r carol (fun r -> results := ("req1", r) :: !results);
        Host.request_ephid_r carol (fun r -> results := ("req2", r) :: !results);
        Network.run net;
        Alcotest.(check int) "one reply was dropped" 1 !dropped;
        Alcotest.(check int) "both continuations fired" 2
          (List.length !results);
        List.iter
          (fun (who, r) ->
            match r with
            | Error e -> Alcotest.failf "%s: %s" who (Error.to_string e)
            | Ok ep ->
                (* The certificate must cover the key material generated
                   for *this* request — a mis-paired reply fails to open
                   or certifies a foreign key. *)
                Alcotest.(check string)
                  (who ^ " cert matches own keys")
                  ep.Host.keys.Keys.kx_public ep.Host.cert.Cert.kx_pub)
          (List.rev !results);
        Alcotest.(check bool) "the orphaned request retransmitted" true
          (Host.rpc_retries carol > 0);
        Alcotest.(check int) "quiescent" 0 (Host.pending_rpc_count carol));
  ]

(* One fixed end-to-end exchange, returning the full inter-AS byte stream
   and the injected-fault counters. *)
let run_scenario ~seed ?link_faults ?host_faults () =
  let net, alice, bob = make_world ~seed ?link_faults ?host_faults () in
  let wire = Buffer.create 4096 in
  Network.set_tap net (fun ~from ~to_ pkt ->
      Buffer.add_string wire
        (Printf.sprintf "%d>%d:" (Addr.aid_to_int from) (Addr.aid_to_int to_));
      Buffer.add_string wire (Packet.to_bytes pkt));
  Network.run net;
  let ep = ref None in
  Host.request_ephid bob (fun e -> ep := Some e);
  Network.run net;
  (match !ep with
  | Some ep ->
      Host.connect alice ~remote:ep.Host.cert ~data0:"probe"
        ~expect_accept:false (fun _ -> ())
  | None -> ());
  Network.run net;
  let stats a b = Option.get (Network.link_fault_stats net a b) in
  let summary s = (s.Link.lost, s.Link.duplicated, s.Link.reordered) in
  ( Buffer.contents wire,
    (summary (stats 100 200), summary (stats 200 300),
     summary (Network.host_fault_stats net)),
    Host.rpc_retries alice + Host.rpc_retries bob )

let determinism_tests =
  [
    qtest "same seed injects identical faults" ~count:10
      QCheck2.Gen.(int_range 0 1000)
      (fun n ->
        let seed = Printf.sprintf "chaos-det-%d" n in
        let run () =
          run_scenario ~seed ~link_faults:rough_faults
            ~host_faults:(Link.make_faults ~loss:0.10 ())
            ()
        in
        let wire1, stats1, retries1 = run () in
        let wire2, stats2, retries2 = run () in
        wire1 = wire2 && stats1 = stats2 && retries1 = retries2);
    qtest "zero-probability faults are byte-identical to no fault model"
      ~count:5
      QCheck2.Gen.(int_range 0 1000)
      (fun n ->
        let seed = Printf.sprintf "chaos-id-%d" n in
        (* No fault model at all vs. an all-zero fault record on every
           link and access hop: the wire must not differ by a single
           byte, and nothing may retransmit. *)
        let wire1, _, retries1 = run_scenario ~seed () in
        let wire2, stats2, retries2 =
          run_scenario ~seed
            ~link_faults:(Link.make_faults ())
            ~host_faults:Link.no_faults ()
        in
        let (l1, l2, l3) = stats2 in
        wire1 = wire2 && retries1 = 0 && retries2 = 0
        && l1 = (0, 0, 0) && l2 = (0, 0, 0) && l3 = (0, 0, 0));
  ]

let fault_plan_tests =
  [
    Alcotest.test_case "plan_faults extremes" `Quick (fun () ->
        let rand () = 0.5 in
        let stats = Link.fresh_fault_stats () in
        let f = Link.make_faults ~loss:1.0 () in
        Alcotest.(check (list (float 0.0))) "certain loss" []
          (Link.plan_faults f ~stats ~rand);
        Alcotest.(check int) "loss counted" 1 stats.Link.lost;
        let f = Link.make_faults ~duplicate:1.0 () in
        Alcotest.(check int) "certain duplication" 2
          (List.length (Link.plan_faults f ~stats ~rand));
        Alcotest.(check int) "dup counted" 1 stats.Link.duplicated;
        let f = Link.make_faults ~reorder:1.0 ~jitter_ms:10.0 () in
        (match Link.plan_faults f ~stats ~rand with
        | [ extra ] ->
            Alcotest.(check bool) "jitter applied" true
              (extra > 0.0 && extra <= 0.010)
        | l -> Alcotest.failf "%d copies" (List.length l));
        Alcotest.(check int) "reorder counted" 1 stats.Link.reordered);
    Alcotest.test_case "make_faults validates its ranges" `Quick (fun () ->
        List.iter
          (fun f ->
            Alcotest.check_raises "rejected"
              (Invalid_argument "Link.make_faults") (fun () -> ignore (f ())))
          [
            (fun () -> Link.make_faults ~loss:1.5 ());
            (fun () -> Link.make_faults ~duplicate:(-0.1) ());
            (fun () -> Link.make_faults ~reorder:2.0 ());
            (fun () -> Link.make_faults ~jitter_ms:(-1.0) ());
            (fun () -> Link.make_faults ~queue_frames:(-1) ());
          ]);
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_chaos"
    [
      ("convergence", convergence_tests);
      ("mispairing", mispair_tests);
      ("determinism", determinism_tests);
      ("fault_model", fault_plan_tests);
    ]
