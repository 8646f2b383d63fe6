(* Session-survivability acceptance (Issue 5): live sessions outlive the
   EphIDs that started them. Proactive renewal-margin migration keeps a
   long exchange alive across multiple Short-lifetime expiry boundaries
   under the E13 fault mix; ICMP Ephid_revoked feedback drives reactive
   recovery; a blackholed management service opens the issuance circuit
   breaker and sends degrade per the brownout policy instead of
   blackholing; and the bounded-state regressions (stale prefetched
   EphIDs, unreachable-notification ring) stay bounded. *)

open Apna
open Apna_net
module M = Apna_obs.Metrics

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let m_migrations =
  M.Counter.register M.default "apna_host_session_migrations_total"

(* ------------------------------------------------------------------ *)
(* Breaker unit tests: the state machine in isolation. *)

let breaker_tests =
  [
    Alcotest.test_case "opens after threshold consecutive failures" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:3 ~cooldown_s:10.0 () in
        Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
        Breaker.failure b ~now:0.0;
        Breaker.failure b ~now:0.1;
        Alcotest.(check bool) "still closed at 2" true
          (Breaker.state b = Breaker.Closed);
        (* A success resets the consecutive count. *)
        Breaker.success b;
        Breaker.failure b ~now:0.2;
        Breaker.failure b ~now:0.3;
        Alcotest.(check bool) "reset by success" true
          (Breaker.state b = Breaker.Closed);
        Breaker.failure b ~now:0.4;
        Alcotest.(check bool) "open at 3" true (Breaker.state b = Breaker.Open);
        Alcotest.(check int) "one open transition" 1 (Breaker.opens b));
    Alcotest.test_case "half-open probe closes or reopens" `Quick (fun () ->
        let b = Breaker.create ~threshold:1 ~cooldown_s:5.0 () in
        Breaker.failure b ~now:0.0;
        Alcotest.(check bool) "open" true (Breaker.state b = Breaker.Open);
        Alcotest.(check bool) "fail fast inside cooldown" false
          (Breaker.acquire b ~now:3.0);
        Alcotest.(check bool) "probe admitted after cooldown" true
          (Breaker.acquire b ~now:6.0);
        Alcotest.(check bool) "half-open" true
          (Breaker.state b = Breaker.Half_open);
        Alcotest.(check bool) "second caller blocked during probe" false
          (Breaker.acquire b ~now:6.1);
        (* Probe fails: back to Open, cooldown restarts. *)
        Breaker.failure b ~now:6.5;
        Alcotest.(check bool) "reopened" true (Breaker.state b = Breaker.Open);
        Alcotest.(check int) "two opens" 2 (Breaker.opens b);
        Alcotest.(check bool) "new probe after new cooldown" true
          (Breaker.acquire b ~now:12.0);
        Breaker.success b;
        Alcotest.(check bool) "closed again" true
          (Breaker.state b = Breaker.Closed);
        Alcotest.(check bool) "admits freely when closed" true
          (Breaker.acquire b ~now:12.1));
    Alcotest.test_case "transition observer fires on changes only" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:2 ~cooldown_s:1.0 () in
        let seen = ref [] in
        Breaker.on_transition b (fun s -> seen := Breaker.state_label s :: !seen);
        Breaker.failure b ~now:0.0;
        Breaker.failure b ~now:0.1;
        Breaker.failure b ~now:0.2;
        ignore (Breaker.acquire b ~now:2.0);
        Breaker.success b;
        Alcotest.(check (list string)) "open, half-open, closed"
          [ "open"; "half-open"; "closed" ]
          (List.rev !seen));
  ]

(* ------------------------------------------------------------------ *)
(* The acceptance topology: AS100 (alice) — AS200 — AS300 (bob), with the
   chaos suite's rough fault mix on both inter-AS links when asked. *)

let make_world ?(seed = "survival") ?link_faults () =
  let net =
    Scenario.line ~seed
      ?link:(Option.map (fun faults () -> Link.make ~faults ()) link_faults)
      [ 100; 200; 300 ]
  in
  let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" in
  let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" in
  Network.run net;
  (net, alice, bob)

let rough_faults =
  Link.make_faults ~loss:0.10 ~duplicate:0.05 ~reorder:0.2 ~jitter_ms:2.0 ()

(* A long-lived exchange: [n] unique messages, one every [period] seconds
   starting at t0, each sent [copies] times [spacing] apart (application-
   level redundancy against the injected loss). *)
let drive_exchange net alice session ~n ~copies =
  let eng = Network.engine net in
  let t0 = 10.0 and period = 2.0 and spacing = 0.6 in
  for i = 0 to n - 1 do
    let data = Printf.sprintf "m%03d" i in
    for c = 0 to copies - 1 do
      Apna_sim.Engine.schedule_in eng
        ~delay:(t0 +. (period *. float_of_int i) +. (spacing *. float_of_int c))
        (fun () -> ignore (Host.send alice session data))
    done
  done;
  Network.run net

let migration_tests =
  [
    Alcotest.test_case
      "session survives 3x the Short lifetime under the fault mix" `Quick
      (fun () ->
        M.set_enabled M.default true;
        let base = M.Counter.value m_migrations in
        let net, alice, bob = make_world ~link_faults:rough_faults () in
        (* Alice's source EphIDs are Short-lived (60 s); bob answers from a
           Long-lived endpoint so only the client side migrates. *)
        Host.set_ephid_lifetime alice Lifetime.Short;
        let got = ref [] in
        Host.on_data bob (fun ~session ~data ->
            got := data :: !got;
            ignore (Host.send bob session ("echo:" ^ data)));
        let inbox = Scenario.inbox alice in
        let bep = ref None in
        Host.request_ephid bob ~lifetime:Lifetime.Long ~receive_only:true
          (fun e -> bep := Some e);
        Network.run net;
        (* Receive-only remote: the Init retransmits until bob's Accept, so
           establishment itself survives the injected loss. *)
        let session = ref None in
        Host.connect alice ~remote:(Option.get !bep).Host.cert
          ~expect_accept:true (fun s -> session := Some s);
        Network.run net;
        let session = Option.get !session in
        Alcotest.(check bool) "established" true (Session.established session);
        (* 85 messages over 180 s of simulated time: three full Short
           lifetimes. Every unique message must arrive despite ~10% loss
           per hop — zero application-visible delivery failures. *)
        let n = 85 in
        drive_exchange net alice session ~n ~copies:4;
        for i = 0 to n - 1 do
          let data = Printf.sprintf "m%03d" i in
          Alcotest.(check bool) (data ^ " delivered") true (List.mem data !got)
        done;
        (* The session crossed at least two expiry boundaries. *)
        Alcotest.(check bool) "at least 2 migrations" true
          (Host.migrations alice >= 2);
        Alcotest.(check bool) "metric counted them" true
          (M.Counter.value m_migrations - base >= 2);
        (* The echo path survived the migrations too. *)
        Alcotest.(check bool) "echoes came back" true
          (List.exists
             (fun d -> String.length d > 5 && String.sub d 0 5 = "echo:")
             (inbox ()));
        Alcotest.(check int) "alice quiescent" 0 (Host.pending_rpc_count alice);
        Alcotest.(check int) "bob quiescent" 0 (Host.pending_rpc_count bob));
    Alcotest.test_case "revoked mid-session: ICMP-driven recovery" `Quick
      (fun () ->
        let net, alice, bob = make_world ~seed:"survival-revoke" () in
        let inbox = Scenario.inbox bob in
        let bep = ref None in
        Host.request_ephid bob ~lifetime:Lifetime.Long (fun e -> bep := Some e);
        Network.run net;
        let session = ref None in
        Host.connect alice ~remote:(Option.get !bep).Host.cert ~data0:"before"
          (fun s -> session := Some s);
        Network.run net;
        let session = Option.get !session in
        Alcotest.(check (list string)) "before delivered" [ "before" ] (inbox ());
        (* The AS revokes the EphID backing alice's session out from under
           her (administrative revocation, not a shutoff: alice is not
           notified). *)
        let dead = (Session.local_cert session).Cert.ephid in
        let node = Network.node_exn net 100 in
        Revocation.revoke (As_node.revoked node) dead
          ~expiry:(Session.local_cert session).Cert.expiry;
        (* Her next send dies at her own egress; the router's ICMP
           feedback quotes the frame, and the host migrates the session
           and retransmits the quoted frame from the fresh EphID. *)
        ignore (Host.send alice session "after");
        Network.run net;
        Alcotest.(check (list string)) "after recovered"
          [ "before"; "after" ] (inbox ());
        Alcotest.(check int) "one recovery" 1 (Host.recoveries alice);
        Alcotest.(check bool) "recovery migrated the session" true
          (Host.migrations alice >= 1);
        Alcotest.(check bool) "revocation ICMP recorded" true
          (List.mem Icmp.Ephid_revoked (Host.unreachables alice));
        (* The dead EphID is gone from every reuse path. *)
        Alcotest.(check bool) "dead endpoint purged" true
          (not
             (List.exists
                (fun (e : Host.endpoint) -> Ephid.equal e.cert.Cert.ephid dead)
                (Host.endpoints alice))));
    Alcotest.test_case "shutoff-revoked sessions never auto-recover" `Quick
      (fun () ->
        (* The inhibition list: a release (deliberate retirement) pins the
           EphID so ICMP feedback cannot resurrect the flows it backed —
           same mechanism that keeps a shutoff final. *)
        let net, alice, bob = make_world ~seed:"survival-inhibit" () in
        let inbox = Scenario.inbox bob in
        let bep = ref None in
        Host.request_ephid bob (fun e -> bep := Some e);
        Network.run net;
        let session = ref None in
        Host.connect alice ~remote:(Option.get !bep).Host.cert ~data0:"pre"
          (fun s -> session := Some s);
        Network.run net;
        let session = Option.get !session in
        let local = Session.local_cert session in
        let ep =
          List.find
            (fun (e : Host.endpoint) -> Ephid.equal e.cert.Cert.ephid local.ephid)
            (Host.endpoints alice)
        in
        ok_or_fail "release" (Host.release_endpoint alice ep);
        Network.run net;
        ignore (Host.send alice session "post-release");
        Network.run net;
        Alcotest.(check (list string)) "no delivery after release" [ "pre" ]
          (inbox ());
        Alcotest.(check int) "no recovery" 0 (Host.recoveries alice);
        Alcotest.(check int) "no migration" 0 (Host.migrations alice));
    Alcotest.test_case "a settled Rekey's timer leaves the next one alone"
      `Quick (fun () ->
        (* Every send migrates (the renewal margin exceeds any lifetime),
           and sends come 100 ms apart: each Rekey is acked after one
           60 ms round trip, well before its first 250 ms timer fires —
           by which time the next Rekey on the same connection is in
           flight. That timer must not retransmit the newer request. *)
        let net =
          Scenario.line ~seed:"survival-stale-timer"
            ~link:(fun () -> Link.make ~propagation_ms:30.0 ())
            [ 100; 200 ]
        in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:200 ~name:"bob" ~credential:"b" in
        let inbox = Scenario.inbox bob in
        Network.run net;
        let bep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
        let session = Scenario.connect ~data0:"hello" net alice ~remote:bep.Host.cert in
        Host.set_renewal_margin alice 1_000_000;
        let n = 40 in
        Scenario.pace net ~n ~span:(0.1 *. float_of_int n) (fun i ->
            ignore (Host.send alice session (Printf.sprintf "m%02d" i)));
        Network.run net;
        Alcotest.(check int) "every send migrated" n (Host.migrations alice);
        Alcotest.(check int) "no retransmission without loss" 0
          (Host.rpc_retries alice);
        Alcotest.(check int) "all delivered" (n + 1) (List.length (inbox ()));
        Alcotest.(check int) "alice quiescent" 0 (Host.pending_rpc_count alice));
  ]

(* ------------------------------------------------------------------ *)
(* Issuance brownout: blackholed MS replies open the breaker; sends
   degrade (per-packet -> per-flow) instead of blackholing; the half-open
   probe re-closes it after the outage. *)

let brownout_tests =
  [
    Alcotest.test_case "breaker opens, sends degrade, breaker re-closes"
      `Quick (fun () ->
        let net = Network.create ~seed:"survival-brownout" () in
        let node = Network.add_as net 100 () in
        let carol =
          Host.create ~name:"carol"
            ~rng:(Apna_crypto.Drbg.split (Network.rng net) "host-carol")
            ~granularity:Granularity.Per_packet ()
        in
        let blackhole = ref false and eaten = ref 0 in
        As_node.add_host node carol
          ~deliver:(fun pkt ->
            if !blackhole && pkt.Packet.proto = Packet.Control then incr eaten
            else Host.deliver carol pkt)
          ~credential:"carol-tok" ();
        ok_or_fail "carol bootstrap" (Host.bootstrap carol);
        let dave = Scenario.host net ~as_number:100 ~name:"dave" ~credential:"dave-tok" in
        let inbox = Scenario.inbox dave in
        Network.run net;
        let dep = Scenario.endpoint net dave in
        let session = Scenario.connect ~data0:"hello" net carol ~remote:dep.Host.cert in
        Alcotest.(check bool) "warm" true
          (List.mem "hello" (inbox ()));
        (* Outage: every MS reply to carol vanishes. The per-packet sends
           keep going on prefetched stock while the refill requests time
           out; three consecutive timeouts open the breaker. *)
        blackhole := true;
        for i = 1 to 6 do
          ignore (Host.send carol session (Printf.sprintf "b%d" i))
        done;
        Network.run net;
        Alcotest.(check bool) "breaker open" true
          (Breaker.state (Host.issuance_breaker carol) = Breaker.Open);
        Alcotest.(check bool) "replies really were eaten" true (!eaten > 0);
        (* With the breaker open and the stock draining, issuance fails
           fast and sends stretch to the session's bound endpoint —
           degraded, never blackholed. *)
        for i = 1 to 4 do
          ignore (Host.send carol session (Printf.sprintf "c%d" i))
        done;
        Network.run net;
        Alcotest.(check bool) "brownout sends happened" true
          (Host.brownout_sends carol > 0);
        let got = inbox () in
        List.iter
          (fun d ->
            Alcotest.(check bool) (d ^ " delivered during outage") true
              (List.mem d got))
          [ "b1"; "b2"; "b3"; "b4"; "b5"; "b6"; "c1"; "c2"; "c3"; "c4" ];
        (* Outage ends; once the cooldown elapses a single probe is let
           through, its reply closes the breaker, and issuance resumes. *)
        blackhole := false;
        Network.advance_time net 12.0;
        ignore (Host.send carol session "d1");
        Network.run net;
        Alcotest.(check bool) "breaker closed after probe" true
          (Breaker.state (Host.issuance_breaker carol) = Breaker.Closed);
        Alcotest.(check bool) "post-outage delivery" true
          (List.mem "d1" (inbox ()));
        Alcotest.(check bool) "exactly one open interval" true
          (Breaker.opens (Host.issuance_breaker carol) >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Bounded-state regressions. *)

(* Words reachable from the host itself. Its attachment closes over the
   whole network, so an inert copy stands in while counting. *)
let host_words h =
  let att = Option.get (Host.attachment h) in
  Host.attach h
    {
      att with
      now = (fun () -> 0);
      now_f = (fun () -> 0.0);
      submit = ignore;
      schedule = (fun ~delay:_ _ -> ());
      bootstrap_rpc = (fun ~host_dh_pub:_ -> Error (Error.Rejected "inert"));
    };
  let words = Obj.reachable_words (Obj.repr h) in
  Host.attach h att;
  words

let bounds_tests =
  [
    Alcotest.test_case "stale prefetched EphIDs are discarded at dequeue"
      `Quick (fun () ->
        let net = Scenario.line ~seed:"survival-stale" [ 100 ] in
        let alice =
          Scenario.host ~granularity:Granularity.Per_packet net ~as_number:100
            ~name:"alice" ~credential:"a"
        in
        let bob = Scenario.host net ~as_number:100 ~name:"bob" ~credential:"b" in
        let inbox = Scenario.inbox bob in
        Network.run net;
        let bep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
        let session = Scenario.connect ~data0:"early" net alice ~remote:bep.Host.cert in
        (* One data send warms the per-packet prefetch stock. *)
        ignore (Host.send alice session "warm");
        Network.run net;
        (* The prefetched stock was issued with Medium (900 s) lifetimes;
           1000 s later all of it is past expiry. The old behaviour sent
           the next packet under a dead EphID (dropped at egress); now the
           stock is discarded at dequeue and a fresh EphID is fetched. *)
        Network.advance_time net 1000.0;
        ignore (Host.send alice session "late");
        Network.run net;
        Alcotest.(check bool) "stale stock discarded" true
          (Host.stale_prefetch_discards alice > 0);
        Alcotest.(check bool) "late message delivered" true
          (List.mem "late" (inbox ())));
    Alcotest.test_case "unreachable ring keeps the last 256 of 300" `Quick
      (fun () ->
        let ringo =
          Host.create ~name:"ringo"
            ~rng:(Apna_crypto.Drbg.create ~seed:"survival-ring") ()
        in
        let header =
          Apna_header.make ~src_aid:(Addr.aid_of_int 64500)
            ~src_ephid:(String.make 16 '\000')
            ~dst_aid:(Addr.aid_of_int 64501)
            ~dst_ephid:(String.make 16 '\001') ()
        in
        for i = 1 to 300 do
          let reason =
            if i <= 44 then Icmp.Host_unknown else Icmp.No_route
          in
          Host.deliver ringo
            (Packet.make ~header ~proto:Packet.Icmp
               ~payload:(Icmp.to_bytes (Icmp.Unreachable { reason; quoted = "" })))
        done;
        Alcotest.(check int) "ring bounded" 256
          (List.length (Host.unreachables ringo));
        Alcotest.(check int) "total counts everything" 300
          (Host.unreachable_total ringo);
        (* Oldest first, and the oldest 44 (the Host_unknowns) fell out. *)
        Alcotest.(check bool) "oldest evicted" true
          (List.for_all
             (fun r -> r = Icmp.No_route)
             (Host.unreachables ringo)));
    Alcotest.test_case "frames for unknown connections are not kept" `Quick
      (fun () ->
        (* Anyone holding a valid EphID can address frames to connection
           ids the host never had; none of them may stay behind. *)
        let sink =
          Host.create ~name:"sink"
            ~rng:(Apna_crypto.Drbg.create ~seed:"survival-sink") ()
        in
        let header =
          Apna_header.make ~src_aid:(Addr.aid_of_int 64500)
            ~src_ephid:(String.make 16 '\002')
            ~dst_aid:(Addr.aid_of_int 64501)
            ~dst_ephid:(String.make 16 '\003') ()
        in
        let frames = 10_000 in
        let words () = Obj.reachable_words (Obj.repr sink) in
        let before = words () in
        for i = 1 to frames do
          let frame =
            Session.Frame.Data
              { conn_id = Int64.of_int i; seq = 1L; sealed = String.make 32 'x' }
          in
          Host.deliver sink
            (Packet.make ~header ~proto:Packet.Data
               ~payload:(Session.Frame.to_bytes frame))
        done;
        let grown = words () - before in
        Alcotest.(check bool)
          (Printf.sprintf "%d words for %d frames" grown frames)
          true (grown < frames));
    Alcotest.test_case "a long session leaves no payloads behind" `Quick
      (fun () ->
        (* Payloads go to the data handler (none here) and nowhere else:
           10,000 frames on one session leave both hosts' state flat. *)
        let net = Scenario.line ~seed:"survival-long" [ 100 ] in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:100 ~name:"bob" ~credential:"b" in
        let bep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
        let session = Scenario.connect ~data0:"hello" net alice ~remote:bep.Host.cert in
        let send_batch () =
          for i = 1 to 1_000 do
            ok_or_fail "send" (Host.send alice session (Printf.sprintf "m%05d" i))
          done;
          Network.run net
        in
        send_batch ();
        let words () = host_words alice + host_words bob in
        let before = words () in
        let frames = 10_000 in
        for _ = 1 to frames / 1_000 do
          send_batch ()
        done;
        let grown = words () - before in
        Alcotest.(check int) "one session each" 2
          (List.length (Host.sessions alice) + List.length (Host.sessions bob));
        Alcotest.(check bool)
          (Printf.sprintf "%d words for %d frames" grown frames)
          true (grown < frames));
    Alcotest.test_case "connect/close cycles leave no state behind" `Quick
      (fun () ->
        (* Each cycle binds a fresh per-flow EphID on the client and a
           fresh serving EphID on the server; the close releases both.
           Nothing is bound to them any more, so nothing is kept. *)
        let net = Scenario.line ~seed:"survival-cycles" [ 100 ] in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:100 ~name:"bob" ~credential:"b" in
        let bep =
          Scenario.endpoint ~lifetime:Lifetime.Long ~receive_only:true net bob
        in
        let cycle () =
          let s = Scenario.connect ~expect_accept:true net alice ~remote:bep.Host.cert in
          ok_or_fail "close" (Host.close alice s);
          Network.run net
        in
        for _ = 1 to 20 do
          cycle ()
        done;
        let words () = host_words alice + host_words bob in
        let before = words () in
        let cycles = 1_000 in
        for _ = 1 to cycles do
          cycle ()
        done;
        let grown = words () - before in
        Alcotest.(check int) "no sessions left" 0
          (List.length (Host.sessions alice) + List.length (Host.sessions bob));
        Alcotest.(check bool)
          (Printf.sprintf "%d words for %d cycles" grown cycles)
          true (grown < cycles));
    Alcotest.test_case "spent per-packet sources leave the index at expiry"
      `Quick (fun () ->
        let net = Scenario.line ~seed:"survival-spent" [ 100 ] in
        let alice =
          Scenario.host ~granularity:Granularity.Per_packet net ~as_number:100
            ~name:"alice" ~credential:"a"
        in
        let bob = Scenario.host net ~as_number:100 ~name:"bob" ~credential:"b" in
        let inbox = Scenario.inbox bob in
        Network.run net;
        let bep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
        (* The session's bound endpoint is Long-lived, so it never
           migrates; every per-packet source after it is Short (60 s). *)
        Host.set_ephid_lifetime alice Lifetime.Long;
        let session = Scenario.connect ~data0:"hello" net alice ~remote:bep.Host.cert in
        Host.set_ephid_lifetime alice Lifetime.Short;
        (* One send a second for four lifetimes. At any moment the index
           may hold the sources spent in the last lifetime, the prefetch
           stock (8) and the one bound endpoint — not every source ever
           spent. *)
        let per_lifetime = 60 and lifetimes = 4 in
        let n = per_lifetime * lifetimes in
        let peak = ref 0 in
        Scenario.pace net ~n ~span:(float_of_int n) (fun i ->
            ignore (Host.send alice session (Printf.sprintf "p%03d" i));
            peak := max !peak (List.length (Host.endpoints alice)));
        Network.run net;
        Alcotest.(check int) "all delivered" (n + 1) (List.length (inbox ()));
        let bound = per_lifetime + 8 + 1 in
        Alcotest.(check bool)
          (Printf.sprintf "peak %d endpoints <= %d" !peak bound)
          true (!peak <= bound));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_survival"
    [
      ("breaker", breaker_tests);
      ("migration", migration_tests);
      ("brownout", brownout_tests);
      ("bounds", bounds_tests);
    ]
