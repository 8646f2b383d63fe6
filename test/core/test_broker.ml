(* Tests for the privacy broker: budget metering, the hash-chained
   decision journal, requester authentication and authorization, wire
   encodings, the audit-index complexity guarantees, and a metered
   request travelling the data plane to the broker's service EphID. *)

open Apna
open Apna_crypto
module B = Apna_broker.Broker
module Budget = Apna_broker.Budget
module Journal = Apna_broker.Journal
module M = Apna_obs.Metrics

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Drbg.create ~seed:"broker"
let now0 = 1_750_000_000
let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let keys = Keys.make_as rng ~aid:(aid 64500)

let le_key = "le-shared-key"

let make_broker ?audit ?credential_of ?budget () =
  let b = B.create ~keys ?audit ?credential_of ?budget () in
  B.register_requester b ~id:"le" ~role:B.Law_enforcement ~key:le_key ~now:now0;
  b

let ask ?(corr = 1L) ?(id = "le") ?(key = le_key) b ~now q =
  B.handle b ~now (B.Request.sign ~key ~corr ~requester:id ~query:q)

(* ------------------------------------------------------------------ *)
(* Budget: token-bucket state machine *)

let budget_tests =
  [
    Alcotest.test_case "charge, exhaust, lazy epoch refill" `Quick (fun () ->
        let b = Budget.create ~epoch_s:60 ~capacity:50 ~refill:20 () in
        Budget.register b ~id:"le" ~now:0;
        (match Budget.charge b ~id:"le" ~now:0 ~cost:30 with
        | Budget.Charged { remaining; _ } ->
            Alcotest.(check int) "after first charge" 20 remaining
        | Budget.Exhausted _ -> Alcotest.fail "should be covered");
        (match Budget.charge b ~id:"le" ~now:10 ~cost:30 with
        | Budget.Exhausted { remaining; retry_after_s; _ } ->
            Alcotest.(check int) "balance untouched" 20 remaining;
            (* One refill epoch (at t=60) covers the shortfall. *)
            Alcotest.(check int) "retry hint" 50 retry_after_s
        | Budget.Charged _ -> Alcotest.fail "should be exhausted");
        (match Budget.charge b ~id:"le" ~now:10 ~cost:60 with
        | Budget.Exhausted { retry_after_s; _ } ->
            Alcotest.(check int) "cost above capacity never succeeds" (-1)
              retry_after_s
        | Budget.Charged _ -> Alcotest.fail "cost above capacity");
        (* After one epoch the bucket has refilled by 20. *)
        (match Budget.charge b ~id:"le" ~now:65 ~cost:30 with
        | Budget.Charged { remaining; _ } ->
            Alcotest.(check int) "refilled then charged" 10 remaining
        | Budget.Exhausted _ -> Alcotest.fail "refill should cover");
        (* Refill accumulates across elapsed epochs but clamps at
           capacity. *)
        Alcotest.(check int) "clamped at capacity" 50
          (Budget.remaining b ~id:"le" ~now:600));
    Alcotest.test_case "unknown account is always exhausted" `Quick (fun () ->
        let b = Budget.create () in
        Alcotest.(check int) "zero balance" 0 (Budget.remaining b ~id:"who" ~now:0);
        match Budget.charge b ~id:"who" ~now:0 ~cost:1 with
        | Budget.Exhausted { retry_after_s; _ } ->
            Alcotest.(check int) "never refills" (-1) retry_after_s
        | Budget.Charged _ -> Alcotest.fail "unknown account charged");
  ]

(* ------------------------------------------------------------------ *)
(* Journal: hash chain, trimming, tamper evidence *)

let journal_tests =
  [
    Alcotest.test_case "chain verifies; tampering is detected" `Quick (fun () ->
        let j = Journal.create ~owner:"t1" () in
        for i = 0 to 9 do
          ignore (Journal.append j ~now:(now0 + i) (Printf.sprintf "entry %d" i))
        done;
        Alcotest.(check int) "length" 10 (Journal.length j);
        Alcotest.(check bool) "verifies" true (Result.is_ok (Journal.verify j));
        let head_before = Journal.head j in
        Alcotest.(check bool) "tamper hits" true
          (Journal.tamper_for_test j ~seq:3 ~payload:"entry 3 (rewritten)");
        (match Journal.verify j with
        | Ok () -> Alcotest.fail "tampered journal verified"
        | Error e ->
            Alcotest.(check string) "names the entry"
              "journal entry 3: hash mismatch" e);
        (* The head commits to history: tampering did not change it. *)
        Alcotest.(check string) "head unchanged by tamper" head_before
          (Journal.head j));
    Alcotest.test_case "trimming keeps the window verifiable" `Quick (fun () ->
        let j = Journal.create ~cap:4 ~owner:"t2" () in
        for i = 0 to 9 do
          ignore (Journal.append j ~now:(now0 + i) (Printf.sprintf "e%d" i))
        done;
        Alcotest.(check int) "retained" 4 (Journal.length j);
        Alcotest.(check int) "appended" 10 (Journal.appended j);
        Alcotest.(check int) "trimmed" 6 (Journal.trimmed j);
        Alcotest.(check bool) "window verifies" true
          (Result.is_ok (Journal.verify j));
        (* Oldest retained entry is seq 6. *)
        match Journal.to_list j with
        | { Journal.seq = 6; _ } :: _ -> ()
        | { Journal.seq; _ } :: _ -> Alcotest.failf "oldest seq %d" seq
        | [] -> Alcotest.fail "empty");
  ]

(* ------------------------------------------------------------------ *)
(* Broker pipeline: authn, authz, metering, recovery *)

let some_ephid ?(h = 0x0a000001) () =
  Ephid.issue_random keys rng ~hid:(hid h) ~expiry:(now0 + 900)

let pipeline_tests =
  [
    Alcotest.test_case "unknown requester and bad MAC are refused" `Quick
      (fun () ->
        let b = make_broker () in
        (match ask b ~now:now0 ~id:"nobody" (B.Request.Deanonymize (some_ephid ())) with
        | B.Response.Refused { reason = Error.Auth_failed; _ } -> ()
        | _ -> Alcotest.fail "unknown requester not refused");
        (match
           ask b ~now:now0 ~key:"wrong-key" (B.Request.Deanonymize (some_ephid ()))
         with
        | B.Response.Refused { reason = Error.Auth_failed; _ } -> ()
        | _ -> Alcotest.fail "forged MAC not refused");
        (* Neither failure consumed budget. *)
        Alcotest.(check int) "budget intact" 100
          (Budget.remaining (B.budget b) ~id:"le" ~now:now0);
        Alcotest.(check int) "both journaled" 2 (Journal.length (B.journal b)));
    Alcotest.test_case "authorization matrix" `Quick (fun () ->
        let b = make_broker () in
        B.register_requester b ~id:"aa" ~role:B.Accountability_agent ~key:"aa-k"
          ~now:now0;
        B.register_requester b ~id:"peer" ~role:B.Peer_as ~key:"peer-k" ~now:now0;
        let refused_role ~id ~key q =
          match ask b ~now:now0 ~id ~key q with
          | B.Response.Refused { reason = Error.Rejected _; _ } -> true
          | _ -> false
        in
        (* The AA may not pull full binding histories. *)
        Alcotest.(check bool) "aa bindings refused" true
          (refused_role ~id:"aa" ~key:"aa-k" (B.Request.Bindings_of (hid 7)));
        (* A peer AS may only attribute packets. *)
        Alcotest.(check bool) "peer deanonymize refused" true
          (refused_role ~id:"peer" ~key:"peer-k"
             (B.Request.Deanonymize (some_ephid ())));
        Alcotest.(check bool) "peer bindings refused" true
          (refused_role ~id:"peer" ~key:"peer-k" (B.Request.Bindings_of (hid 7)));
        (* An unauthorized query costs nothing. *)
        Alcotest.(check int) "peer budget intact" 100
          (Budget.remaining (B.budget b) ~id:"peer" ~now:now0));
    Alcotest.test_case "deanonymize grant carries hid and credential" `Quick
      (fun () ->
        let target = hid 0x0a00002a in
        let credential_of h =
          if Apna_net.Addr.hid_equal h target then Some "mallory@isp" else None
        in
        let b = make_broker ~credential_of () in
        let e = Ephid.issue_random keys rng ~hid:target ~expiry:(now0 + 900) in
        match ask b ~now:now0 (B.Request.Deanonymize e) with
        | B.Response.Granted
            { grant = B.Response.Identity { hid = h; expiry; credential }; cost;
              remaining; _ } ->
            Alcotest.(check bool) "hid" true (Apna_net.Addr.hid_equal h target);
            Alcotest.(check int) "expiry" (now0 + 900) expiry;
            Alcotest.(check (option string)) "credential" (Some "mallory@isp")
              credential;
            Alcotest.(check int) "cost" 10 cost;
            Alcotest.(check int) "remaining" 90 remaining
        | _ -> Alcotest.fail "deanonymize refused");
    Alcotest.test_case "refusal then refill recovery" `Quick (fun () ->
        (* capacity 10 = exactly one deanonymization; the second request
           is refused with a typed error, and works again after refill. *)
        let budget = Budget.create ~epoch_s:60 ~capacity:10 ~refill:10 () in
        let b = make_broker ~budget () in
        (match ask b ~now:now0 (B.Request.Deanonymize (some_ephid ())) with
        | B.Response.Granted { remaining = 0; _ } -> ()
        | _ -> Alcotest.fail "first request should be granted");
        (match ask b ~now:(now0 + 1) (B.Request.Deanonymize (some_ephid ())) with
        | B.Response.Refused { reason = Error.Budget_exhausted _; _ } -> ()
        | _ -> Alcotest.fail "over-budget request not refused");
        (match ask b ~now:(now0 + 70) (B.Request.Deanonymize (some_ephid ())) with
        | B.Response.Granted _ -> ()
        | _ -> Alcotest.fail "refilled request refused");
        Alcotest.(check int) "grants" 2 (B.grants b);
        Alcotest.(check int) "refusals" 1 (B.refusals b);
        Alcotest.(check bool) "journal verifies" true
          (Result.is_ok (B.verify_journal b)));
    Alcotest.test_case "failed queries are still charged" `Quick (fun () ->
        (* Without a retention log only Deanonymize can be served — but a
           probing Bindings_of still spends budget. *)
        let b = make_broker () in
        (match ask b ~now:now0 (B.Request.Bindings_of (hid 9)) with
        | B.Response.Refused { reason = Error.Rejected _; remaining; _ } ->
            Alcotest.(check int) "charged" 75 remaining
        | _ -> Alcotest.fail "expected rejection");
        (* A garbled EphID (not ours) burns its cost too. *)
        let bogus = ok_or_fail "of_bytes" (
          Result.map_error (fun e -> Error.Malformed e)
            (Ephid.of_bytes (String.make Ephid.size '\xab'))) in
        match ask b ~now:now0 (B.Request.Deanonymize bogus) with
        | B.Response.Refused { reason = Error.Malformed _; remaining; _ } ->
            Alcotest.(check int) "charged again" 65 remaining
        | _ -> Alcotest.fail "expected malformed refusal");
  ]

(* ------------------------------------------------------------------ *)
(* Wire encodings: round-trips and totality *)

let gen_query =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun s -> B.Request.Deanonymize (Result.get_ok (Ephid.of_bytes s)))
          (string_size ~gen:char (return Ephid.size));
        map (fun h -> B.Request.Bindings_of (hid (h land 0x7fffffff))) nat;
        map (fun d -> B.Request.Attribute_packet d) (string_size (int_bound 64));
      ])

let gen_request =
  QCheck2.Gen.(
    map3
      (fun corr requester query ->
        B.Request.sign ~key:"k" ~corr ~requester ~query)
      int64 (string_size (int_bound 32)) gen_query)

let gen_grant =
  QCheck2.Gen.(
    let gen_ephid =
      map
        (fun s -> Result.get_ok (Ephid.of_bytes s))
        (string_size ~gen:char (return Ephid.size))
    in
    let gen_cred = opt (string_size (int_bound 32)) in
    oneof
      [
        map3
          (fun h expiry credential ->
            B.Response.Identity { hid = hid (h land 0x7fffffff); expiry; credential })
          nat nat gen_cred;
        map
          (fun bs -> B.Response.Bindings bs)
          (list_size (int_bound 20) (pair nat gen_ephid));
        map3
          (fun at (ephid, h) credential ->
            B.Response.Attribution
              { at; ephid; hid = hid (h land 0x7fffffff); credential })
          nat (pair gen_ephid nat) gen_cred;
      ])

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun corr (cost, remaining) grant ->
            B.Response.Granted { corr; cost; remaining; grant })
          int64 (pair nat nat) gen_grant;
        map3
          (fun corr what remaining ->
            B.Response.Refused
              { corr; reason = Error.Budget_exhausted what; remaining })
          int64 (string_size (int_bound 32)) nat;
      ])

let wire_tests =
  [
    qtest "request round-trips" gen_request (fun req ->
        match B.Request.of_bytes (B.Request.to_bytes req) with
        | Ok req' -> req = req'
        | Error _ -> false);
    qtest "request MAC verifies after round-trip" gen_request (fun req ->
        match B.Request.of_bytes (B.Request.to_bytes req) with
        | Ok req' -> B.Request.verify ~key:"k" req'
        | Error _ -> false);
    qtest "response round-trips" gen_response (fun resp ->
        match B.Response.of_bytes (B.Response.to_bytes resp) with
        | Ok resp' -> resp = resp'
        | Error _ -> false);
    qtest "of_bytes is total on junk" ~count:500
      QCheck2.Gen.(string_size (int_bound 128))
      (fun junk ->
        (match B.Request.of_bytes junk with Ok _ | Error _ -> true)
        && (match B.Response.of_bytes junk with Ok _ | Error _ -> true));
    qtest "error codec round-trips" ~count:200
      QCheck2.Gen.(pair (int_bound 11) (string_size (int_bound 16)))
      (fun (tag, payload) ->
        match Error.of_wire tag payload with
        | Error _ -> false
        | Ok e ->
            let tag', payload' = Error.to_wire e in
            tag' = tag
            (* payload-less variants drop the payload *)
            && (payload' = payload || payload' = ""));
  ]

(* ------------------------------------------------------------------ *)
(* Audit index: queries cost the answer, not the stream (satellite perf
   regression — count-based, no timing flake) *)

let index_tests =
  [
    Alcotest.test_case "bindings_of cost is the bucket, not the stream" `Quick
      (fun () ->
        let a = Audit.create () in
        let target = hid 0x0a000001 in
        (* 2000 issuances for other subscribers, 10 for the target. *)
        for i = 1 to 2000 do
          Audit.record_issuance a ~now:(now0 + i)
            ~ephid:(some_ephid ())
            ~hid:(hid (0x0a001000 + i))
        done;
        for i = 1 to 10 do
          Audit.record_issuance a ~now:(now0 + i) ~ephid:(some_ephid ())
            ~hid:target
        done;
        Audit.record_egress a ~now:now0 ~ephid:(some_ephid ())
          ~digest:"needle";
        let b = make_broker ~audit:a () in
        (match ask b ~now:now0 (B.Request.Bindings_of target) with
        | B.Response.Granted { grant = B.Response.Bindings bs; _ } ->
            Alcotest.(check int) "answer size" 10 (List.length bs)
        | _ -> Alcotest.fail "bindings refused");
        Alcotest.(check int) "examined = answer, not stream" 10
          (Audit.last_query_cost a);
        (match ask b ~now:now0 (B.Request.Attribute_packet "needle") with
        | B.Response.Granted _ -> ()
        | _ -> Alcotest.fail "attribution refused");
        Alcotest.(check int) "digest lookup is O(1)" 1
          (Audit.last_query_cost a));
    Alcotest.test_case "gc bounds memory and the gauges track it" `Quick
      (fun () ->
        M.set_enabled M.default true;
        Fun.protect ~finally:(fun () -> M.set_enabled M.default false)
        @@ fun () ->
        let a = Audit.create ~retain_s:100 ~owner:"gc-test" () in
        for i = 0 to 499 do
          let h = hid (0x0a000001 + (i mod 50)) in
          Audit.record_issuance a ~now:(now0 + i) ~ephid:(some_ephid ()) ~hid:h;
          Audit.record_egress a ~now:(now0 + i) ~ephid:(some_ephid ())
            ~digest:(Printf.sprintf "d%d" i)
        done;
        Alcotest.(check int) "issuance before" 500 (Audit.issuance_count a);
        let g_iss =
          M.Gauge.register M.default
            ~labels:[ ("owner", "gc-test") ]
            "apna_audit_issuance_entries"
        in
        let g_egr =
          M.Gauge.register M.default
            ~labels:[ ("owner", "gc-test") ]
            "apna_audit_egress_entries"
        in
        Alcotest.(check (float 0.01)) "gauge before" 500.0 (M.Gauge.value g_iss);
        (* Advance past the window for the first 400 entries. *)
        let removed = Audit.gc a ~now:(now0 + 499 + 1) in
        Alcotest.(check int) "removed both streams" 800 removed;
        Alcotest.(check int) "issuance after" 100 (Audit.issuance_count a);
        Alcotest.(check int) "egress after" 100 (Audit.egress_count a);
        Alcotest.(check (float 0.01)) "issuance gauge tracks" 100.0
          (M.Gauge.value g_iss);
        Alcotest.(check (float 0.01)) "egress gauge tracks" 100.0
          (M.Gauge.value g_egr));
    Alcotest.test_case "journal entries gauge tracks the ring" `Quick (fun () ->
        M.set_enabled M.default true;
        Fun.protect ~finally:(fun () -> M.set_enabled M.default false)
        @@ fun () ->
        let j = Journal.create ~cap:32 ~owner:"gauge-test" () in
        for i = 0 to 99 do
          ignore (Journal.append j ~now:(now0 + i) "x")
        done;
        let g =
          M.Gauge.register M.default
            ~labels:[ ("owner", "gauge-test") ]
            "apna_broker_journal_entries"
        in
        Alcotest.(check (float 0.01)) "bounded at cap" 32.0 (M.Gauge.value g));
  ]

(* ------------------------------------------------------------------ *)
(* End to end: a metered request rides the data plane to HID 5 *)

let e2e_tests =
  [
    Alcotest.test_case "wire request to the broker service EphID" `Quick
      (fun () ->
        let net = Scenario.line ~seed:"broker-e2e" ~retention:100 [ 100; 300 ] in
        let isp = Network.node_exn net 100 in
        let alice =
          Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice@isp"
        in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob" in
        let bep = Scenario.endpoint net bob in
        let broker = B.for_node isp in
        B.register_requester broker ~id:"le" ~role:B.Law_enforcement ~key:le_key
          ~now:0;
        (* Traffic to populate the retention log. *)
        let captured = ref None in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.Apna_net.Packet.proto = Apna_net.Packet.Data then
              captured := Some pkt);
        Host.connect alice ~remote:bep.cert ~data0:"evidence" (fun _ -> ());
        Network.run net;
        let evidence = Option.get !captured in
        (* The LE principal mails its request to the ISP's broker EphID
           from bob's address, and the response rides back over the
           inter-AS link. *)
        let req =
          B.Request.sign ~key:le_key ~corr:42L ~requester:"le"
            ~query:(B.Request.Attribute_packet (Apna_net.Packet.digest evidence))
        in
        let bob_ephid = bep.cert.Cert.ephid in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 300)
            ~src_ephid:(Ephid.to_bytes bob_ephid) ~dst_aid:(aid 100)
            ~dst_ephid:(Ephid.to_bytes (As_node.broker_ephid isp))
            ()
        in
        let reply = ref None in
        Network.set_tap net (fun ~from ~to_:_ pkt ->
            if
              Apna_net.Addr.aid_equal from (aid 100)
              && pkt.Apna_net.Packet.proto = Apna_net.Packet.Control
              && String.equal pkt.header.dst_ephid (Ephid.to_bytes bob_ephid)
            then reply := Some pkt);
        As_node.receive isp
          (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Control
             ~payload:(B.Request.to_bytes req));
        Network.run net;
        (match !reply with
        | None -> Alcotest.fail "no broker response on the wire"
        | Some pkt -> begin
            match B.Response.of_bytes pkt.payload with
            | Ok
                (B.Response.Granted
                   { corr = 42L;
                     grant = B.Response.Attribution { credential; _ }; _ }) ->
                Alcotest.(check (option string)) "attributed to alice"
                  (Some "alice@isp") credential
            | Ok _ -> Alcotest.fail "unexpected response"
            | Error e -> Alcotest.failf "bad response: %s" (Error.to_string e)
          end);
        Alcotest.(check bool) "journal verifies" true
          (Result.is_ok (B.verify_journal broker)));
  ]

let () =
  Alcotest.run "broker"
    [
      ("budget", budget_tests);
      ("journal", journal_tests);
      ("pipeline", pipeline_tests);
      ("wire", wire_tests);
      ("index", index_tests);
      ("e2e", e2e_tests);
    ]
