(* The hardened accountability agent under adversarial load: admission
   control (rate limit, duplicate-evidence dedup, evidence freshness),
   bounded-queue shedding priority, and batched revocation announcements.
   The campaign *generator* itself is covered in test/workload. *)

open Apna
open Apna_crypto

let qtest ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Drbg.create ~seed:"campaign-tests"
let now0 = 1_750_000_000
let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int
let as_keys = Keys.make_as rng ~aid:(aid 64500)
let other_as_keys = Keys.make_as rng ~aid:(aid 64501)

let check_err what expected = function
  | Error e when Error.equal e expected -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" what

(* One attacker host registered in AS 64500; the AA under test is that
   AS's. The victim lives in AS 64501 and holds a valid cert. *)
let aa_fixture ?limits ?(max_revocations_per_host = 100) () =
  let host_info = Host_info.create () in
  let h = hid 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info h kha;
  let revoked = Revocation.create () in
  let trust = Trust.create () in
  Trust.register_as trust (aid 64500) ~pub:(Ed25519.public_key as_keys.signing);
  Trust.register_as trust (aid 64501)
    ~pub:(Ed25519.public_key other_as_keys.signing);
  let agent =
    Accountability.create ~keys:as_keys ~host_info ~revoked ~trust
      ~max_revocations_per_host ?limits ()
  in
  (agent, revoked, host_info, h, kha)

(* A shutoff through the AA's one path, as As_node's drain timer runs it:
   admission ([enqueue]), then a drain pass. An admission refusal comes
   back typed; a refusal in verification is counted in
   [refusal_reasons]. *)
let shutoff agent ~now req =
  let at = float_of_int now in
  match Accountability.enqueue agent ~now ~at req with
  | Accountability.Refused e -> Error e
  | Shed -> Alcotest.fail "shutoff shed"
  | Queued -> (
      match Accountability.drain agent ~now ~at with
      | [ grant ] -> Ok grant
      | _ ->
          Alcotest.failf "refused in verification: %s"
            (String.concat ", " (List.map fst (Accountability.refusal_reasons agent))))

let make_victim () =
  let keys = Keys.make_ephid_keys rng in
  let ephid =
    Ephid.issue_random other_as_keys rng ~hid:(hid 7) ~expiry:(now0 + 900)
  in
  let cert =
    Cert.issue other_as_keys ~ephid ~expiry:(now0 + 900)
      ~kx_pub:keys.kx_public
      ~sig_pub:(Ed25519.public_key keys.sig_keypair)
      ~aa_ephid:ephid
  in
  (cert, keys)

(* Evidence: a packet the attacker host really sent to the victim (sealed
   under the attacker's kHA). Distinct payloads make distinct digests. *)
let evidence ~h ~kha ~(victim_cert : Cert.t) ?(expiry = now0 + 900) ~payload ()
    =
  let attacker_ephid = Ephid.issue_random as_keys rng ~hid:h ~expiry in
  let header =
    Apna_net.Apna_header.make ~src_aid:(aid 64500)
      ~src_ephid:(Ephid.to_bytes attacker_ephid)
      ~dst_aid:(aid 64501)
      ~dst_ephid:(Ephid.to_bytes victim_cert.ephid)
      ()
  in
  let pkt =
    Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload
  in
  Pkt_auth.seal ~auth_key:(kha : Keys.host_as).auth pkt

let request ~h ~kha ~victim ?expiry ~payload () =
  let victim_cert, victim_keys = victim in
  let pkt = evidence ~h ~kha ~victim_cert ?expiry ~payload () in
  Shutoff.make_request ~packet:pkt ~dst_cert:victim_cert ~dst_keys:victim_keys

let admission_tests =
  [
    Alcotest.test_case "token bucket refuses past the burst" `Quick (fun () ->
        let limits =
          { Accountability.default_limits with rate_burst = 4; rate_per_s = 1.0 }
        in
        let agent, revoked, _, h, kha = aa_fixture ~limits () in
        let victim = make_victim () in
        for i = 1 to 4 do
          match
            shutoff agent ~now:now0
              (request ~h ~kha ~victim ~payload:(Printf.sprintf "flow-%d" i) ())
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "request %d: %s" i (Error.to_string e)
        done;
        check_err "fifth request" (Error.Rejected "shutoff rate limit")
          (shutoff agent ~now:now0
             (request ~h ~kha ~victim ~payload:"flow-5" ()));
        Alcotest.(check int) "four revocations" 4 (Revocation.size revoked);
        (* Tokens refill with time: a second later the victim may report
           one more flow. *)
        Alcotest.(check bool) "refill admits again" true
          (Result.is_ok
             (shutoff agent ~now:(now0 + 2)
                (request ~h ~kha ~victim ~payload:"flow-6" ()))));
    Alcotest.test_case "duplicate evidence cannot double-revoke" `Quick
      (fun () ->
        let agent, revoked, _, h, kha = aa_fixture () in
        let victim = make_victim () in
        let req = request ~h ~kha ~victim ~payload:"once" () in
        (match shutoff agent ~now:now0 req with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "first: %s" (Error.to_string e));
        let gen = Revocation.generation revoked in
        check_err "replayed evidence" (Error.Rejected "duplicate evidence")
          (shutoff agent ~now:now0 req);
        Alcotest.(check int) "still one revocation" 1 (Revocation.size revoked);
        Alcotest.(check int) "quota counted once" 1
          (Accountability.revocations_of agent h);
        Alcotest.(check int) "no cache invalidation" gen
          (Revocation.generation revoked));
    Alcotest.test_case "expired-evidence replay is refused (regression)"
      `Quick (fun () ->
        (* The unwanted packet was real, but its source EphID's validity
           window has passed: the border router already drops that EphID,
           so granting would only burn quota and caches. *)
        let agent, revoked, _, h, kha = aa_fixture () in
        let victim = make_victim () in
        let req =
          request ~h ~kha ~victim ~expiry:(now0 + 900) ~payload:"stale" ()
        in
        let later = now0 + 901 in
        check_err "expired evidence" (Error.Expired "evidence")
          (shutoff agent ~now:later req);
        Alcotest.(check int) "nothing revoked" 0 (Revocation.size revoked);
        Alcotest.(check int) "no generation bump" 0
          (Revocation.generation revoked);
        Alcotest.(check (list (pair string int))) "typed refusal counted"
          [ ("expired", 1) ]
          (Accountability.refusal_reasons agent));
    Alcotest.test_case "implausible EphID expiry is refused" `Quick (fun () ->
        let agent, revoked, _, h, kha = aa_fixture () in
        let victim = make_victim () in
        let horizon = Accountability.(default_limits.max_expiry_horizon_s) in
        let req =
          request ~h ~kha ~victim
            ~expiry:(now0 + horizon + 86_400)
            ~payload:"forged-window" ()
        in
        check_err "beyond horizon"
          (Error.Rejected "evidence EphID beyond validity horizon")
          (shutoff agent ~now:now0 req);
        Alcotest.(check int) "nothing revoked" 0 (Revocation.size revoked));
  ]

let queue_tests =
  [
    Alcotest.test_case "load-shedding drops spam before legit evidence"
      `Quick (fun () ->
        (* Spammer burns its bucket below half: its later requests ride the
           low-priority queue. A legitimate victim arriving at a full queue
           evicts the oldest spam entry instead of being dropped. *)
        let limits =
          {
            Accountability.default_limits with
            rate_burst = 4;
            queue_cap = 4;
            drain_budget = 16;
          }
        in
        let agent, revoked, _, h, kha = aa_fixture ~limits () in
        let spammer_cert, _spammer_keys = make_victim () in
        let rogue = Keys.make_ephid_keys rng in
        for i = 1 to 4 do
          (* Structurally valid, wrong signing key: passes admission, dies
             at drain-time verification. *)
          let pkt =
            evidence ~h ~kha ~victim_cert:spammer_cert
              ~payload:(Printf.sprintf "spam-%d" i) ()
          in
          let bytes = Apna_net.Packet.to_bytes pkt in
          let forged =
            Msgs.Shutoff_request
              {
                packet = bytes;
                signature = Ed25519.sign rogue.sig_keypair bytes;
                cert = Cert.to_bytes spammer_cert;
              }
          in
          match Accountability.enqueue agent ~now:now0 ~at:0.0 forged with
          | Accountability.Queued -> ()
          | _ -> Alcotest.failf "spam %d should queue" i
        done;
        Alcotest.(check int) "queue full" 4 (Accountability.queue_depth agent);
        let victim = make_victim () in
        (match
           Accountability.enqueue agent ~now:now0 ~at:0.5
             (request ~h ~kha ~victim ~payload:"legit" ())
         with
        | Accountability.Queued -> ()
        | _ -> Alcotest.fail "legit evidence should evict spam, not shed");
        Alcotest.(check int) "still at cap" 4 (Accountability.queue_depth agent);
        Alcotest.(check int) "one spam entry shed" 1
          (Accountability.shed_count agent);
        let grants = Accountability.drain agent ~now:now0 ~at:1.0 in
        Alcotest.(check int) "only the legit request granted" 1
          (List.length grants);
        Alcotest.(check int) "its revocation landed" 1 (Revocation.size revoked);
        Alcotest.(check int) "queue drained" 0 (Accountability.queue_depth agent);
        Alcotest.(check int) "one propagation sample" 1
          (List.length (Accountability.propagation_samples agent)));
    Alcotest.test_case "a drain flushes grants as one revocation batch"
      `Quick (fun () ->
        let agent, revoked, _, h, kha = aa_fixture () in
        let victim = make_victim () in
        let gen0 = Revocation.generation revoked in
        for i = 1 to 5 do
          match
            Accountability.enqueue agent ~now:now0 ~at:(float_of_int i)
              (request ~h ~kha ~victim ~payload:(Printf.sprintf "b-%d" i) ())
          with
          | Accountability.Queued -> ()
          | _ -> Alcotest.failf "request %d should queue" i
        done;
        let grants = Accountability.drain agent ~now:now0 ~at:6.0 in
        Alcotest.(check int) "all granted" 5 (List.length grants);
        Alcotest.(check int) "all revoked" 5 (Revocation.size revoked);
        Alcotest.(check int) "one generation bump for the whole storm"
          (gen0 + 1)
          (Revocation.generation revoked);
        Alcotest.(check int) "quota counted each grant" 5
          (Accountability.revocations_of agent h));
    Alcotest.test_case "duplicate admitted before its twin's grant is caught"
      `Quick (fun () ->
        (* The same digest enqueued twice back-to-back: the dedup set only
           learns the digest at grant time, so the second copy must die at
           the drain-time re-check, not double-count the host's quota. *)
        let agent, revoked, _, h, kha = aa_fixture () in
        let victim = make_victim () in
        let req = request ~h ~kha ~victim ~payload:"twin" () in
        (match Accountability.enqueue agent ~now:now0 ~at:0.0 req with
        | Accountability.Queued -> ()
        | _ -> Alcotest.fail "first copy should queue");
        (match Accountability.enqueue agent ~now:now0 ~at:0.1 req with
        | Accountability.Queued -> ()
        | _ -> Alcotest.fail "second copy passes admission (not yet granted)");
        let grants = Accountability.drain agent ~now:now0 ~at:1.0 in
        Alcotest.(check int) "one grant" 1 (List.length grants);
        Alcotest.(check int) "one revocation" 1 (Revocation.size revoked);
        Alcotest.(check int) "quota counted once" 1
          (Accountability.revocations_of agent h));
    qtest "shed and refused requests never mutate revocation state"
      QCheck2.Gen.(int_range 0 1000)
      (fun n ->
        let limits =
          {
            Accountability.default_limits with
            rate_burst = 4;
            queue_cap = 3;
          }
        in
        let agent, revoked, host_info, h, kha = aa_fixture ~limits () in
        let cert, _keys = make_victim () in
        let rogue = Keys.make_ephid_keys rng in
        let gen0 = Revocation.generation revoked in
        let size0 = Revocation.size revoked in
        let requests = 4 + (n mod 9) in
        for i = 0 to requests - 1 do
          let expiry =
            (* Mix expired evidence in with forged-signature spam. *)
            if (n + i) mod 3 = 0 then now0 - 10 else now0 + 900
          in
          let pkt =
            evidence ~h ~kha ~victim_cert:cert
              ~payload:(Printf.sprintf "q-%d-%d" n i) ~expiry ()
          in
          let bytes = Apna_net.Packet.to_bytes pkt in
          let forged =
            Msgs.Shutoff_request
              {
                packet = bytes;
                signature = Ed25519.sign rogue.sig_keypair bytes;
                cert = Cert.to_bytes cert;
              }
          in
          ignore (Accountability.enqueue agent ~now:now0 ~at:0.0 forged)
        done;
        let grants = Accountability.drain agent ~now:now0 ~at:1.0 in
        grants = []
        && Revocation.generation revoked = gen0
        && Revocation.size revoked = size0
        && Host_info.mem_valid host_info h
        && Accountability.granted_count agent = 0);
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "campaign"
    [
      ("aa admission", admission_tests);
      ("aa queue", queue_tests);
    ]
