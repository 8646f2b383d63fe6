(* Scale-regression tests for PR 7: count-based cost sentinels proving the
   former quadratic hot spots now cost what they change, not what they
   hold (endpoint removal, audit gc, revocation gc, registry reverse
   lookup), the issue_batch ≡ sequential-grants equivalence property, the
   batch wire encodings, the heap the gc sweeps ride on, the prefetcher's
   batch RPC on the real network, and trace time compression. *)

open Apna
open Apna_crypto
module Heap = Apna_util.Heap

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Drbg.create ~seed:"scale"
let now0 = 1_750_000_000
let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let keys = Keys.make_as rng ~aid:(aid 64500)

(* ------------------------------------------------------------------ *)
(* Min-heap: the structure every O(changes) gc sweep rides on *)

let heap_tests =
  [
    qtest "pop_min drains in sorted order" ~count:50
      QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
      (fun prios ->
        let h = Heap.create ~dummy:"" () in
        List.iteri (fun i p -> Heap.push h ~prio:p (string_of_int i)) prios;
        let popped = ref [] in
        let rec drain () =
          match Heap.pop_min h with
          | Some (p, _) ->
              popped := p :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        Heap.is_empty h
        && List.rev !popped = List.sort compare prios);
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Heap.create ~dummy:0 () in
        Heap.push h ~prio:5 50;
        Heap.push h ~prio:3 30;
        Alcotest.(check (option (pair int int))) "peek" (Some (3, 30))
          (Heap.peek_min h);
        Alcotest.(check int) "length" 2 (Heap.length h);
        Alcotest.(check (option (pair int int))) "pop" (Some (3, 30))
          (Heap.pop_min h);
        Alcotest.(check int) "length after pop" 1 (Heap.length h));
  ]

(* ------------------------------------------------------------------ *)
(* Cost sentinels: the three named quadratic fixes + registry lookup *)

(* Endpoint removal must not rebuild the endpoint list: the probe counts
   entries examined, and it must not grow with how many endpoints the
   host holds. Each per-flow connection holds its own endpoint; closing
   one releases and removes it. *)
let endpoint_removal_cost () =
  let net = Scenario.line ~seed:"scale-endpoints" [ 100 ] in
  let h = Scenario.host net ~as_number:100 ~name:"h" ~credential:"h@scale" in
  let peer = Scenario.host net ~as_number:100 ~name:"peer" ~credential:"p@scale" in
  Network.run net;
  let remote = (Scenario.endpoint net peer).Host.cert in
  let cost_with n =
    let sessions = List.init n (fun _ -> Scenario.connect net h ~remote) in
    ok_or_fail "close" (Host.close h (List.nth sessions (n / 2)));
    Network.run net;
    Host.last_endpoint_op_cost h
  in
  let small = cost_with 4 in
  let big = cost_with 32 in
  Alcotest.(check int) "removal cost independent of endpoint count" small big;
  Alcotest.(check bool) "removal is O(1)" true (big <= 2)

(* Audit.gc must probe only buckets whose oldest entry can be expired,
   never fold over the whole retention log. *)
let audit_gc_cost () =
  let a = Audit.create ~retain_s:100 () in
  (* A large population of fresh bindings... *)
  for i = 1 to 2_000 do
    Audit.record_issuance a ~now:(now0 + 500)
      ~ephid:(Ephid.issue_random keys rng ~hid:(hid i) ~expiry:(now0 + 86_400))
      ~hid:(hid i)
  done;
  (* ...and three stale ones. *)
  for i = 9_001 to 9_003 do
    Audit.record_issuance a ~now:now0
      ~ephid:(Ephid.issue_random keys rng ~hid:(hid i) ~expiry:(now0 + 86_400))
      ~hid:(hid i)
  done;
  let removed = Audit.gc a ~now:(now0 + 200) in
  Alcotest.(check int) "only the stale entries removed" 3 removed;
  Alcotest.(check bool)
    (Printf.sprintf "gc probed %d, not the 2003-entry log"
       (Audit.last_gc_cost a))
    true
    (Audit.last_gc_cost a <= 12);
  (* A clean sweep over an already-clean log costs nothing. *)
  ignore (Audit.gc a ~now:(now0 + 200));
  Alcotest.(check int) "idle sweep examines nothing" 0 (Audit.last_gc_cost a)

(* Revocation.gc: O(stale · log n), never a walk of the live list. *)
let revocation_gc_cost () =
  let r = Revocation.create () in
  for i = 1 to 2_000 do
    Revocation.revoke r
      (Ephid.issue_random keys rng ~hid:(hid i) ~expiry:(now0 + 86_400))
      ~expiry:(now0 + 86_400)
  done;
  for i = 3_001 to 3_005 do
    Revocation.revoke r
      (Ephid.issue_random keys rng ~hid:(hid i) ~expiry:(now0 + 10))
      ~expiry:(now0 + 10)
  done;
  Alcotest.(check int) "size before" 2_005 (Revocation.size r);
  let removed = Revocation.gc r ~now:(now0 + 60) in
  Alcotest.(check int) "expired entries removed" 5 removed;
  Alcotest.(check int) "size after" 2_000 (Revocation.size r);
  Alcotest.(check bool)
    (Printf.sprintf "gc examined %d candidates, not the live 2000"
       (Revocation.last_gc_cost r))
    true
    (Revocation.last_gc_cost r <= 6);
  ignore (Revocation.gc r ~now:(now0 + 60));
  Alcotest.(check int) "idle sweep examines nothing" 0
    (Revocation.last_gc_cost r)

(* Re-revoking an already-revoked EphID must not grow the expiry heap: a
   revocation storm that keeps accusing the same EphIDs would otherwise
   pile duplicate candidates the next gc has to pop one by one. *)
let revocation_rerevoke_cost () =
  let r = Revocation.create () in
  let victims =
    Array.init 50 (fun i ->
        Ephid.issue_random keys rng ~hid:(hid (i + 1)) ~expiry:(now0 + 10))
  in
  Array.iter (fun e -> Revocation.revoke r e ~expiry:(now0 + 10)) victims;
  let gen_after_first = Revocation.generation r in
  (* The storm: every victim re-accused 40 times over. *)
  for _ = 1 to 40 do
    Array.iter (fun e -> Revocation.revoke r e ~expiry:(now0 + 10)) victims
  done;
  Alcotest.(check int) "still 50 entries" 50 (Revocation.size r);
  Alcotest.(check int) "duplicate revokes bump no generation" gen_after_first
    (Revocation.generation r);
  ignore (Revocation.gc r ~now:(now0 + 60));
  Alcotest.(check bool)
    (Printf.sprintf "gc examined %d candidates for 50 entries, not 2050"
       (Revocation.last_gc_cost r))
    true
    (Revocation.last_gc_cost r <= 50);
  (* Batch form: the whole storm costs one generation bump. *)
  let gen0 = Revocation.generation r in
  let entries =
    Array.to_list (Array.map (fun e -> (e, now0 + 120)) victims)
  in
  let changed = Revocation.revoke_many r entries in
  Alcotest.(check int) "all entries changed" 50 changed;
  Alcotest.(check int) "one bump for the batch" (gen0 + 1)
    (Revocation.generation r);
  Alcotest.(check int) "batch replay is a no-op" 0
    (Revocation.revoke_many r entries)

(* The broker-facing reverse lookup answers from an index: one probe,
   regardless of how many customers the registry holds. *)
let registry_lookup_cost () =
  let hi = Host_info.create ~expected_hosts:4_096 () in
  let reg = Registry.create ~keys ~host_info:hi ~rng () in
  let admissions =
    Array.init 4_096 (fun i ->
        Registry.admit reg ~now:now0
          ~credential:(Printf.sprintf "c%d" i)
          ~shared_secret:(Drbg.generate rng 32))
  in
  let a = admissions.(2_048) in
  Alcotest.(check (option string)) "reverse lookup answers"
    (Some "c2048")
    (Registry.credential_of_hid reg a.Registry.hid);
  Alcotest.(check int) "lookup cost is one probe" 1
    (Registry.last_lookup_cost reg);
  Alcotest.(check int) "population indexed" 4_096 (Registry.customer_count reg)

(* A control key in use is the 32-byte secret and nothing else: a 6-word
   heap string (header, four words of key, one of padding). A key
   schedule or MAC midstates held per host would show here; the AES-CTR
   + HMAC AEAD's key read 218 words. *)
let control_key_words_max = 6

let control_key_words () =
  let kha = Keys.derive_host_as ~shared_secret:(String.make 32 'c') in
  let key = Keys.ctrl kha in
  ignore (Aead.seal ~key ~nonce:(String.make Aead.nonce_size 'n') "request");
  let words = Obj.reachable_words (Obj.repr (Keys.ctrl kha)) in
  if words > control_key_words_max then
    Alcotest.failf "control key reaches %d words (max %d)" words control_key_words_max

let sentinel_tests =
  [
    Alcotest.test_case "endpoint removal is O(1), not O(endpoints)" `Quick
      endpoint_removal_cost;
    Alcotest.test_case "audit gc cost scales with expirable buckets" `Quick
      audit_gc_cost;
    Alcotest.test_case "revocation gc cost scales with stale entries" `Quick
      revocation_gc_cost;
    Alcotest.test_case "re-revocation storms stay flat in heap and caches"
      `Quick revocation_rerevoke_cost;
    Alcotest.test_case "registry reverse lookup is one probe" `Quick
      registry_lookup_cost;
    Alcotest.test_case "a used kHA control key is its 32 bytes" `Quick
      control_key_words;
  ]

(* ------------------------------------------------------------------ *)
(* Batched issuance: equivalence and wire encodings *)

(* Both instances under comparison must agree on everything but the
   issue path — including the AA EphID embedded in every certificate. *)
let shared_aa_ephid =
  Ephid.issue_random keys rng ~hid:(hid 3) ~expiry:(now0 + 86_400)

let fresh_ms ~seed =
  let r = Drbg.create ~seed in
  let hi = Host_info.create () in
  let h = hid 0x0a000001 in
  Host_info.register hi h (Keys.derive_host_as ~shared_secret:(String.make 32 's'));
  (Management.create ~keys ~host_info:hi ~rng:r ~aa_ephid:shared_aa_ephid (), h)

let batch_equivalence_tests =
  [
    (* The issuance DRBG is the only nondeterminism: under the same seed,
       issue_batch n must mint byte-identical EphIDs and certificates to
       n sequential grants. *)
    qtest "issue_batch n ≡ n sequential grants (same DRBG seed)" ~count:30
      QCheck2.Gen.(int_range 1 Msgs.Batch_request_body.max_batch)
      (fun n ->
        let krng = Drbg.create ~seed:(Printf.sprintf "items-%d" n) in
        let items =
          List.init n (fun _ ->
              let ek = Keys.make_ephid_keys krng in
              {
                Msgs.Batch_request_body.kx_pub = ek.kx_public;
                sig_pub = Ed25519.public_key ek.sig_keypair;
              })
        in
        let ms_b, hid_b = fresh_ms ~seed:"equiv" in
        let batch =
          match
            Management.issue_batch ms_b ~now:now0 ~hid:hid_b ~items
              ~lifetime:Lifetime.Medium
          with
          | Ok certs -> certs
          | Error e -> QCheck2.Test.fail_reportf "batch: %s" (Error.to_string e)
        in
        let ms_s, hid_s = fresh_ms ~seed:"equiv" in
        let sequential =
          List.map
            (fun (it : Msgs.Batch_request_body.item) ->
              match
                Management.issue_direct ms_s ~now:now0 ~hid:hid_s
                  ~kx_pub:it.kx_pub ~sig_pub:it.sig_pub
                  ~lifetime:Lifetime.Medium
              with
              | Ok c -> c
              | Error e ->
                  QCheck2.Test.fail_reportf "direct: %s" (Error.to_string e))
            items
        in
        List.for_all2
          (fun a b -> Cert.to_bytes a = Cert.to_bytes b)
          batch sequential);
    Alcotest.test_case "batch count bounds enforced" `Quick (fun () ->
        let ms, h = fresh_ms ~seed:"bounds" in
        (match
           Management.issue_batch ms ~now:now0 ~hid:h ~items:[]
             ~lifetime:Lifetime.Short
         with
        | Error (Error.Malformed _) -> ()
        | _ -> Alcotest.fail "empty batch must be rejected");
        let ek = Keys.make_ephid_keys rng in
        let item =
          {
            Msgs.Batch_request_body.kx_pub = ek.kx_public;
            sig_pub = Ed25519.public_key ek.sig_keypair;
          }
        in
        let too_many =
          List.init (Msgs.Batch_request_body.max_batch + 1) (fun _ -> item)
        in
        match
          Management.issue_batch ms ~now:now0 ~hid:h ~items:too_many
            ~lifetime:Lifetime.Short
        with
        | Error (Error.Malformed _) -> ()
        | _ -> Alcotest.fail "oversized batch must be rejected");
    qtest "batch request body round-trips" ~count:50
      QCheck2.Gen.(int_range 1 Msgs.Batch_request_body.max_batch)
      (fun n ->
        let krng = Drbg.create ~seed:(Printf.sprintf "wire-%d" n) in
        let body =
          {
            Msgs.Batch_request_body.items =
              List.init n (fun _ ->
                  {
                    Msgs.Batch_request_body.kx_pub = Drbg.generate krng 32;
                    sig_pub = Drbg.generate krng 32;
                  });
            lifetime = Lifetime.Medium;
          }
        in
        match
          Msgs.Batch_request_body.of_bytes
            (Msgs.Batch_request_body.to_bytes body)
        with
        | Ok b -> b = body
        | Error _ -> false);
    qtest "batch reply body round-trips" ~count:50
      QCheck2.Gen.(
        list_size (int_range 1 Msgs.Batch_request_body.max_batch)
          (string_size (int_range 0 200)))
      (fun certs ->
        match
          Msgs.Batch_reply_body.of_bytes (Msgs.Batch_reply_body.to_bytes certs)
        with
        | Ok c -> c = certs
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* The prefetcher refills its stock over the batch RPC on the real
   network, and the grants enter the endpoint index. *)

let prefetch_uses_batch () =
  let net = Scenario.line ~seed:"scale-prefetch" [ 100 ] in
  let as_node = Network.node_exn net 100 in
  let h =
    Scenario.host ~granularity:Granularity.Per_packet net ~as_number:100 ~name:"p"
      ~credential:"p@scale"
  in
  Network.run net;
  (* The prefetcher backs per-packet sources and refills on demand, when
     the first flow draws a fresh EphID: a loopback session forces the
     draw. *)
  let ep = Scenario.endpoint net h in
  let session = ref None in
  Host.connect h ~remote:ep.cert ~data0:"warm" (fun s ->
      session := Some s);
  Network.run net;
  Alcotest.(check bool) "session established" true (!session <> None);
  (* A per-packet data frame draws a fresh source EphID; the prefetcher
     then refills its whole deficit in one batched round trip. *)
  ok_or_fail "send" (Host.send h (Option.get !session) "frame-1");
  Network.run net;
  let ms = As_node.management as_node in
  Alcotest.(check bool) "prefetch refill went over the batch RPC" true
    (Management.batch_request_count ms > 0);
  (* The batch grants are real, usable stock: subsequent per-packet
     draws are served from the prefetched queue without new batches. *)
  let before = Management.batch_request_count ms in
  for i = 2 to 4 do
    ok_or_fail "send" (Host.send h (Option.get !session) (Printf.sprintf "frame-%d" i));
    Network.run net
  done;
  Alcotest.(check bool) "stock absorbed the draws (at most one refill)" true
    (Management.batch_request_count ms <= before + 1)

let batch_rpc_tests =
  [
    Alcotest.test_case "host prefetcher refills via issue_batch" `Quick
      prefetch_uses_batch;
  ]

(* ------------------------------------------------------------------ *)
(* Trace compression: same shape, shorter clock *)

let compression_tests =
  [
    Alcotest.test_case "compress keeps rates, scales time" `Quick (fun () ->
        let cfg = Apna_workload.Trace.paper_config in
        let c = Apna_workload.Trace.compress cfg ~factor:2_000.0 in
        Alcotest.(check (float 1e-6)) "window scaled"
          (cfg.duration_s /. 2_000.0) c.duration_s;
        Alcotest.(check (float 1e-6)) "peak time scaled"
          (cfg.peak_at_s /. 2_000.0) c.peak_at_s;
        Alcotest.(check (float 1e-6)) "peak rate preserved"
          (Apna_workload.Trace.rate_at cfg cfg.peak_at_s)
          (Apna_workload.Trace.rate_at c c.peak_at_s);
        (* Trough (half a period away) preserved too. *)
        Alcotest.(check (float 1e-6)) "trough rate preserved"
          (cfg.trough_ratio *. cfg.peak_rate)
          (Apna_workload.Trace.rate_at c
             (c.peak_at_s +. (c.duration_s /. 2.0)));
        Alcotest.check_raises "factor < 1 rejected"
          (Invalid_argument "Trace.compress: factor must be >= 1") (fun () ->
            ignore (Apna_workload.Trace.compress cfg ~factor:0.5)));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_scale"
    [
      ("heap", heap_tests);
      ("cost_sentinels", sentinel_tests);
      ("batch_issuance", batch_equivalence_tests);
      ("batch_rpc", batch_rpc_tests);
      ("trace_compression", compression_tests);
    ]
