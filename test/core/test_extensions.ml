(* Tests for the paper's §VIII extension machinery: path-proof-strengthened
   shutoff (§VIII-C), in-network replay filtering (§VIII-D future work),
   host notification of revocations (§VIII-A), and APNA-as-a-Service
   (§VIII-E). *)

open Apna
open Apna_crypto

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Drbg.create ~seed:"ext"
let now0 = 1_750_000_000
let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Path proof (§VIII-C) *)

let sample_packet keys =
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  let e = Ephid.issue_random keys rng ~hid:(hid 1) ~expiry:(now0 + 900) in
  let header =
    Apna_net.Apna_header.make ~src_aid:(aid 64500) ~src_ephid:(Ephid.to_bytes e)
      ~dst_aid:(aid 64503) ~dst_ephid:(String.make 16 'd') ()
  in
  Pkt_auth.seal ~auth_key:kha.auth
    (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"p")

let path_proof_tests =
  let src = Keys.make_as rng ~aid:(aid 64500) in
  let transit1 = Keys.make_as rng ~aid:(aid 64501) in
  let transit2 = Keys.make_as rng ~aid:(aid 64502) in
  let offpath = Keys.make_as rng ~aid:(aid 64999) in
  let path =
    [ (transit1.aid, transit1.dh_public); (transit2.aid, transit2.dh_public) ]
  in
  [
    Alcotest.test_case "pairwise keys agree in both directions" `Quick (fun () ->
        let k1 = ok_or_fail "k1" (Path_proof.pairwise_key src ~peer_dh_pub:transit1.dh_public) in
        let k2 = ok_or_fail "k2" (Path_proof.pairwise_key transit1 ~peer_dh_pub:src.dh_public) in
        Alcotest.(check string) "same" k1 k2);
    Alcotest.test_case "on-path claim verifies" `Quick (fun () ->
        let pkt = sample_packet src in
        let attestations = ok_or_fail "attest" (Path_proof.attest ~src_keys:src ~path pkt) in
        Alcotest.(check int) "one per hop" 2 (List.length attestations);
        List.iter2
          (fun attestation (claim_aid, claim_pub) ->
            ok_or_fail "claim"
              (Path_proof.verify_claim ~src_keys:src ~claimant:claim_aid
                 ~claimant_dh_pub:claim_pub ~attestation pkt))
          attestations path);
    Alcotest.test_case "off-path AS cannot claim" `Quick (fun () ->
        let pkt = sample_packet src in
        let attestations = ok_or_fail "attest" (Path_proof.attest ~src_keys:src ~path pkt) in
        let stolen = List.hd attestations in
        (* The off-path AS presents a stolen attestation as its own. *)
        Alcotest.(check bool) "rejected" true
          (Result.is_error
             (Path_proof.verify_claim ~src_keys:src ~claimant:offpath.aid
                ~claimant_dh_pub:offpath.dh_public ~attestation:stolen pkt)));
    Alcotest.test_case "attestation does not transfer between packets" `Quick
      (fun () ->
        let pkt1 = sample_packet src and pkt2 = sample_packet src in
        let attestations = ok_or_fail "attest" (Path_proof.attest ~src_keys:src ~path pkt1) in
        let a = List.hd attestations in
        Alcotest.(check bool) "rejected on other packet" true
          (Result.is_error
             (Path_proof.verify_claim ~src_keys:src ~claimant:transit1.aid
                ~claimant_dh_pub:transit1.dh_public ~attestation:a pkt2)));
    qtest "codec roundtrip" QCheck2.Gen.(int_range 0 8) (fun n ->
        let attestations =
          List.init n (fun i ->
              Path_proof.{ aid = aid (64500 + i); mac = String.make 16 (Char.chr (i + 65)) })
        in
        Path_proof.of_bytes (Path_proof.to_bytes attestations) = Ok attestations);
  ]

(* ------------------------------------------------------------------ *)
(* In-network replay filter (§VIII-D) *)

let replay_filter_tests =
  [
    Alcotest.test_case "duplicates always caught within the horizon" `Quick
      (fun () ->
        let f = Replay_filter.create ~bits_log2:16 () in
        for i = 0 to 5_000 do
          ignore (Replay_filter.check_and_insert f ~now:0.0 (string_of_int i))
        done;
        for i = 0 to 5_000 do
          Alcotest.(check bool) "replayed" true
            (Replay_filter.check_and_insert f ~now:1.0 (string_of_int i) = Replayed)
        done);
    Alcotest.test_case "detection spans one rotation" `Quick (fun () ->
        let f = Replay_filter.create ~rotate_every_s:10.0 () in
        ignore (Replay_filter.check_and_insert f ~now:0.0 "pkt");
        (* One rotation later the key sits in the previous generation. *)
        Alcotest.(check bool) "still caught" true
          (Replay_filter.check_and_insert f ~now:11.0 "pkt" = Replayed);
        (* Two rotations later it has aged out — bounded memory. *)
        let f2 = Replay_filter.create ~rotate_every_s:10.0 () in
        ignore (Replay_filter.check_and_insert f2 ~now:0.0 "pkt");
        ignore (Replay_filter.check_and_insert f2 ~now:11.0 "other1");
        ignore (Replay_filter.check_and_insert f2 ~now:22.0 "other2");
        Alcotest.(check bool) "aged out" true
          (Replay_filter.check_and_insert f2 ~now:22.1 "pkt" = Fresh));
    Alcotest.test_case "long idle gap clears both generations" `Quick (fun () ->
        (* Regression: a single swap after a >= 2-period gap used to carry
           arbitrarily old bits into [previous], producing false Replayed
           verdicts for traffic that resumed after an idle spell. *)
        let f = Replay_filter.create ~rotate_every_s:10.0 () in
        ignore (Replay_filter.check_and_insert f ~now:0.0 "pkt");
        Alcotest.(check bool) "25s-old bits are forgotten" true
          (Replay_filter.check_and_insert f ~now:25.0 "pkt" = Fresh);
        (* And the filter still detects replays normally afterwards. *)
        Alcotest.(check bool) "immediate replay caught" true
          (Replay_filter.check_and_insert f ~now:25.5 "pkt" = Replayed);
        Alcotest.(check bool) "across one rotation too" true
          (Replay_filter.check_and_insert f ~now:36.0 "pkt" = Replayed));
    Alcotest.test_case "false-positive rate is near theory" `Quick (fun () ->
        (* 2^16 bits, 4 hashes, 5k inserted: (1-e^{-4*5000/65536})^4 ~ 0.5%.
           Probing also inserts, so keep the probe count small enough that
           the load factor stays near the starting point. *)
        let f = Replay_filter.create ~bits_log2:16 ~hashes:4 () in
        for i = 0 to 4_999 do
          ignore (Replay_filter.check_and_insert f ~now:0.0 ("in-" ^ string_of_int i))
        done;
        let fp = ref 0 in
        let probes = 2_000 in
        for i = 0 to probes - 1 do
          if Replay_filter.check_and_insert f ~now:0.0 ("probe-" ^ string_of_int i) = Replayed
          then incr fp
        done;
        let rate = float_of_int !fp /. float_of_int probes in
        Alcotest.(check bool)
          (Printf.sprintf "fp rate %.4f < 3%%" rate)
          true (rate < 0.03));
    Alcotest.test_case "memory is bounded by construction" `Quick (fun () ->
        let f = Replay_filter.create ~bits_log2:20 () in
        Alcotest.(check int) "two generations of 128 KiB" (2 * 128 * 1024)
          (Replay_filter.memory_bytes f));
    qtest "fresh keys mostly pass on an empty filter" ~count:200
      QCheck2.Gen.(string_size (int_range 1 32))
      (fun key ->
        let f = Replay_filter.create ~bits_log2:16 () in
        Replay_filter.check_and_insert f ~now:0.0 key = Fresh);
  ]

(* ------------------------------------------------------------------ *)
(* Revocation notice: host identifies the misbehaving application (§VIII-A) *)

let notice_tests =
  [
    Alcotest.test_case "host learns which application was shut off" `Quick
      (fun () ->
        let net = Scenario.line ~seed:"notice" [ 100; 300 ] in
        let bot =
          Scenario.host ~granularity:(Granularity.Per_application "default") net
            ~as_number:100 ~name:"bot" ~credential:"bot"
        in
        let victim = Scenario.host net ~as_number:300 ~name:"victim" ~credential:"v" in
        let vep = Scenario.endpoint net victim in
        let vs = ref None in
        Host.on_data victim (fun ~session ~data:_ -> vs := Some session);
        (* The bot's "malware" app floods; its "browser" app behaves. *)
        Host.connect bot ~remote:vep.cert ~data0:"benign" ~app:"browser" (fun _ -> ());
        Network.run net;
        Host.connect bot ~remote:vep.cert ~data0:"FLOOD" ~app:"malware" (fun _ -> ());
        Network.run net;
        let session = Option.get !vs in
        let evidence = Option.get (Host.last_packet victim session) in
        ok_or_fail "shutoff" (Host.request_shutoff victim ~session ~evidence);
        Network.run net;
        (match Host.revocation_notices bot with
        | [ (_, Some "malware") ] -> ()
        | [ (_, app) ] ->
            Alcotest.failf "wrong app: %s" (Option.value ~default:"none" app)
        | l -> Alcotest.failf "expected one notice, got %d" (List.length l)));
  ]

(* ------------------------------------------------------------------ *)
(* APNA-as-a-Service (§VIII-E): a downstream AS as a connection-sharing
   device on an upstream APNA ISP. *)

let aas_tests =
  [
    Alcotest.test_case "downstream AS customers mix into the upstream set"
      `Quick (fun () ->
        let net = Scenario.line ~seed:"aas" [ 100; 300 ] in
        (* The downstream AS (no APNA deployment of its own) attaches to
           the ISP exactly like a NAT-mode device (§VIII-E: "a downstream
           AS can be viewed as a connection-sharing device"). *)
        let downstream =
          Access_point.create ~name:"downstream-as"
            ~rng:(Drbg.split (Network.rng net) "daas")
            ~virtual_as:64512
        in
        Access_point.attach downstream (Network.node_exn net 100)
          ~credential:"downstream-contract";
        ok_or_fail "downstream bootstrap" (Access_point.bootstrap downstream);
        (* Five customers of the downstream AS. *)
        let customers =
          List.init 5 (fun i ->
              let name = Printf.sprintf "cust-%d" i in
              let h = Host.create ~name ~rng:(Drbg.split (Network.rng net) name) () in
              Access_point.attach_internal downstream h ~credential:name;
              ok_or_fail name (Host.bootstrap h);
              h)
        in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"srv" in
        Host.on_data server (fun ~session ~data ->
            ignore (Host.send server session ("ok:" ^ data)));
        let inboxes = List.map Scenario.inbox customers in
        let sep = Scenario.endpoint net server in
        List.iteri
          (fun i c ->
            Host.connect c ~remote:sep.cert ~data0:(string_of_int i) (fun _ -> ()))
          customers;
        Network.run net;
        (* Every customer got service... *)
        List.iteri
          (fun i inbox ->
            Alcotest.(check (list string)) "served" [ Printf.sprintf "ok:%d" i ]
              (inbox ()))
          inboxes;
        (* ...while the upstream ISP attributes all their EphIDs to the one
           downstream contract: the customers' anonymity set is the ISP's. *)
        let isp = Network.node_exn net 100 in
        let contract_hid =
          Option.get
            (Registry.hid_of_credential (As_node.registry isp)
               ~credential:"downstream-contract")
        in
        List.iter
          (fun c ->
            match Host.sessions c with
            | [ s ] ->
                let info =
                  ok_or_fail "parse"
                    (Ephid.parse (As_node.keys isp) (Session.local_cert s).ephid)
                in
                Alcotest.(check bool) "attributed to the contract" true
                  (Apna_net.Addr.hid_equal info.hid contract_hid)
            | _ -> Alcotest.fail "expected one session")
          customers;
        Alcotest.(check int) "all five relayed" 5
          (Access_point.ephid_count downstream));
  ]

(* ------------------------------------------------------------------ *)
(* GRE/IPv4 transport (§VII-D, Fig. 9) *)

let transport_tests =
  [
    Alcotest.test_case "end-to-end over IPv4/GRE encapsulation" `Quick (fun () ->
        (* Same protocol flows, but every inter-AS hop is serialized as
           IPv4 / GRE / APNA and re-parsed: the Fig. 9 wire format works as
           the real transport. *)
        let net = Network.create ~seed:"gre" ~transport:Network.Gre_ipv4 () in
        let _ = Network.add_as net 100 () in
        let _ = Network.add_as net 200 () in
        let _ = Network.add_as net 300 () in
        Network.connect_as net 100 200 ();
        Network.connect_as net 200 300 ();
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        Host.on_data bob (fun ~session ~data ->
            ignore (Host.send bob session ("gre:" ^ data)));
        let inbox = Scenario.inbox alice in
        let bep = Scenario.endpoint net bob in
        Host.connect alice ~remote:bep.cert ~data0:"tunneled" (fun _ -> ());
        Network.run net;
        Alcotest.(check (list string)) "round trip over GRE" [ "gre:tunneled" ]
          (inbox ()));
  ]

(* ------------------------------------------------------------------ *)
(* EphID self-release (§VIII-G2) *)

let release_tests =
  [
    Alcotest.test_case "released EphID stops working at egress" `Quick (fun () ->
        let net = Scenario.line ~seed:"release" [ 100; 300 ] in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        let bep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        let session = ref None in
        Host.connect alice ~remote:bep.cert ~data0:"before" (fun s -> session := Some s);
        Network.run net;
        Alcotest.(check int) "delivered" 1 (List.length (inbox ()));
        (* Alice retires the EphID backing the session... *)
        let alice_ep =
          List.find
            (fun (e : Host.endpoint) ->
              Ephid.equal e.cert.ephid (Session.local_cert (Option.get !session)).ephid)
            (Host.endpoints alice)
        in
        ok_or_fail "release" (Host.release_endpoint alice alice_ep);
        Network.run net;
        let node = Network.node_exn net 100 in
        Alcotest.(check int) "on the revocation list" 1
          (Revocation.size (As_node.revoked node));
        Alcotest.(check int) "MS counted it" 1
          (Management.released_count (As_node.management node));
        (* ...after which its packets die at egress. *)
        ignore (Host.send alice (Option.get !session) "after");
        Network.run net;
        Alcotest.(check int) "no more delivery" 1 (List.length (inbox ())));
    Alcotest.test_case "cannot release someone else's EphID" `Quick (fun () ->
        let net = Scenario.line ~seed:"release2" [ 100 ] in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let mallory = Scenario.host net ~as_number:100 ~name:"mallory" ~credential:"m" in
        let aep = Scenario.endpoint net alice in
        (* Mallory asks the MS to release Alice's EphID, with her own kHA. *)
        let node = Network.node_exn net 100 in
        let mallory_kha = Option.get (Host.kha mallory) in
        let mallory_ctrl = Option.get (Host.ctrl_ephid mallory) in
        let msg =
          Management.Client.make_release
            ~rng:(Apna_crypto.Drbg.create ~seed:"m")
            ~kha:mallory_kha ~ephid:aep.cert.ephid
        in
        (match
           Management.handle_release (As_node.management node)
             ~now:(Network.now_unix net)
             ~src_ephid:(Ephid.to_bytes mallory_ctrl) msg
         with
        | Error (Error.Rejected _) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
        | Ok () -> Alcotest.fail "foreign release accepted");
        Alcotest.(check int) "nothing revoked" 0
          (Revocation.size (As_node.revoked node)));
  ]

(* ------------------------------------------------------------------ *)
(* Path-MTU discovery (§II-C) *)

let mtu_tests =
  [
    Alcotest.test_case "oversize packet triggers frag-needed feedback" `Quick
      (fun () ->
        let net =
          Scenario.line ~seed:"mtu" ~link:(fun () -> Apna_net.Link.make ~mtu:600 ()) [ 100; 300 ]
        in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        let bep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        (* The Init with 1000 bytes of 0-RTT data exceeds the 600 B MTU. *)
        Host.connect alice ~remote:bep.cert ~data0:(String.make 1000 'x')
          (fun _ -> ());
        Network.run net;
        Alcotest.(check bool) "not delivered" true (inbox () = []);
        (match Host.path_mtu alice with
        | Some mtu ->
            Alcotest.(check bool) "hint is the usable size" true
              (mtu > 0 && mtu <= 600)
        | None -> Alcotest.fail "no frag-needed feedback"));
    Alcotest.test_case "fitting retry is delivered" `Quick (fun () ->
        let net =
          Scenario.line ~seed:"mtu2" ~link:(fun () -> Apna_net.Link.make ~mtu:600 ()) [ 100; 300 ]
        in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        let bep = Scenario.endpoint net bob in
        let inbox = Scenario.inbox bob in
        Host.connect alice ~remote:bep.cert ~data0:(String.make 1000 'x')
          (fun _ -> ());
        Network.run net;
        let hint = Option.get (Host.path_mtu alice) in
        (* The oversized Init never arrived, so re-establish within the
           advertised MTU (leaving room for header, cert and framing). *)
        Host.connect alice ~remote:bep.cert
          ~data0:(String.make (hint - 300) 'y')
          (fun _ -> ());
        Network.run net;
        Alcotest.(check int) "retry delivered" 1 (List.length (inbox ())));
  ]

(* ------------------------------------------------------------------ *)
(* Data retention / lawful request (§VIII-H) *)

let audit_tests =
  let module B = Apna_broker.Broker in
  (* All linkage goes through the privacy broker — Audit queries are
     broker-only (the make-check grep gate enforces it). *)
  let ask broker ~now q =
    B.handle broker ~now
      (B.Request.sign ~key:"le-key" ~corr:1L ~requester:"le" ~query:q)
  in
  let bindings broker ~now h =
    match ask broker ~now (B.Request.Bindings_of h) with
    | B.Response.Granted { grant = B.Response.Bindings bs; _ } -> bs
    | _ -> Alcotest.fail "expected a bindings grant"
  in
  [
    Alcotest.test_case "unit: bindings, attribution, retention window" `Quick
      (fun () ->
        let a = Audit.create ~retain_s:3600 () in
        let keys = Keys.make_as rng ~aid:(aid 64500) in
        let broker = B.create ~keys ~audit:a () in
        B.register_requester broker ~id:"le" ~role:B.Law_enforcement
          ~key:"le-key" ~now:now0;
        let h1 = hid 0x0a000001 and h2 = hid 0x0a000002 in
        let e1 = Ephid.issue_random keys rng ~hid:h1 ~expiry:(now0 + 900) in
        let e2 = Ephid.issue_random keys rng ~hid:h1 ~expiry:(now0 + 900) in
        let e3 = Ephid.issue_random keys rng ~hid:h2 ~expiry:(now0 + 900) in
        Audit.record_issuance a ~now:now0 ~ephid:e1 ~hid:h1;
        Audit.record_issuance a ~now:(now0 + 10) ~ephid:e2 ~hid:h1;
        Audit.record_issuance a ~now:(now0 + 20) ~ephid:e3 ~hid:h2;
        Alcotest.(check int) "h1 bindings" 2
          (List.length (bindings broker ~now:(now0 + 40) h1));
        Alcotest.(check int) "h2 bindings" 1
          (List.length (bindings broker ~now:(now0 + 40) h2));
        Audit.record_egress a ~now:(now0 + 30) ~ephid:e1 ~digest:"digest-1";
        (match ask broker ~now:(now0 + 40) (B.Request.Attribute_packet "digest-1") with
        | B.Response.Granted
            { grant = B.Response.Attribution { at; ephid; _ }; _ } ->
            Alcotest.(check int) "when" (now0 + 30) at;
            Alcotest.(check bool) "which" true (Ephid.equal ephid e1)
        | _ -> Alcotest.fail "retained digest not found");
        (match ask broker ~now:(now0 + 40) (B.Request.Attribute_packet "nope") with
        | B.Response.Refused { reason = Error.Rejected _; _ } -> ()
        | _ -> Alcotest.fail "unknown digest should be refused");
        (* Retention window: everything ages out after retain_s. *)
        let removed = Audit.gc a ~now:(now0 + 3700) in
        Alcotest.(check int) "all gone" 4 removed;
        Alcotest.(check int) "no bindings" 0
          (List.length (bindings broker ~now:(now0 + 3700) h1));
        (* Every query above — including the refusal — is journaled, and
           the chain verifies. *)
        Alcotest.(check int) "journal entries" 5
          (Apna_broker.Journal.length (B.journal broker));
        Alcotest.(check bool) "journal verifies" true
          (Result.is_ok (B.verify_journal broker)));
    Alcotest.test_case "lawful targeted request end to end" `Quick (fun () ->
        (* A retention-enabled ISP answers: "did this packet leave your
           network, and which subscriber sent it?" *)
        let net = Scenario.line ~seed:"lawful" ~retention:100 [ 100; 300 ] in
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"alice@isp" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"bob" in
        let bep = Scenario.endpoint net bob in
        (* The investigator holds one captured packet. *)
        let captured = ref None in
        Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
            if pkt.proto = Apna_net.Packet.Data then captured := Some pkt);
        Host.connect alice ~remote:bep.cert ~data0:"evidence" (fun _ -> ());
        Network.run net;
        let pkt = Option.get !captured in
        let isp = Network.node_exn net 100 in
        (* The ISP's broker is the lawful interface: the investigator is
           registered, budgeted, and every answer is journaled. *)
        let module B = Apna_broker.Broker in
        let broker = B.for_node isp in
        B.register_requester broker ~id:"le" ~role:B.Law_enforcement
          ~key:"le-key" ~now:now0;
        let ask q =
          B.handle broker ~now:now0
            (B.Request.sign ~key:"le-key" ~corr:7L ~requester:"le" ~query:q)
        in
        (* Step 1: attribute the captured packet's digest (its MAC). *)
        let logged_ephid, hid_of_sender =
          match ask (B.Request.Attribute_packet pkt.header.mac) with
          | B.Response.Granted
              { grant = B.Response.Attribution { ephid; hid; credential; _ }; _ }
            ->
              (* The grant already names the subscriber. *)
              Alcotest.(check (option string)) "subscriber" (Some "alice@isp")
                credential;
              (ephid, hid)
          | _ -> Alcotest.fail "attribution refused"
        in
        (* Step 2: the issuance log corroborates the binding. *)
        (match ask (B.Request.Bindings_of hid_of_sender) with
        | B.Response.Granted { grant = B.Response.Bindings bs; _ } ->
            Alcotest.(check bool) "issuance binding present" true
              (List.exists (fun (_, e) -> Ephid.equal e logged_ephid) bs)
        | _ -> Alcotest.fail "bindings refused");
        Alcotest.(check bool) "journal verifies" true
          (Result.is_ok (B.verify_journal broker));
        (* But retention holds no plaintext: the payload stays sealed. *)
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) "no plaintext retained" false
          (contains "evidence" (Apna_net.Packet.to_bytes pkt)));
    Alcotest.test_case "retention disabled records nothing" `Quick (fun () ->
        let net = Network.create ~seed:"no-retain" () in
        let node = Network.add_as net 100 () in
        Alcotest.(check bool) "no audit log" true (As_node.audit node = None));
  ]

(* ------------------------------------------------------------------ *)
(* Encrypted ICMP (§VIII-B future work) *)

let encrypted_icmp_tests =
  [
    qtest "cert cache LRU semantics" ~count:50 QCheck2.Gen.(int_range 1 20)
      (fun capacity ->
        let keys = Keys.make_as rng ~aid:(aid 64500) in
        let cache = Cert_cache.create ~capacity in
        let certs =
          List.init (capacity + 5) (fun i ->
              let ek = Keys.make_ephid_keys rng in
              let ephid =
                Ephid.issue_random keys rng ~hid:(hid (i + 1)) ~expiry:(now0 + 900)
              in
              Cert.issue keys ~ephid ~expiry:(now0 + 900) ~kx_pub:ek.kx_public
                ~sig_pub:(Apna_crypto.Ed25519.public_key ek.sig_keypair)
                ~aa_ephid:ephid)
        in
        List.iter (Cert_cache.observe cache) certs;
        Cert_cache.size cache = capacity
        && Cert_cache.evictions cache = 5
        (* the oldest five were evicted, the newest are present *)
        && Cert_cache.find cache (List.nth certs 0).ephid = None
        && Cert_cache.find cache (List.nth certs (capacity + 4)).ephid <> None);
    Alcotest.test_case "ecies seal/open roundtrip and wrong key" `Quick (fun () ->
        let ek = Keys.make_ephid_keys rng in
        let other = Keys.make_ephid_keys rng in
        let sealed =
          ok_or_fail "seal" (Ecies.seal ~rng ~peer_pub:ek.kx_public "feedback")
        in
        Alcotest.(check string) "opens" "feedback"
          (ok_or_fail "open" (Ecies.open_ ~secret:ek.kx_secret sealed));
        Alcotest.(check bool) "wrong key fails" true
          (Result.is_error (Ecies.open_ ~secret:other.kx_secret sealed));
        let sealed2 =
          ok_or_fail "seal2" (Ecies.seal ~rng ~peer_pub:ek.kx_public "feedback")
        in
        Alcotest.(check bool) "fresh ephemeral each time" true
          (sealed.eph_pub <> sealed2.eph_pub));
    Alcotest.test_case "sealed unreachable: source decrypts, observer cannot"
      `Quick (fun () ->
        let net = Network.create ~seed:"eicmp" () in
        let _ = Network.add_as net 100 () in
        let _ = Network.add_as net 300 ~icmp_encryption:true () in
        Network.connect_as net 100 300 ();
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
        let bep = Scenario.endpoint ~lifetime:Lifetime.Short net bob in
        (* A first exchange lets AS300 observe alice's certificate. *)
        let session = ref None in
        Host.connect alice ~remote:bep.cert ~data0:"warm-up" (fun s -> session := Some s);
        Network.run net;
        Alcotest.(check int) "cache primed" 1
          (Cert_cache.size (Option.get (As_node.cert_cache (Network.node_exn net 300))));
        (* Bob's EphID expires; alice's next packet draws ICMP feedback. *)
        Network.advance_time net 120.0;
        let observed_icmp = ref [] in
        Network.set_tap net (fun ~from ~to_:_ pkt ->
            if
              Apna_net.Addr.aid_equal from (aid 300)
              && pkt.proto = Apna_net.Packet.Icmp
            then observed_icmp := pkt.payload :: !observed_icmp);
        ignore (Host.send alice (Option.get !session) "too late");
        Network.run net;
        (* Alice got the decrypted reason... *)
        (match Host.unreachables alice with
        | Icmp.Ephid_expired :: _ -> ()
        | [] -> Alcotest.fail "no feedback"
        | r :: _ -> Alcotest.failf "wrong reason %s" (Icmp.reason_to_string r));
        (* ...but on the wire the message was sealed. *)
        (match !observed_icmp with
        | payload :: _ -> begin
            match Icmp.of_bytes payload with
            | Ok (Icmp.Encrypted _) -> ()
            | Ok m -> Alcotest.failf "plaintext ICMP on the wire: %s"
                        (Format.asprintf "%a" Icmp.pp m)
            | Error e -> Alcotest.fail (Error.to_string e)
          end
        | [] -> Alcotest.fail "no ICMP observed"));
    Alcotest.test_case "falls back to plaintext without a cached cert" `Quick
      (fun () ->
        let net = Network.create ~seed:"eicmp2" () in
        let _ = Network.add_as net 100 () in
        let _ = Network.add_as net 300 ~icmp_encryption:true () in
        Network.connect_as net 100 300 ();
        let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
        (* Ping a genuine AS300 EphID bound to an unregistered host: no
           certificate was ever observed for alice's ping source, so the
           feedback arrives in the clear — and still reaches her. *)
        let ghost =
          Ephid.issue_random
            (As_node.keys (Network.node_exn net 300))
            rng ~hid:(hid 0x0a00ffff)
            ~expiry:(Network.now_unix net + 900)
        in
        Host.ping alice ~dst_aid:(aid 300) ~dst_ephid:ghost (fun _ -> ());
        Network.run net;
        (match Host.unreachables alice with
        | Icmp.Host_unknown :: _ -> ()
        | [] -> Alcotest.fail "no feedback"
        | r :: _ -> Alcotest.failf "wrong reason %s" (Icmp.reason_to_string r)));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_extensions"
    [
      ("path_proof", path_proof_tests);
      ("replay_filter", replay_filter_tests);
      ("revocation_notice", notice_tests);
      ("apna_as_a_service", aas_tests);
      ("gre_transport", transport_tests);
      ("ephid_release", release_tests);
      ("path_mtu", mtu_tests);
      ("data_retention", audit_tests);
      ("encrypted_icmp", encrypted_icmp_tests);
    ]
