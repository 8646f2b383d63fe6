(* Deployment-path tests: NAT-mode access points (§VII-B), IPv4 gateways
   (§VII-D) and DNS/receive-only end-to-end flows (§VII-A). *)

open Apna

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int

let make_world ?(seed = "deploy") () =
  Scenario.line ~seed ~dns:(300, "example.net") [ 100; 300 ]

(* ------------------------------------------------------------------ *)
(* §VII-A: receive-only EphIDs and the client-server handshake *)

(* Hands a shutoff request to an AS's accountability agent the way the AS
   does (admission, then a drain pass), expects no grant, and returns the
   AA's per-reason refusal counts. *)
let aa_refusals as_node ~now req =
  let aa = As_node.accountability as_node and at = float_of_int now in
  (match Accountability.enqueue aa ~now ~at req with
  | Accountability.Queued -> ()
  | Refused e -> Alcotest.failf "refused at admission: %s" (Error.to_string e)
  | Shed -> Alcotest.fail "shed");
  if Accountability.drain aa ~now ~at <> [] then Alcotest.fail "shutoff granted";
  Accountability.refusal_reasons aa

let dns_e2e_tests =
  [
    Alcotest.test_case "publish, resolve, connect, reply" `Quick (fun () ->
        let net = make_world () in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let client = Scenario.host net ~as_number:100 ~name:"client" ~credential:"client-tok" in
        Host.on_data server (fun ~session ~data ->
            ignore (Host.send server session ("resp:" ^ data)));
        let inbox = Scenario.inbox client in
        let published = ref false in
        Host.publish server ~name:"svc.example.net" (fun () -> published := true);
        Network.run net;
        Alcotest.(check bool) "published" true !published;
        let dns_cert =
          Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
        in
        let got = ref None in
        Host.dns_lookup client ~name:"svc.example.net" ~dns:dns_cert (fun r ->
            got := r);
        Network.run net;
        let record = Option.get !got in
        Alcotest.(check bool) "receive-only" true record.receive_only;
        Host.connect client ~remote:record.cert ~data0:"hello"
          ~expect_accept:record.receive_only (fun _ -> ());
        Network.run net;
        Alcotest.(check (list string)) "reply" [ "resp:hello" ] (inbox ()));
    Alcotest.test_case "server answers from a serving EphID, not the published one"
      `Quick (fun () ->
        let net = make_world () in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let client = Scenario.host net ~as_number:100 ~name:"client" ~credential:"client-tok" in
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
        let session = ref None in
        Host.connect client ~remote:record.cert ~data0:"x"
          ~expect_accept:true (fun s -> session := Some s);
        Network.run net;
        let s = Option.get !session in
        Alcotest.(check bool) "established after accept" true (Session.established s);
        Alcotest.(check bool) "rekeyed off the receive-only EphID" false
          (Ephid.equal (Session.remote_cert s).ephid record.cert.ephid));
    Alcotest.test_case "post-accept data flows both ways (0.5-RTT queue)" `Quick
      (fun () ->
        let net = make_world () in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let client = Scenario.host net ~as_number:100 ~name:"client" ~credential:"client-tok" in
        Host.on_data server (fun ~session ~data ->
            ignore (Host.send server session (String.uppercase_ascii data)));
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
        (* No 0-RTT data: the request is queued until Accept (§VII-C). *)
        Host.connect client ~remote:record.cert ~data0:"" ~expect_accept:true
          (fun session -> ignore (Host.send client session "queued request"));
        Network.run net;
        Alcotest.(check (list string)) "served" [ "QUEUED REQUEST" ] (inbox ()));
    Alcotest.test_case "shutoff against a receive-only EphID is refused" `Quick
      (fun () ->
        (* Receive-only EphIDs never source packets, so no one can present
           evidence against them (§VII-A): a fabricated request fails. *)
        let net = make_world () in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let attacker =
          Scenario.host net ~as_number:100 ~name:"attacker" ~credential:"attacker-tok"
        in
        Host.publish server ~name:"svc.example.net" (fun () -> ());
        Network.run net;
        let dns_cert =
          Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
        in
        let record = ref None in
        Host.dns_lookup attacker ~name:"svc.example.net" ~dns:dns_cert (fun r ->
            record := r);
        Network.run net;
        let record = Option.get !record in
        let attacker_ep = Scenario.endpoint net attacker in
        (* Fabricate "evidence": a packet claiming the receive-only EphID
           as source, self-addressed to the attacker. *)
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 300)
            ~src_ephid:(Ephid.to_bytes record.cert.ephid)
            ~dst_aid:(aid 100)
            ~dst_ephid:(Ephid.to_bytes attacker_ep.cert.ephid)
            ()
        in
        let fake =
          Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"fake"
        in
        let req =
          Shutoff.make_request ~packet:fake ~dst_cert:attacker_ep.cert
            ~dst_keys:attacker_ep.keys
        in
        let server_as = Network.node_exn net 300 in
        Alcotest.(check (list (pair string int))) "refused: bad mac"
          [ ("bad-mac", 1) ]
          (aa_refusals server_as ~now:(Network.now_unix net) req);
        Alcotest.(check int) "nothing revoked" 0
          (Revocation.size (As_node.revoked server_as)));
  ]

(* ------------------------------------------------------------------ *)
(* §VII-B: NAT-mode access point *)

let ap_world () =
  let net = make_world ~seed:"ap" () in
  let ap =
    Access_point.create ~name:"ap"
      ~rng:(Apna_crypto.Drbg.split (Network.rng net) "ap")
      ~virtual_as:64512
  in
  Access_point.attach ap (Network.node_exn net 100) ~credential:"ap-tok";
  ok_or_fail "ap bootstrap" (Access_point.bootstrap ap);
  let internal ?granularity name =
    let h =
      Host.create ~name ~rng:(Apna_crypto.Drbg.split (Network.rng net) name)
        ?granularity ()
    in
    Access_point.attach_internal ap h ~credential:(name ^ "-tok");
    ok_or_fail (name ^ " bootstrap") (Host.bootstrap h);
    h
  in
  (net, ap, internal)

let ap_tests =
  [
    Alcotest.test_case "internal host speaks to the world unchanged" `Quick
      (fun () ->
        let net, _ap, internal = ap_world () in
        let laptop = internal "laptop" in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        Host.on_data server (fun ~session ~data ->
            ignore (Host.send server session ("pong:" ^ data)));
        let inbox = Scenario.inbox laptop in
        let server_ep = Scenario.endpoint net server in
        Host.connect laptop ~remote:server_ep.cert ~data0:"ping" (fun _ -> ());
        Network.run net;
        Alcotest.(check (list string)) "round trip" [ "pong:ping" ] (inbox ()));
    Alcotest.test_case "AS sees the AP's HID, never the device" `Quick (fun () ->
        let net, ap, internal = ap_world () in
        let laptop = internal "laptop" in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let server_ep = Scenario.endpoint net server in
        let s = Scenario.connect ~data0:"x" net laptop ~remote:server_ep.cert in
        let laptop_ephid = (Session.local_cert s).ephid in
        (* The issuing AS decrypts the EphID to... the AP's identity. *)
        let node = Network.node_exn net 100 in
        let info =
          ok_or_fail "parse" (Ephid.parse (As_node.keys node) laptop_ephid)
        in
        let ap_hid =
          Option.get
            (Registry.hid_of_credential (As_node.registry node)
               ~credential:"ap-tok")
        in
        Alcotest.(check bool) "maps to the AP" true
          (Apna_net.Addr.hid_equal info.hid ap_hid);
        (* Only the AP can name the device. *)
        Alcotest.(check (option string)) "AP pins the device" (Some "laptop")
          (Access_point.identify ap laptop_ephid));
    Alcotest.test_case "two devices, isolated identities" `Quick (fun () ->
        let net, ap, internal = ap_world () in
        let l1 = internal "laptop1" and l2 = internal "laptop2" in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let server_ep = Scenario.endpoint net server in
        let s1 = ref None and s2 = ref None in
        Host.connect l1 ~remote:server_ep.cert ~data0:"1" (fun s -> s1 := Some s);
        Host.connect l2 ~remote:server_ep.cert ~data0:"2" (fun s -> s2 := Some s);
        Network.run net;
        let e1 = (Session.local_cert (Option.get !s1)).ephid in
        let e2 = (Session.local_cert (Option.get !s2)).ephid in
        Alcotest.(check bool) "distinct EphIDs" false (Ephid.equal e1 e2);
        Alcotest.(check (option string)) "e1" (Some "laptop1") (Access_point.identify ap e1);
        Alcotest.(check (option string)) "e2" (Some "laptop2") (Access_point.identify ap e2);
        Alcotest.(check int) "bindings" 2 (Access_point.ephid_count ap));
    Alcotest.test_case "unknown source EphID dropped by the AP router" `Quick
      (fun () ->
        let net, _ap, internal = ap_world () in
        let laptop = internal "laptop" in
        let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
        let server_ep = Scenario.endpoint net server in
        let inbox = Scenario.inbox server in
        (* Inject a packet with a made-up source EphID through the
           laptop's attachment (i.e. the AP's router). *)
        let att = Option.get (Host.attachment laptop) in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 64512)
            ~src_ephid:(String.make 16 'Z') ~dst_aid:(aid 300)
            ~dst_ephid:(Ephid.to_bytes server_ep.cert.ephid)
            ()
        in
        att.submit
          (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"x");
        Network.run net;
        Alcotest.(check bool) "nothing delivered" true (inbox () = []));
  ]

(* The AP runs the checks its AS runs (Fig. 2 at its own bootstrap,
   Fig. 3 on every relayed request, §VI-A on re-bootstrap) and relays
   every MS message a device sends: batches and releases too. *)

let ap_server net =
  let server = Scenario.host net ~as_number:300 ~name:"server" ~credential:"server-tok" in
  (server, Scenario.endpoint net server)

(* [msg] sent from [ctrl] to the device's MS through the device's own
   attachment (the AP's router). *)
let send_to_ms dev ~ctrl msg =
  let ms = Option.get (Host.ms_cert dev) in
  let header =
    Apna_net.Apna_header.make ~src_aid:(aid 64512) ~src_ephid:(Ephid.to_bytes ctrl)
      ~dst_aid:ms.aid ~dst_ephid:(Ephid.to_bytes ms.ephid) ()
  in
  (Option.get (Host.attachment dev)).submit
    (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Control
       ~payload:(Msgs.to_bytes msg))

let ap_check_tests =
  [
    Alcotest.test_case "rogue AS key fails AP bootstrap" `Quick (fun () ->
        let net = make_world ~seed:"ap" () in
        let ap =
          Access_point.create ~name:"ap"
            ~rng:(Apna_crypto.Drbg.split (Network.rng net) "ap")
            ~virtual_as:64512
        in
        Access_point.attach ap (Network.node_exn net 100) ~credential:"ap-tok";
        let rogue = Apna_crypto.Ed25519.generate (Network.rng net) in
        Trust.register_as (Network.trust net) (aid 100)
          ~pub:(Apna_crypto.Ed25519.public_key rogue);
        Alcotest.(check bool) "refused" true
          (Result.is_error (Access_point.bootstrap ap)));
    Alcotest.test_case "per-packet: 21 frames, 0 timeouts" `Quick
      (fun () ->
        let net, _ap, internal = ap_world () in
        let phone = internal ~granularity:Granularity.Per_packet "phone" in
        let server, server_ep = ap_server net in
        let inbox = Scenario.inbox server in
        let s = Scenario.connect ~data0:"0" net phone ~remote:server_ep.cert in
        for i = 1 to 20 do
          ok_or_fail "send" (Host.send phone s (string_of_int i));
          Network.run net
        done;
        Alcotest.(check int) "delivered" 21 (List.length (inbox ()));
        Alcotest.(check int) "rpc timeouts" 0 (Host.rpc_timeouts phone);
        Alcotest.(check int) "rpc retries" 0 (Host.rpc_retries phone));
    Alcotest.test_case "closes release upstream, own only" `Quick
      (fun () ->
        let net, ap, internal = ap_world () in
        let l1 = internal "laptop1" and l2 = internal "laptop2" in
        let _server, server_ep = ap_server net in
        let ms = As_node.management (Network.node_exn net 100) in
        let released0 = Management.released_count ms in
        for _ = 1 to 5 do
          let s = Scenario.connect ~data0:"x" net l1 ~remote:server_ep.cert in
          ok_or_fail "close" (Host.close l1 s);
          Network.run net
        done;
        Alcotest.(check int) "5 released" (released0 + 5)
          (Management.released_count ms);
        (* laptop2 names laptop1's live EphID in a release of its own. *)
        let s = Scenario.connect ~data0:"y" net l1 ~remote:server_ep.cert in
        let e1 = (Session.local_cert s).ephid in
        let relayed = Access_point.relayed_requests ap in
        send_to_ms l2 ~ctrl:(Option.get (Host.ctrl_ephid l2))
          (Management.Client.make_release ~rng:(Network.rng net)
             ~kha:(Option.get (Host.kha l2)) ~ephid:e1);
        Network.run net;
        Alcotest.(check int) "not relayed" relayed (Access_point.relayed_requests ap);
        Alcotest.(check int) "nothing more released" (released0 + 5)
          (Management.released_count ms);
        Alcotest.(check (option string)) "still laptop1's" (Some "laptop1")
          (Access_point.identify ap e1));
    Alcotest.test_case "expired control EphID not relayed" `Quick (fun () ->
        let net, ap, internal = ap_world () in
        let laptop = internal "laptop" in
        Network.advance_time net 86_401.0;
        let relayed = Access_point.relayed_requests ap in
        Host.request_ephid_r laptop (fun _ -> ());
        Network.run net;
        Alcotest.(check int) "none relayed" relayed (Access_point.relayed_requests ap));
    Alcotest.test_case "re-bootstrap retires old identity" `Quick (fun () ->
        let net, ap, internal = ap_world () in
        let laptop = internal "laptop" in
        let kha = Option.get (Host.kha laptop) in
        let ctrl = Option.get (Host.ctrl_ephid laptop) in
        ok_or_fail "re-bootstrap" (Host.bootstrap laptop);
        let relayed = Access_point.relayed_requests ap in
        send_to_ms laptop ~ctrl
          (Management.Client.make_request ~rng:(Network.rng net) ~corr:1L ~kha
             ~keys:(Keys.make_ephid_keys (Network.rng net))
             ~lifetime:Lifetime.Medium);
        Network.run net;
        Alcotest.(check int) "old identity not relayed" relayed
          (Access_point.relayed_requests ap);
        ignore (Scenario.endpoint net laptop);
        Alcotest.(check int) "new identity relayed" (relayed + 1)
          (Access_point.relayed_requests ap));
    Alcotest.test_case "expired bindings are pruned" `Quick (fun () ->
        let net, ap, internal = ap_world () in
        let laptop = internal "laptop" in
        let _server, server_ep = ap_server net in
        ignore (Scenario.connect ~data0:"x" net laptop ~remote:server_ep.cert);
        Alcotest.(check int) "one binding" 1 (Access_point.ephid_count ap);
        Network.advance_time net
          (float_of_int (Lifetime.seconds Lifetime.default_policy Lifetime.Medium + 1));
        let live = Scenario.endpoint net laptop in
        Alcotest.(check int) "only the live binding" 1 (Access_point.ephid_count ap);
        Alcotest.(check (option string)) "live one kept" (Some "laptop")
          (Access_point.identify ap live.cert.ephid));
  ]

(* ------------------------------------------------------------------ *)
(* §VII-D: IPv4 gateways *)

let ip a b c d = hid ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)

let make_ipv4 ~src ~dst payload =
  Apna_net.Ipv4_header.to_bytes
    (Apna_net.Ipv4_header.make ~protocol:17 ~src ~dst
       ~payload_len:(String.length payload) ())
  ^ payload

let payload_of bytes =
  String.sub bytes Apna_net.Ipv4_header.size
    (String.length bytes - Apna_net.Ipv4_header.size)

let gateway_world () =
  let net = make_world ~seed:"gw" () in
  let gw_c =
    Gateway.create ~name:"gw-client"
      ~rng:(Apna_crypto.Drbg.split (Network.rng net) "gwc")
  in
  let gw_s =
    Gateway.create ~name:"gw-server"
      ~rng:(Apna_crypto.Drbg.split (Network.rng net) "gws")
  in
  As_node.add_host (Network.node_exn net 100) (Gateway.host gw_c) ~credential:"gwc" ();
  As_node.add_host (Network.node_exn net 300) (Gateway.host gw_s) ~credential:"gws" ();
  ok_or_fail "gwc" (Host.bootstrap (Gateway.host gw_c));
  ok_or_fail "gws" (Host.bootstrap (Gateway.host gw_s));
  let dns_cert =
    Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
  in
  (net, gw_c, gw_s, dns_cert)

(* Collects a gateway's LAN-side output, oldest first (replaces its
   output handler). *)
let lan_output gw =
  let out = ref [] in
  Gateway.on_ipv4_output gw (fun bytes -> out := bytes :: !out);
  fun () -> List.rev !out

let gateway_tests =
  [
    Alcotest.test_case "legacy request/response across APNA" `Quick (fun () ->
        let net, gw_c, gw_s, dns_cert = gateway_world () in
        let client_ip = ip 203 0 113 7 and server_ip = ip 198 51 100 80 in
        let client_lan = lan_output gw_c in
        (* The legacy server echoes. *)
        Gateway.on_ipv4_output gw_s (fun bytes ->
            match Apna_net.Ipv4_header.of_bytes bytes with
            | Ok h ->
                Gateway.ipv4_input gw_s
                  (make_ipv4 ~src:h.dst ~dst:h.src ("echo:" ^ payload_of bytes))
            | Error _ -> ());
        Gateway.expose gw_s ~name:"legacy.example.net" ~server_ip ~dns:dns_cert
          (fun () -> ());
        Network.run net;
        Gateway.resolve gw_c ~name:"legacy.example.net" ~dns:dns_cert (fun () ->
            Gateway.ipv4_input gw_c (make_ipv4 ~src:client_ip ~dst:server_ip "req"));
        Network.run net;
        (match client_lan () with
        | [ out ] ->
            let h = Result.get_ok (Apna_net.Ipv4_header.of_bytes out) in
            Alcotest.(check bool) "src is server" true
              (Apna_net.Addr.hid_equal h.src server_ip);
            Alcotest.(check bool) "dst is client" true
              (Apna_net.Addr.hid_equal h.dst client_ip);
            Alcotest.(check string) "payload" "echo:req" (payload_of out)
        | l -> Alcotest.failf "expected 1 output, got %d" (List.length l)));
    Alcotest.test_case "virtual endpoints separate remote clients" `Quick
      (fun () ->
        let net, gw_c, gw_s, dns_cert = gateway_world () in
        let server_ip = ip 198 51 100 80 in
        let server_lan = lan_output gw_s in
        Gateway.expose gw_s ~name:"legacy.example.net" ~server_ip ~dns:dns_cert
          (fun () -> ());
        Network.run net;
        Gateway.resolve gw_c ~name:"legacy.example.net" ~dns:dns_cert (fun () ->
            (* Two distinct legacy clients behind the same gateway. *)
            Gateway.ipv4_input gw_c (make_ipv4 ~src:(ip 203 0 113 7) ~dst:server_ip "a");
            Gateway.ipv4_input gw_c (make_ipv4 ~src:(ip 203 0 113 8) ~dst:server_ip "b"));
        Network.run net;
        Alcotest.(check int) "two flows" 2 (Gateway.active_flows gw_c);
        Alcotest.(check int) "two virtual endpoints" 2
          (Gateway.virtual_endpoints gw_s);
        (* The legacy server sees two distinct source addresses. *)
        let srcs =
          List.filter_map
            (fun bytes ->
              match Apna_net.Ipv4_header.of_bytes bytes with
              | Ok h -> Some (Apna_net.Addr.hid_to_int h.src)
              | Error _ -> None)
            (server_lan ())
          |> List.sort_uniq compare
        in
        Alcotest.(check int) "distinct sources" 2 (List.length srcs));
    Alcotest.test_case "packets to unmapped destinations are dropped" `Quick
      (fun () ->
        let net, gw_c, _, _ = gateway_world () in
        Gateway.ipv4_input gw_c
          (make_ipv4 ~src:(ip 203 0 113 7) ~dst:(ip 9 9 9 9) "nowhere");
        Network.run net;
        Alcotest.(check int) "no flows" 0 (Gateway.active_flows gw_c));
    Alcotest.test_case "same flow reuses one session" `Quick (fun () ->
        let net, gw_c, gw_s, dns_cert = gateway_world () in
        let client_ip = ip 203 0 113 7 and server_ip = ip 198 51 100 80 in
        let server_lan = lan_output gw_s in
        Gateway.expose gw_s ~name:"legacy.example.net" ~server_ip ~dns:dns_cert
          (fun () -> ());
        Network.run net;
        Gateway.resolve gw_c ~name:"legacy.example.net" ~dns:dns_cert (fun () ->
            for i = 1 to 5 do
              Gateway.ipv4_input gw_c
                (make_ipv4 ~src:client_ip ~dst:server_ip (string_of_int i))
            done);
        Network.run net;
        Alcotest.(check int) "one flow" 1 (Gateway.active_flows gw_c);
        Alcotest.(check int) "one virtual endpoint" 1 (Gateway.virtual_endpoints gw_s);
        Alcotest.(check int) "all five delivered" 5
          (List.length (server_lan ())));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_deploy"
    [
      ("dns_receive_only", dns_e2e_tests);
      ("access_point", ap_tests @ ap_check_tests);
      ("gateway", gateway_tests);
    ]
