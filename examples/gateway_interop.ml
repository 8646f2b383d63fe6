(* Legacy IPv4 hosts bridged over APNA by gateways (paper §VII-D, Fig. 9).

   A legacy client and a legacy server — neither speaks APNA — communicate
   through APNA gateways. The client gateway learns the server's
   AID:EphID from the DNS record (which also carries the server's public
   IPv4 address), tunnels each IPv4 flow through its own encrypted APNA
   session (GRE-framed, per Fig. 9), and the server gateway maps inbound
   sessions to virtual endpoints so the legacy server can tell clients
   apart.

   Run with: dune exec examples/gateway_interop.exe *)

open Apna
open Apna_net

let ip a b c d = Addr.hid_of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)

let make_ipv4 ~src ~dst payload =
  Ipv4_header.to_bytes
    (Ipv4_header.make ~protocol:17 ~src ~dst ~payload_len:(String.length payload) ())
  ^ payload

let show_ipv4 who bytes =
  match Ipv4_header.of_bytes bytes with
  | Ok h ->
      let payload = String.sub bytes Ipv4_header.size (String.length bytes - Ipv4_header.size) in
      Format.printf "%s <- IPv4 %a -> %a : %S@." who Addr.pp_hid h.src Addr.pp_hid
        h.dst payload
  | Error e -> Printf.printf "%s <- bad packet: %s\n" who e

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);

  (* The client's ISP (64500) and the server's (64502, running the
     example.org zone). *)
  let net = Scenario.line ~seed:"gateway" ~dns:(64502, "example.org") [ 64500; 64502 ] in

  let client_ip = ip 203 0 113 7 in
  let server_ip = ip 198 51 100 80 in

  (* Gateways are APNA hosts plus translators. *)
  let gw_c =
    Gateway.create ~name:"gw-client" ~rng:(Apna_crypto.Drbg.split (Network.rng net) "gwc")
  in
  let gw_s =
    Gateway.create ~name:"gw-server" ~rng:(Apna_crypto.Drbg.split (Network.rng net) "gws")
  in
  As_node.add_host (Network.node_exn net 64500) (Gateway.host gw_c) ~credential:"gwc@isp" ();
  As_node.add_host (Network.node_exn net 64502) (Gateway.host gw_s) ~credential:"gws@isp" ();
  List.iter
    (fun gw ->
      match Host.bootstrap (Gateway.host gw) with
      | Ok () -> ()
      | Error e -> failwith (Error.to_string e))
    [ gw_c; gw_s ];

  let dns_cert = Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 64502))) in

  (* The legacy server answers any datagram it sees. *)
  Gateway.on_ipv4_output gw_s (fun bytes ->
      show_ipv4 "legacy-server" bytes;
      match Ipv4_header.of_bytes bytes with
      | Ok h ->
          let payload = String.sub bytes Ipv4_header.size (String.length bytes - Ipv4_header.size) in
          Gateway.ipv4_input gw_s
            (make_ipv4 ~src:h.dst ~dst:h.src ("re: " ^ payload))
      | Error _ -> ());
  Gateway.on_ipv4_output gw_c (fun bytes -> show_ipv4 "legacy-client" bytes);

  print_endline "server gateway: publishing legacy.example.org (receive-only EphID + IPv4)";
  Gateway.expose gw_s ~name:"legacy.example.org" ~server_ip ~dns:dns_cert (fun () ->
      print_endline "server gateway: DNS registration done");
  Network.run net;

  print_endline "client gateway: resolving legacy.example.org";
  Gateway.resolve gw_c ~name:"legacy.example.org" ~dns:dns_cert (fun () ->
      print_endline "client gateway: learned IPv4 -> AID:EphID mapping";
      (* The legacy client now just sends plain IPv4 datagrams. *)
      Gateway.ipv4_input gw_c (make_ipv4 ~src:client_ip ~dst:server_ip "ping-1");
      Gateway.ipv4_input gw_c (make_ipv4 ~src:client_ip ~dst:server_ip "ping-2"));
  Network.run net;

  Printf.printf "client gateway flows: %d; server gateway virtual endpoints: %d\n"
    (Gateway.active_flows gw_c)
    (Gateway.virtual_endpoints gw_s);
  print_endline "done: two IPv4 islands, one encrypted accountable path between them."
