(* Web service over APNA: DNS registration, receive-only EphIDs and the
   client–server connection establishment of paper §VII-A.

   The server publishes a receive-only EphID under "shop.example.net"; a
   shutoff request can never target it, so the published name cannot be
   taken offline. Each client connection is answered from a fresh serving
   EphID.

   Run with: dune exec examples/web_service.exe *)

open Apna

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);

  (* The shop's ISP runs the example.net zone; the clients sit in an
     eyeball network next door. *)
  let net = Scenario.line ~seed:"web" ~dns:(64500, "example.net") [ 64500; 64510 ] in
  let server =
    Scenario.host net ~as_number:64500 ~name:"shop-server" ~credential:"shop@isp"
  in
  let clients =
    List.map
      (fun i ->
        Scenario.host net ~as_number:64510
          ~name:(Printf.sprintf "client-%d" i)
          ~credential:(Printf.sprintf "client-%d@eyeball" i))
      [ 1; 2; 3 ]
  in

  (* The server application: a tiny request/response protocol. *)
  Host.on_data server (fun ~session ~data ->
      let reply =
        match data with
        | "GET /price" -> "200 OK: 42 credits"
        | "GET /stock" -> "200 OK: 17 units"
        | _ -> "404 Not Found"
      in
      ignore (Host.send server session reply));

  print_endline "server: publishing receive-only EphID under shop.example.net";
  Host.publish server ~name:"shop.example.net" (fun () ->
      print_endline "server: DNS registration complete");
  Network.run net;

  (* Clients resolve the name through encrypted DNS and connect. The DNS
     service lives in the server's AS; clients address it by certificate
     (e.g. learned from their resolver configuration). *)
  let dns_cert = Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 64500))) in
  List.iteri
    (fun i client ->
      let request = if i mod 2 = 0 then "GET /price" else "GET /stock" in
      Host.dns_lookup client ~name:"shop.example.net" ~dns:dns_cert (function
        | None -> print_endline "client: NXDOMAIN?!"
        | Some record ->
            Printf.printf "%s: resolved to AS%d, receive-only=%b\n"
              (Host.name client)
              (Apna_net.Addr.aid_to_int record.cert.aid)
              record.receive_only;
            (* 0-RTT request under the receive-only key (§VII-C); the
               server answers from a fresh serving EphID. *)
            Host.connect client ~remote:record.cert ~data0:request
              ~expect_accept:record.receive_only (fun _session -> ())))
    clients;
  Network.run net;

  List.iter
    (fun client ->
      List.iter
        (fun (_, d) -> Printf.printf "%s <- %S\n" (Host.name client) d)
        (Host.received client))
    clients;

  (* Each connection was served from a distinct serving EphID. *)
  let serving_ephids =
    List.concat_map
      (fun c ->
        List.map (fun s -> Ephid.to_bytes (Session.remote_cert s).ephid) (Host.sessions c))
      clients
    |> List.sort_uniq String.compare
  in
  Printf.printf "distinct serving EphIDs observed by clients: %d (one per connection)\n"
    (List.length serving_ephids);
  print_endline "done."
