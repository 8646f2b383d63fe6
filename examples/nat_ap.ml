(* Hosts behind a NAT-mode access point (paper §VII-B).

   Two laptops share one subscription through an access point. The AP
   bootstraps them into its own small domain, relays their EphID requests
   to the real AS (so they receive genuine AS-signed certificates bound to
   keys the AS never links to an individual device), rewrites outgoing
   packets with its own per-packet MAC, and — as the accountability agent
   of its domain — can name the device behind any relayed EphID.

   Run with: dune exec examples/nat_ap.exe *)

open Apna

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);

  (* The cafe's ISP (64500) and the server's (64502). *)
  let net = Scenario.line ~seed:"nat-ap" [ 64500; 64502 ] in

  (* The cafe's access point subscribes to the ISP like a single host. *)
  let ap =
    Access_point.create ~name:"cafe-ap"
      ~rng:(Apna_crypto.Drbg.split (Network.rng net) "ap")
      ~virtual_as:64512
  in
  Access_point.attach ap (Network.node_exn net 64500) ~credential:"cafe@isp";
  (match Access_point.bootstrap ap with
  | Ok () -> print_endline "access point bootstrapped; internal domain is up"
  | Error e -> failwith (Error.to_string e));

  (* Two laptops join the cafe WiFi: completely unmodified Host code. *)
  let laptop name =
    let h =
      Host.create ~name ~rng:(Apna_crypto.Drbg.split (Network.rng net) name) ()
    in
    Access_point.attach_internal ap h ~credential:(name ^ "@cafe");
    match Host.bootstrap h with
    | Ok () -> h
    | Error e -> failwith (Error.to_string e)
  in
  let laptop1 = laptop "laptop1" and laptop2 = laptop "laptop2" in
  let inbox1 = Scenario.inbox laptop1 and inbox2 = Scenario.inbox laptop2 in

  (* A server out on the Internet. *)
  let server = Scenario.host net ~as_number:64502 ~name:"server" ~credential:"srv@isp" in
  Host.on_data server (fun ~session ~data ->
      ignore (Host.send server session ("echo: " ^ data)));
  let server_ep = Scenario.endpoint net server in

  (* Both laptops talk to the server through the AP. *)
  Host.connect laptop1 ~remote:server_ep.cert ~data0:"hi from laptop1" (fun _ -> ());
  Host.connect laptop2 ~remote:server_ep.cert ~data0:"hi from laptop2" (fun _ -> ());
  Network.run net;

  List.iter
    (fun (l, inbox) ->
      List.iter (Printf.printf "%s <- %S\n" (Host.name l)) (inbox ()))
    [ (laptop1, inbox1); (laptop2, inbox2) ];

  Printf.printf "AP relayed %d EphID requests; %d live bindings in ephid_info\n"
    (Access_point.relayed_requests ap)
    (Access_point.ephid_count ap);

  (* Accountability inside the shared domain: the AS can only point at the
     AP; the AP pins the EphID to the device. *)
  (match Host.sessions laptop2 with
  | s :: _ ->
      let ephid = (Session.local_cert s).ephid in
      Printf.printf "who is behind EphID %s? AP says: %s\n"
        (Apna_util.Hex.encode (String.sub (Ephid.to_bytes ephid) 0 4))
        (Option.value ~default:"unknown" (Access_point.identify ap ephid))
  | [] -> ());
  print_endline "done."
