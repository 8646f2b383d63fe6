(* Quickstart: the end-to-end communication example of paper §III-C.

   Two hosts in different ASes bootstrap, obtain EphIDs, establish a shared
   key from their EphID certificates, and exchange encrypted application
   data — all addressed by AID:EphID tuples; no host address ever appears
   on the wire.

   Run with: dune exec examples/quickstart.exe *)

open Apna

let section fmt = Printf.printf ("\n== " ^^ fmt ^^ " ==\n")

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  Apna_obs.Metrics.(set_enabled default true);

  section "Topology: AS64500 -- AS64501 -- AS64502";
  let net = Scenario.line ~seed:"quickstart" [ 64500; 64501; 64502 ] in

  let alice =
    Network.add_host net ~as_number:64500 ~name:"alice" ~credential:"alice@isp-a" ()
  in
  let bob =
    Network.add_host net ~as_number:64502 ~name:"bob" ~credential:"bob@isp-b" ()
  in

  section "Step 1: host bootstrapping (Fig. 2)";
  (match (Host.bootstrap alice, Host.bootstrap bob) with
  | Ok (), Ok () -> print_endline "alice and bob authenticated to their ASes"
  | Error e, _ | _, Error e -> failwith (Error.to_string e));

  section "Step 2: EphID issuance (Fig. 3)";
  let bob_endpoint = ref None in
  Host.request_ephid bob (fun ep -> bob_endpoint := Some ep);
  Network.run net;
  let bob_endpoint = Option.get !bob_endpoint in
  Printf.printf "bob's AS certified EphID %s (expires %d)\n"
    (Apna_util.Hex.encode (String.sub (Ephid.to_bytes bob_endpoint.cert.ephid) 0 6))
    bob_endpoint.cert.expiry;

  section "Step 3+4: connection establishment and encrypted data (§IV-D)";
  Host.on_data bob (fun ~session ~data ->
      Printf.printf "bob decrypted: %S\n" data;
      ignore (Host.send bob session ("pong: " ^ data)));
  Host.connect alice ~remote:bob_endpoint.cert ~data0:"hello over APNA"
    (fun _session -> print_endline "alice derived the session key (0-RTT)");
  Network.run net;
  List.iter (fun (_, d) -> Printf.printf "alice decrypted: %S\n" d) (Host.received alice);

  section "What the network saw";
  let transit = Network.node_exn net 64501 in
  let c = Border_router.counters (As_node.border_router transit) in
  Printf.printf
    "transit AS forwarded %d packets; every one addressed by AID:EphID only\n"
    c.ingress_forwarded;
  Printf.printf "alice sent %d packets, all carrying her AS-verifiable MAC\n"
    (Host.packets_sent alice);
  Printf.printf "metrics: %s\n" Apna_obs.Metrics.(summary_line default);
  print_endline "done."
