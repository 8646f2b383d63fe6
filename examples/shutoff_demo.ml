(* Shutoff protocol demo (paper §IV-E, Fig. 5, and §VIII-G2).

   A bot floods a victim from several EphIDs. The victim, holding the
   unwanted packets as cryptographic evidence, asks the *source* AS's
   accountability agent to revoke each offending EphID. After enough
   incidents the source AS revokes the bot's HID outright — the escalation
   ladder of §VIII-G2 — cutting off every EphID the bot holds.

   Run with: dune exec examples/shutoff_demo.exe *)

open Apna

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);

  (* The bot's AS (64500) peers directly with the victim's (64502). *)
  let net = Scenario.line ~seed:"shutoff" [ 64500; 64502 ] in
  let bot = Scenario.host net ~as_number:64500 ~name:"bot" ~credential:"bot@isp" in
  let victim =
    Scenario.host net ~as_number:64502 ~name:"victim" ~credential:"victim@isp"
  in
  let victim_ep = Scenario.endpoint net victim in

  let bot_as = Network.node_exn net 64500 in
  let revocations () = Revocation.size (As_node.revoked bot_as) in

  (* The victim's policy: any session that delivers a "FLOOD" payload gets
     shut off immediately using the packet itself as evidence. *)
  let delivered = ref 0 in
  Host.on_data victim (fun ~session ~data ->
      incr delivered;
      if String.length data >= 5 && String.sub data 0 5 = "FLOOD" then begin
        match Host.last_packet victim session with
        | Some evidence ->
            (match Host.request_shutoff victim ~session ~evidence with
            | Ok () ->
                Printf.printf "victim: shutoff request sent against %s\n"
                  (Apna_util.Hex.encode
                     (String.sub (Ephid.to_bytes (Session.remote_cert session).ephid) 0 4))
            | Error e -> Printf.printf "victim: shutoff failed: %s\n" (Error.to_string e))
        | None -> ()
      end);

  (* The bot opens a new flow (fresh EphID — per-flow granularity) for each
     wave, so each shutoff kills only one EphID... until the quota trips. *)
  for wave = 1 to 7 do
    Host.connect bot ~remote:victim_ep.cert
      ~data0:(Printf.sprintf "FLOOD wave %d" wave)
      (fun _ -> ());
    Network.run net;
    Printf.printf
      "wave %d: victim received %d flood packets; bot AS revocation list: %d entries\n"
      wave !delivered (revocations ())
  done;

  (* After 6 incidents the AS revoked the bot's HID: the 7th wave died at
     egress because the bot's identity itself is now invalid (§VIII-G2). *)
  let bot_hid =
    Option.get
      (Registry.hid_of_credential (As_node.registry bot_as) ~credential:"bot@isp")
  in
  Printf.printf "\nbot HID still valid: %b\n"
    (Host_info.mem_valid (As_node.host_info bot_as) bot_hid);
  Printf.printf "floods delivered in total: %d of 7 attempted\n" !delivered;
  print_endline
    "done: source accountability turned the victim's evidence into enforcement."
