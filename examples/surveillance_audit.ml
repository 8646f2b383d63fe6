(* Governments and communication privacy (paper §VIII-H).

   Two claims, demonstrated side by side:

   1. Mass surveillance fails. A global passive observer records every
      inter-AS packet. It learns AID pairs and byte counts — nothing else:
      source identities are encrypted into EphIDs it cannot open, payloads
      are AEAD-sealed, and even seizing every long-term key afterwards
      decrypts nothing (perfect forward secrecy).

   2. Lawful, targeted deanonymization works. With the cooperation of the
      *one* AS that issued an EphID, a specific flow maps back to a
      subscriber: EphID -> HID (stateless decryption) -> customer record.

   Run with: dune exec examples/surveillance_audit.exe *)

open Apna

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);

  let net = Scenario.line ~seed:"audit" [ 64500; 64501; 64502 ] in

  (* Three subscribers of ISP 64500 and a server elsewhere. *)
  let subscribers =
    List.map
      (fun name ->
        Scenario.host net ~as_number:64500 ~name ~credential:(name ^ "@isp-contract"))
      [ "ada"; "grace"; "edsger" ]
  in
  let server = Scenario.host net ~as_number:64502 ~name:"server" ~credential:"srv" in
  let server_ep = Scenario.endpoint net server in

  (* The observer: taps every inter-AS link. *)
  let recorded = ref [] in
  Network.set_tap net (fun ~from ~to_ pkt ->
      if Apna_net.Addr.aid_equal from (Apna_net.Addr.aid_of_int 64500) then
        recorded := pkt :: !recorded;
      ignore to_);

  List.iter
    (fun h ->
      Host.connect h ~remote:server_ep.cert
        ~data0:(Printf.sprintf "secret message from %s" (Host.name h))
        (fun _ -> ()))
    subscribers;
  Network.run net;

  Printf.printf "== Mass surveillance attempt ==\n";
  Printf.printf "observer recorded %d packets leaving AS64500\n"
    (List.length !recorded);
  let opaque = ref 0 and plaintext_hits = ref 0 in
  let snooper_keys =
    Keys.make_as (Apna_crypto.Drbg.create ~seed:"nsa") ~aid:(Apna_net.Addr.aid_of_int 1)
  in
  List.iter
    (fun (pkt : Apna_net.Packet.t) ->
      (match Ephid.of_bytes pkt.header.src_ephid with
      | Ok e -> if Result.is_error (Ephid.parse snooper_keys e) then incr opaque
      | Error _ -> ());
      let bytes = Apna_net.Packet.to_bytes pkt in
      let contains needle =
        let nl = String.length needle and hl = String.length bytes in
        let rec scan i = i + nl <= hl && (String.sub bytes i nl = needle || scan (i + 1)) in
        scan 0
      in
      if contains "secret message" then incr plaintext_hits)
    !recorded;
  Printf.printf "source identities recovered : 0 (all %d EphIDs opaque)\n" !opaque;
  Printf.printf "payload bytes readable      : %d packets matched plaintext\n"
    !plaintext_hits;

  Printf.printf "\n== Targeted request, brokered by the issuing AS ==\n";
  (* A court order names one recorded flow. AS64500 cooperates — but only
     through its privacy broker: the request is authenticated, charged
     against a privacy budget, and journaled. *)
  let module B = Apna_broker.Broker in
  let module Budget = Apna_broker.Budget in
  let module Journal = Apna_broker.Journal in
  let target =
    List.find
      (fun (p : Apna_net.Packet.t) -> p.proto = Apna_net.Packet.Data)
      (List.rev !recorded)
  in
  let isp = Network.node_exn net 64500 in
  let broker =
    B.for_node isp ~budget:(Budget.create ~capacity:25 ~refill:5 ())
  in
  let now () = Network.now_unix net in
  B.register_requester broker ~id:"court-order-7" ~role:B.Law_enforcement
    ~key:"warrant-key" ~now:(now ());
  let ephid =
    match Ephid.of_bytes target.header.src_ephid with
    | Ok e -> e
    | Error e -> failwith ("bad ephid: " ^ e)
  in
  let ask corr =
    B.handle broker ~now:(now ())
      (B.Request.sign ~key:"warrant-key" ~corr ~requester:"court-order-7"
         ~query:(B.Request.Deanonymize ephid))
  in
  (match ask 1L with
  | B.Response.Granted { grant = B.Response.Identity { hid; credential; _ }; cost; remaining; _ } ->
      Format.printf "broker grants: EphID -> HID %a (cost %d, budget left %d)@."
        Apna_net.Addr.pp_hid hid cost remaining;
      Printf.printf "subscriber record: %s\n"
        (Option.value ~default:"(none)" credential)
  | _ -> Printf.printf "unexpected broker response\n");

  Printf.printf "\n== Privacy budget caps even lawful linkage ==\n";
  let rec drain corr =
    match ask corr with
    | B.Response.Granted { remaining; _ } ->
        Printf.printf "request %Ld granted (budget left %d)\n" corr remaining;
        drain (Int64.add corr 1L)
    | B.Response.Refused { reason; _ } ->
        Printf.printf "request %Ld REFUSED: %s\n" corr (Error.to_string reason)
  in
  drain 2L;
  (* And a requester without credentials gets nothing at all. *)
  (match
     B.handle broker ~now:(now ())
       (B.Request.sign ~key:"wrong-key" ~corr:99L ~requester:"court-order-7"
          ~query:(B.Request.Deanonymize ephid))
   with
  | B.Response.Refused { reason; _ } ->
      Printf.printf "forged MAC REFUSED: %s\n" (Error.kind_label reason)
  | B.Response.Granted _ -> Printf.printf "BUG: forged request granted\n");
  let j = B.journal broker in
  Printf.printf "journal: %d decisions, chain %s, head %s\n"
    (Journal.length j)
    (match B.verify_journal broker with Ok () -> "verifies" | Error e -> e)
    (String.sub (Apna_util.Hex.encode (Journal.head j)) 0 16);

  print_endline
    "\nresult: pervasive encryption frustrates dragnet collection; the issuing\n\
     AS can still satisfy a lawful, targeted request — but only through its\n\
     broker, which meters linkage against a privacy budget and commits every\n\
     decision to a tamper-evident journal. PFS keeps even that cooperation\n\
     from opening previously recorded payloads."
