(* apnad: command-line front end for the APNA simulator.

   Subcommands:
     demo      run an end-to-end communication scenario and narrate it
     ephid     construct and dissect an EphID (Fig. 6) with throwaway keys
     workload  summarize the synthetic workload trace (§V-A3)
     trace     packet flight recorder: journey waterfalls, drop forensics,
               Chrome trace-event export
     shutoff   run the DDoS + shutoff escalation scenario (§IV-E, §VIII-G2)
     campaign  run a misbehavior campaign against the hardened AA
     stats     run a workload with observability on; dump metrics + stages

   Try: dune exec bin/apnad.exe -- demo --hosts 4 --flows 6 *)

open Apna
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let seed =
  Arg.(
    value & opt string "apnad"
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed.")

(* The client and server most subcommands run: alice in AS 64500, bob in
   AS 64502. *)
let alice_and_bob net =
  let alice = Scenario.host net ~as_number:64500 ~name:"alice" ~credential:"a" in
  (alice, Scenario.host net ~as_number:64502 ~name:"bob" ~credential:"b")

(* Short frames come back with "-ack" appended. *)
let ack_short h =
  Host.on_data h (fun ~session ~data ->
      if String.length data < 24 then ignore (Host.send h session (data ^ "-ack")))

(* ------------------------------------------------------------------ *)
(* demo *)

let demo_cmd =
  let hosts =
    Arg.(value & opt int 2 & info [ "hosts" ] ~docv:"N" ~doc:"Hosts per edge AS.")
  in
  let flows =
    Arg.(value & opt int 3 & info [ "flows" ] ~docv:"N" ~doc:"Flows to open.")
  in
  let run verbose seed hosts flows =
    setup_logs verbose;
    let net = Scenario.line ~seed ~dns:(64502, "demo.net") [ 64500; 64501; 64502 ] in
    let make_host asn i =
      let name = Printf.sprintf "h%d-%d" asn i in
      Scenario.host net ~as_number:asn ~name ~credential:name
    in
    let left = List.init hosts (make_host 64500) in
    let right = List.init hosts (make_host 64502) in
    List.iter
      (fun h ->
        Host.on_data h (fun ~session ~data ->
            Printf.printf "  %s decrypted %S\n" (Host.name h) data;
            if String.length data < 20 then
              ignore (Host.send h session (data ^ "-ack"))))
      right;
    let servers = List.map (fun h -> (h, Scenario.endpoint net h)) right in
    Printf.printf "issued %d server EphIDs\n" (List.length servers);
    let rng = Apna_sim.Rng.create 1L in
    for flow = 1 to flows do
      let src = List.nth left (Apna_sim.Rng.int rng (List.length left)) in
      let dst, (ep : Host.endpoint) =
        List.nth servers (Apna_sim.Rng.int rng (List.length servers))
      in
      Printf.printf "flow %d: %s -> %s\n" flow (Host.name src) (Host.name dst);
      Host.connect src ~remote:ep.cert ~data0:(Printf.sprintf "hello-%d" flow)
        (fun _ -> ())
    done;
    Network.run net;
    let transit = Network.node_exn net 64501 in
    let c = Border_router.counters (As_node.border_router transit) in
    Printf.printf "transit AS forwarded %d packets (%d dropped)\n"
      c.ingress_forwarded c.dropped
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"End-to-end encrypted communication over 3 ASes.")
    Term.(const run $ verbose $ seed $ hosts $ flows)

(* ------------------------------------------------------------------ *)
(* ephid *)

let ephid_cmd =
  let hid_arg =
    Arg.(value & opt int 0x0a000001 & info [ "hid" ] ~docv:"HID" ~doc:"Host identifier.")
  in
  let lifetime =
    Arg.(value & opt int 900 & info [ "lifetime" ] ~docv:"SECONDS" ~doc:"Validity period.")
  in
  let run verbose seed hid lifetime =
    setup_logs verbose;
    let rng = Apna_crypto.Drbg.create ~seed in
    let keys = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64500) in
    let now = 1_750_000_000 in
    let e =
      Ephid.issue_random keys rng ~hid:(Apna_net.Addr.hid_of_int hid)
        ~expiry:(now + lifetime)
    in
    let raw = Ephid.to_bytes e in
    Printf.printf "EphID     : %s\n" (Apna_util.Hex.encode raw);
    Printf.printf "  IV      : %s\n" (Apna_util.Hex.encode (String.sub raw 0 4));
    Printf.printf "  cipher  : %s  (AES-CTR over HID || ExpTime)\n"
      (Apna_util.Hex.encode (String.sub raw 4 8));
    Printf.printf "  tag     : %s  (CBC-MAC over cipher || IV)\n"
      (Apna_util.Hex.encode (String.sub raw 12 4));
    (match Ephid.parse keys e with
    | Ok info ->
        Format.printf "issuing AS decrypts -> HID %a, expires %d@."
          Apna_net.Addr.pp_hid info.hid info.expiry
    | Error err -> Printf.printf "parse failed: %s\n" (Error.to_string err));
    let other = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64501) in
    Printf.printf "another AS parsing it: %s\n"
      (match Ephid.parse other e with
      | Ok _ -> "succeeded (BUG!)"
      | Error _ -> "rejected (opaque outside the issuing AS)")
  in
  Cmd.v
    (Cmd.info "ephid" ~doc:"Construct and dissect an EphID (paper Fig. 6).")
    Term.(const run $ verbose $ seed $ hid_arg $ lifetime)

(* ------------------------------------------------------------------ *)
(* workload *)

(* A live paced exchange long enough to cross renewal boundaries for the
   chosen lifetime class; reports the survivability counters. *)
let live_lifetime_run ~seed lifetime =
  let net = Scenario.line ~seed [ 64500; 64501; 64502 ] in
  let alice, bob = alice_and_bob net in
  let inbox = Scenario.inbox bob in
  Host.set_ephid_lifetime alice lifetime;
  Network.run net;
  let ep = Scenario.endpoint ~lifetime:Lifetime.Long ~receive_only:true net bob in
  let session = Scenario.connect ~expect_accept:true net alice ~remote:ep.cert in
  (* Pace the exchange over 3x the class lifetime (capped at one simulated
     hour) so Short crosses several expiry boundaries. *)
  let span_s =
    min 3600.0
      (3.0
      *. float_of_int
           (Lifetime.seconds Lifetime.default_policy lifetime))
  in
  let n = 60 in
  Scenario.pace net ~n ~span:span_s (fun i ->
      ignore (Host.send alice session (Printf.sprintf "m%03d" i)));
  Network.run net;
  let got = inbox () in
  let delivered = ref 0 in
  for i = 0 to n - 1 do
    if List.mem (Printf.sprintf "m%03d" i) got then incr delivered
  done;
  Format.printf "lifetime class      : %a (%d s)@." Lifetime.pp lifetime
    (Lifetime.seconds Lifetime.default_policy lifetime);
  Printf.printf "exchange            : %d messages over %.0f simulated s\n" n
    span_s;
  Printf.printf "delivered           : %d/%d\n" !delivered n;
  Printf.printf "session migrations  : %d\n" (Host.migrations alice);
  Printf.printf "icmp recoveries     : %d\n" (Host.recoveries alice);
  Printf.printf "brownout sends      : %d\n" (Host.brownout_sends alice);
  Printf.printf "issuance breaker    : %s (%d opens)\n"
    (Breaker.state_label (Breaker.state (Host.issuance_breaker alice)))
    (Breaker.opens (Host.issuance_breaker alice))

let workload_cmd =
  let window =
    Arg.(value & opt float 60.0 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Window around the peak to analyze.")
  in
  let lifetime =
    let classes =
      [ ("short", Lifetime.Short); ("medium", Lifetime.Medium);
        ("long", Lifetime.Long) ]
    in
    Arg.(
      value & opt (some (enum classes)) None
      & info [ "lifetime" ] ~docv:"CLASS"
          ~doc:
            "Instead of the trace summary, run a live paced exchange with \
             $(docv) (short|medium|long) source EphIDs — long enough to \
             cross renewal boundaries — and report the survivability \
             counters (migrations, recoveries, breaker state).")
  in
  let run verbose seed window lifetime =
    setup_logs verbose;
    match lifetime with
    | Some lt -> live_lifetime_run ~seed lt
    | None ->
    let cfg = Apna_workload.Trace.paper_config in
    Printf.printf "paper trace stand-in: %d hosts, peak %.0f flows/s, 24h\n"
      cfg.hosts cfg.peak_rate;
    let rng = Apna_sim.Rng.create 42L in
    let a = cfg.peak_at_s -. (window /. 2.0) in
    let n = Apna_workload.Trace.count ~window:(a, a +. window) rng cfg in
    Printf.printf "flows in the %.0f s around the peak: %d (%.0f/s)\n" window n
      (float_of_int n /. window);
    let rng = Apna_sim.Rng.create 43L in
    let measured = Apna_workload.Trace.peak_rate_measured rng cfg ~bucket_s:1.0 in
    Printf.printf "measured 1-second peak: %.0f flows/s\n" measured;
    let rng = Apna_sim.Rng.create 44L in
    List.iter
      (fun threshold ->
        let f =
          Apna_workload.Flow_model.fraction_below Apna_workload.Flow_model.default
            rng ~threshold ~samples:20_000
        in
        Printf.printf "P(flow duration < %6.0f s) = %.3f\n" threshold f)
      [ 2.0; 60.0; 900.0; 3600.0 ]
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Summarize the synthetic workload trace (\xc2\xa7V-A3), or run a \
          live lifetime-class exchange with $(b,--lifetime).")
    Term.(const run $ verbose $ seed $ window $ lifetime)

(* ------------------------------------------------------------------ *)
(* trace: the packet flight recorder *)

let trace_cmd =
  let module Link = Apna_net.Link in
  let module Event = Apna_obs.Event in
  let module Journey = Apna_obs.Journey in
  let flows =
    Arg.(value & opt int 4 & info [ "flows" ] ~docv:"N" ~doc:"Flows to open.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Inject probability-$(docv) loss (plus half duplication and \
             reorder jitter, the E13 fault mix) on every inter-AS link.")
  in
  let drops =
    Arg.(
      value & flag
      & info [ "drops" ]
          ~doc:
            "Print the drop-forensics report: non-delivered journeys \
             grouped by last good hop and failure reason.")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder as Chrome trace-event JSON (load in \
             Perfetto or chrome://tracing).")
  in
  let limit =
    Arg.(
      value & opt int 3
      & info [ "limit" ] ~docv:"N" ~doc:"Waterfalls to print.")
  in
  let run verbose seed flows loss drops chrome limit =
    setup_logs verbose;
    (* Recorder on before the network exists so every hop is captured. *)
    Event.set_enabled Event.default true;
    let faulty () =
      Link.make
        ~faults:
          (Link.make_faults ~loss ~duplicate:(loss /. 2.0)
             ~reorder:(loss /. 2.0) ~jitter_ms:1.0 ())
        ()
    in
    let net =
      Scenario.line ~seed
        ?link:(if loss > 0.0 then Some faulty else None)
        [ 64500; 64501; 64502 ]
    in
    let alice, bob = alice_and_bob net in
    let ep = Scenario.endpoint net bob in
    ack_short bob;
    for flow = 1 to flows do
      Host.connect alice ~remote:ep.cert ~data0:(Printf.sprintf "flow-%d" flow)
        (fun _ -> ())
    done;
    Network.run net;
    let journeys = Journey.assemble Event.default in
    Printf.printf "# %d journeys from %d events (%d retained)\n"
      (List.length journeys)
      (Event.recorded Event.default)
      (List.length (Event.to_list Event.default));
    if Event.evicted Event.default > 0 then
      Printf.printf
        "# NOTE: %d events evicted by the ring — oldest journeys are \
         truncated\n"
        (Event.evicted Event.default);
    List.iter
      (fun (label, n) -> Printf.printf "  %-40s %d\n" label n)
      (Journey.summary journeys);
    (* Waterfalls: failures are the interesting stories, show them first. *)
    let failed, ok =
      List.partition
        (fun (j : Journey.t) ->
          match j.outcome with Journey.Delivered -> false | _ -> true)
        journeys
    in
    print_newline ();
    List.iteri
      (fun i j -> if i < limit then print_string (Journey.render j))
      (failed @ ok);
    if drops then begin
      Printf.printf "\n# drop forensics (%d non-delivered journeys)\n"
        (List.length failed);
      match Journey.drop_report journeys with
      | [] -> print_endline "  no drops or losses recorded"
      | report ->
          Printf.printf "  %-32s %-16s %s\n" "last good hop" "reason" "journeys";
          List.iter
            (fun ((hop, reason), n) ->
              Printf.printf "  %-32s %-16s %d\n" hop reason n)
            report
    end;
    match chrome with
    | None -> ()
    | Some path ->
        Apna_obs.Chrome_trace.write_file Event.default path;
        Printf.printf "\nwrote Chrome trace to %s (open in Perfetto)\n" path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Packet flight recorder: run a workload, print per-packet journey \
          waterfalls, drop forensics ($(b,--drops)) and a Chrome trace-event \
          export ($(b,--chrome)).")
    Term.(const run $ verbose $ seed $ flows $ loss $ drops $ chrome $ limit)

(* ------------------------------------------------------------------ *)
(* shutoff *)

let shutoff_cmd =
  let waves =
    Arg.(value & opt int 7 & info [ "waves" ] ~docv:"N" ~doc:"Attack waves to launch.")
  in
  let run verbose seed waves =
    setup_logs verbose;
    let net = Scenario.line ~seed [ 64500; 64502 ] in
    let bot = Scenario.host net ~as_number:64500 ~name:"bot" ~credential:"bot" in
    let victim =
      Scenario.host net ~as_number:64502 ~name:"victim" ~credential:"victim"
    in
    let victim_ep = Scenario.endpoint net victim in
    let delivered = ref 0 in
    Host.on_data victim (fun ~session ~data:_ ->
        incr delivered;
        match Host.last_packet victim session with
        | Some evidence ->
            ignore (Host.request_shutoff victim ~session ~evidence)
        | None -> ());
    let bot_as = Network.node_exn net 64500 in
    for wave = 1 to waves do
      Host.connect bot ~remote:victim_ep.cert ~data0:"FLOOD" (fun _ -> ());
      Network.run net;
      Printf.printf "wave %d: delivered=%d revoked-ephids=%d\n" wave !delivered
        (Revocation.size (As_node.revoked bot_as))
    done;
    let bot_hid =
      Option.get (Registry.hid_of_credential (As_node.registry bot_as) ~credential:"bot")
    in
    Printf.printf "bot identity still valid: %b\n"
      (Host_info.mem_valid (As_node.host_info bot_as) bot_hid)
  in
  Cmd.v
    (Cmd.info "shutoff" ~doc:"DDoS-and-shutoff escalation scenario (\xc2\xa7IV-E).")
    Term.(const run $ verbose $ seed $ waves)

(* ------------------------------------------------------------------ *)
(* campaign: a compact misbehavior campaign against the hardened AA *)

let campaign_cmd =
  let module W = Apna_workload in
  let fraction =
    Arg.(
      value & opt float 0.05
      & info [ "fraction" ] ~docv:"F"
          ~doc:"Fraction of the population turned malicious.")
  in
  let hosts =
    Arg.(
      value & opt int 400
      & info [ "hosts" ] ~docv:"N" ~doc:"Campaign population size.")
  in
  let run verbose seed fraction hosts =
    setup_logs verbose;
    (* Escalated bots lose their control EphID and time out on issuance;
       those warnings are the point of the exercise, not noise to narrate
       individually, so keep them behind --verbose. *)
    if not verbose then Logs.set_level (Some Logs.Error);
    let trace =
      {
        W.Trace.paper_config with
        W.Trace.hosts;
        peak_rate = 50.0;
        duration_s = 6.0;
        peak_at_s = 3.0;
      }
    in
    let cfg = W.Campaign.default ~trace ~fraction in
    let events = W.Campaign.generate ~seed cfg in
    Printf.printf "campaign: %d/%d hosts malicious, %d events over %.0f s\n"
      (W.Campaign.malicious_count cfg)
      hosts (List.length events) trace.W.Trace.duration_s;
    List.iter
      (fun (label, n) -> Printf.printf "  %-24s %d events\n" label n)
      (W.Campaign.count_by_behavior events);
    (* Hardened AA with a deliberately small admission queue so shedding
       and rate refusals are visible at demo scale. *)
    let aa_limits =
      {
        Accountability.default_limits with
        rate_burst = 16;
        rate_per_s = 4.0;
        queue_cap = 8;
        drain_budget = 4;
        drain_interval_s = 0.25;
      }
    in
    let net = Scenario.line ~seed ~aa_limits [ 64500; 64502 ] in
    let n500 = Network.node_exn net 64500 in
    let victim =
      Scenario.host net ~as_number:64502 ~name:"victim" ~credential:"victim"
    in
    let victim_ep = Scenario.endpoint ~lifetime:Lifetime.Long net victim in
    let replay_pool = ref [] and built = ref 0 in
    Scenario.auto_shutoff victim ~pool:replay_pool ~built;
    let bots = Hashtbl.create 16 in
    List.iter
      (fun (e : W.Campaign.event) ->
        if
          e.behavior = W.Campaign.Unwanted_traffic
          && not (Hashtbl.mem bots e.host)
        then
          let name = Printf.sprintf "bot%d" e.host in
          Hashtbl.add bots e.host
            (Scenario.host ~granularity:Granularity.Per_packet net
               ~as_number:64500 ~name ~credential:name))
      events;
    Network.run net;
    let unwanted = ref 0 and replayed = ref 0 and guessed = ref 0 in
    let cursor = ref 0 in
    List.iter
      (fun (e : W.Campaign.event) ->
        let at f = Apna_sim.Engine.schedule_in (Network.engine net) ~delay:e.at f in
        match e.behavior with
        | W.Campaign.Unwanted_traffic ->
            at (fun () ->
                Scenario.flow net (Hashtbl.find bots e.host)
                  ~remote:victim_ep.cert ~volume:e.volume
                  ~gap:(fun k -> 0.05 *. float_of_int k)
                  ~frame:(fun _ -> "FLOOD") ~sent:unwanted)
        | W.Campaign.Replay_flood ->
            at (fun () ->
                Scenario.replay n500 ~pool:!replay_pool ~cursor
                  ~volume:e.volume ~sent:replayed)
        | W.Campaign.Ephid_bruteforce ->
            at (fun () ->
                Scenario.bruteforce net n500 ~dst:64502 ~volume:e.volume
                  ~sent:guessed)
        | W.Campaign.Shutoff_spam _ ->
            (* The bench (E18) exercises the spam kinds; here the live
               behaviors are enough to show admission under pressure. *)
            ())
      events;
    Network.run net;
    let aa = As_node.accountability n500 in
    for _ = 1 to 4 do
      Network.advance_time net 1.0;
      ignore
        (Accountability.drain aa ~now:(Network.now_unix net)
           ~at:(Network.now_f net))
    done;
    Printf.printf "\ninjected: %d unwanted, %d replayed, %d ephid guesses\n"
      !unwanted !replayed !guessed;
    (* auto_shutoff keeps every frame the victim decrypts in the pool. *)
    Printf.printf "victim delivered %d frames -> built %d shutoff requests\n"
      (List.length !replay_pool) !built;
    Printf.printf
      "AA ledger: %d granted, %d refused, %d shed (queue peak %d/%d)\n"
      (Accountability.granted_count aa)
      (Accountability.refused_count aa)
      (Accountability.shed_count aa)
      (Accountability.queue_peak aa)
      aa_limits.Accountability.queue_cap;
    List.iter
      (fun (reason, n) -> Printf.printf "  refused %-16s %d\n" reason n)
      (Accountability.refusal_reasons aa);
    let br = As_node.border_router n500 in
    List.iter
      (fun (reason, n) -> Printf.printf "BR dropped %-14s %d\n" reason n)
      (Border_router.drop_reasons br);
    Printf.printf "revocation list: %d entries\n"
      (Revocation.size (As_node.revoked n500))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a deterministic misbehavior campaign against the hardened \
          accountability agent and narrate admission, shedding, and \
          revocations.")
    Term.(const run $ verbose $ seed $ fraction $ hosts)

(* ------------------------------------------------------------------ *)
(* broker *)

let broker_cmd =
  let module B = Apna_broker.Broker in
  let module Journal = Apna_broker.Journal in
  let module Budget = Apna_broker.Budget in
  let requests =
    Arg.(
      value & opt int 12
      & info [ "requests" ] ~docv:"N" ~doc:"Linkage requests to issue.")
  in
  let capacity =
    Arg.(
      value & opt int 100
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Privacy-budget capacity per requester.")
  in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump" ] ~docv:"FILE" ~doc:"Write the decision journal to FILE.")
  in
  let tamper =
    Arg.(
      value & flag
      & info [ "tamper" ]
          ~doc:"Rewrite one journal entry afterwards to show detection.")
  in
  let run verbose seed requests capacity dump tamper =
    setup_logs verbose;
    let net = Scenario.line ~seed ~retention:64500 [ 64500; 64502 ] in
    let isp = Network.node_exn net 64500 in
    let alice =
      Scenario.host net ~as_number:64500 ~name:"alice" ~credential:"alice@isp"
    in
    let bob = Scenario.host net ~as_number:64502 ~name:"bob" ~credential:"bob" in
    let ep = Scenario.endpoint net bob in
    (* Some traffic so the retention log holds issuance + egress entries. *)
    let captured = ref [] in
    Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
        if pkt.Apna_net.Packet.proto = Apna_net.Packet.Data then
          captured := pkt :: !captured);
    ignore (Scenario.connect ~data0:"evidence" net alice ~remote:ep.cert);
    let broker =
      B.for_node isp ~budget:(Budget.create ~capacity ~refill:(max 1 (capacity / 4)) ())
    in
    let now = Network.now_unix net in
    B.register_requester broker ~id:"le-alpha" ~role:B.Law_enforcement
      ~key:"le-alpha-key" ~now;
    B.register_requester broker ~id:"peer-64502" ~role:B.Peer_as
      ~key:"peer-key" ~now;
    let audit = Option.get (As_node.audit isp) in
    Printf.printf "retention: %d issuance, %d egress entries\n"
      (Audit.issuance_count audit) (Audit.egress_count audit);
    let digests =
      List.map (fun (p : Apna_net.Packet.t) -> p.header.mac) !captured
    in
    let rng = Apna_sim.Rng.create 7L in
    Printf.printf "\n%-4s %-10s %-17s %-40s\n" "#" "requester" "query" "outcome";
    for i = 1 to requests do
      let le = i mod 5 <> 0 in
      let id = if le then "le-alpha" else "peer-64502" in
      let key = if le then "le-alpha-key" else "peer-key" in
      let query =
        match i mod 3 with
        | 0 when digests <> [] ->
            B.Request.Attribute_packet
              (List.nth digests (Apna_sim.Rng.int rng (List.length digests)))
        | 1 ->
            B.Request.Bindings_of
              (Option.get
                 (Registry.hid_of_credential (As_node.registry isp)
                    ~credential:"alice@isp"))
        | _ -> B.Request.Attribute_packet "no-such-digest"
      in
      let resp =
        B.handle broker ~now:(Network.now_unix net)
          (B.Request.sign ~key ~corr:(Int64.of_int i) ~requester:id ~query)
      in
      let outcome =
        match resp with
        | B.Response.Granted { cost; remaining; grant; _ } ->
            let what =
              match grant with
              | B.Response.Identity { credential; _ } ->
                  Printf.sprintf "identity %s"
                    (Option.value ~default:"?" credential)
              | B.Response.Bindings bs ->
                  Printf.sprintf "%d bindings" (List.length bs)
              | B.Response.Attribution { credential; _ } ->
                  Printf.sprintf "attributed to %s"
                    (Option.value ~default:"?" credential)
            in
            Printf.sprintf "GRANT %-24s cost=%d left=%d" what cost remaining
        | B.Response.Refused { reason; remaining; _ } ->
            Printf.sprintf "REFUSE %-30s left=%d" (Error.kind_label reason)
              remaining
      in
      Printf.printf "%-4d %-10s %-17s %s\n" i id
        (B.Request.query_label query) outcome
    done;
    Printf.printf "\nbudgets:\n";
    List.iter
      (fun (id, remaining, cap) ->
        Printf.printf "  %-12s %4d / %d\n" id remaining cap)
      (Budget.accounts (B.budget broker) ~now:(Network.now_unix net));
    Printf.printf "decisions: %d grants, %d refusals\n" (B.grants broker)
      (B.refusals broker);
    let j = B.journal broker in
    if tamper then begin
      ignore
        (Journal.tamper_for_test j ~seq:(Journal.length j / 2)
           ~payload:"grant requester=le-alpha query=bindings-of (rewritten)");
      Printf.printf "tampered with entry %d...\n" (Journal.length j / 2)
    end;
    (match Journal.verify j with
    | Ok () ->
        Printf.printf "journal: %d entries, chain verifies, head %s\n"
          (Journal.length j)
          (String.sub (Apna_util.Hex.encode (Journal.head j)) 0 16)
    | Error e -> Printf.printf "journal: TAMPER DETECTED — %s\n" e);
    match dump with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        List.iter
          (fun (e : Journal.entry) ->
            Printf.fprintf oc "%6d %d %s %s\n" e.seq e.at
              (Apna_util.Hex.encode e.hash)
              e.payload)
          (Journal.to_list j);
        close_out oc;
        Printf.printf "journal dumped to %s (%d entries)\n" file
          (Journal.length j)
  in
  Cmd.v
    (Cmd.info "broker"
       ~doc:
         "Privacy-broker scenario: metered deanonymization requests against \
          a retention-enabled AS, with budget refusals, the hash-chained \
          decision journal ($(b,--dump)), and tamper detection \
          ($(b,--tamper)).")
    Term.(const run $ verbose $ seed $ requests $ capacity $ dump $ tamper)

(* ------------------------------------------------------------------ *)
(* health / top: live telemetry over an attack-flavored workload *)

(* A deterministic scenario that exercises the default rulepack: paced
   two-way traffic over fault-injected links (duplication drives the
   session replay windows, loss drives the link-loss rule) plus a broker
   querier that drains its privacy budget mid-run. *)
let attack_scenario ~seed ~loss ~rate ~duration ~interval ?frame () =
  let module Link = Apna_net.Link in
  let module B = Apna_broker.Broker in
  let module Budget = Apna_broker.Budget in
  let net = Scenario.line ~seed ~retention:64500 [ 64500; 64501; 64502 ] in
  let isp = Network.node_exn net 64500 in
  let alice, bob = alice_and_bob net in
  let ep = Scenario.endpoint ~lifetime:Lifetime.Long ~receive_only:true net bob in
  ack_short bob;
  let session = Scenario.connect ~expect_accept:true net alice ~remote:ep.cert in
  (* Handshake done; now degrade the transit path. Re-connecting an
     existing AS pair swaps in the new link, so the flood below rides
     lossy, duplicating links (duplication is what drives the session
     replay windows) while the session itself is already up. *)
  if loss > 0.0 then begin
    let faulty () =
      Link.make
        ~faults:
          (Link.make_faults ~loss ~duplicate:(loss *. 3.0)
             ~reorder:(loss /. 2.0) ~jitter_ms:1.0 ())
        ()
    in
    Network.connect_as net 64500 64501 ~link:(faulty ()) ();
    Network.connect_as net 64501 64502 ~link:(faulty ()) ()
  end;
  let tel = Telemetry.attach ~interval net in
  let eng = Network.engine net in
  (* The flood: [rate] messages/s paced over [duration]. *)
  Scenario.pace net ~n:(max 1 (int_of_float (rate *. duration))) ~span:duration
    (fun i -> ignore (Host.send alice session (Printf.sprintf "m%05d" i)));
  (* The warrant storm: a tight budget drained in the second half. *)
  let broker =
    B.for_node isp ~budget:(Budget.create ~capacity:6 ~refill:1 ())
  in
  B.register_requester broker ~id:"le" ~role:B.Law_enforcement ~key:"le-key"
    ~now:(Network.now_unix net);
  let alice_hid =
    Option.get
      (Registry.hid_of_credential (As_node.registry isp) ~credential:"a")
  in
  for i = 0 to 14 do
    Apna_sim.Engine.schedule_in eng
      ~delay:
        ((duration /. 2.0)
        +. (duration /. 2.0 *. float_of_int i /. 15.0))
      (fun () ->
        ignore
          (B.handle broker ~now:(Network.now_unix net)
             (B.Request.sign ~key:"le-key" ~corr:(Int64.of_int (i + 100))
                ~requester:"le" ~query:(B.Request.Bindings_of alice_hid))))
  done;
  (match frame with
  | None -> ()
  | Some (every, f) ->
      let frames = int_of_float (duration /. every) in
      for k = 1 to frames do
        Apna_sim.Engine.schedule_in eng ~delay:(every *. float_of_int k)
          (fun () -> f tel)
      done);
  Network.run net;
  (net, tel)

let loss_arg =
  Arg.(
    value & opt float 0.08
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Inter-AS link loss probability (duplication is injected at 3x \
           $(docv) — the replay-flood driver).")

let rate_arg =
  Arg.(
    value & opt float 100.0
    & info [ "rate" ] ~docv:"MSGS" ~doc:"Flood pacing, messages/s.")

let duration_arg =
  Arg.(
    value & opt float 10.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated scenario length.")

let interval_arg =
  Arg.(
    value & opt float 0.25
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Telemetry sampling tick.")

let health_cmd =
  let export =
    Arg.(
      value & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:"Write the telemetry timeline (telemetry.json schema) to FILE.")
  in
  let run verbose seed loss rate duration interval export =
    setup_logs verbose;
    (* The whole point is rejected traffic: without -v the per-frame
       replay warnings would drown the report. *)
    if not verbose then Logs.set_level (Some Logs.Error);
    let _, tel =
      attack_scenario ~seed ~loss ~rate ~duration ~interval ()
    in
    Printf.printf "# health (after %.0f simulated s, %d ticks)\n" duration
      (Apna_obs.Timeseries.ticks (Telemetry.timeseries tel));
    print_string (Apna_obs.Health.render (Telemetry.health tel));
    print_newline ();
    print_string (Apna_obs.Alert.render (Telemetry.alerts tel));
    Printf.printf "# rules that fired during the run: %s\n"
      (Apna_obs.Alert.(rules_text (fired_rules (Telemetry.alerts tel))));
    match export with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Apna_obs.Json.to_string (Telemetry.export tel));
        close_out oc;
        Printf.printf "telemetry timeline written to %s\n" file
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run the attack-flavored workload with the telemetry sampler on \
          and print the per-AS health rollup, alert states and the rules \
          that fired.")
    Term.(
      const run $ verbose $ seed $ loss_arg $ rate_arg $ duration_arg
      $ interval_arg $ export)

let top_cmd =
  let refresh =
    Arg.(
      value & opt float 1.0
      & info [ "refresh" ] ~docv:"SECONDS"
          ~doc:"Dashboard refresh period (simulated seconds).")
  in
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:"No ANSI clear between frames (for logs and pipes).")
  in
  let run verbose seed loss rate duration interval refresh plain =
    setup_logs verbose;
    if not verbose then Logs.set_level (Some Logs.Error);
    let frame tel =
      if not plain then print_string "\027[2J\027[H";
      print_string (Telemetry.dashboard tel);
      if plain then print_endline "----"
    in
    let _, tel =
      attack_scenario ~seed ~loss ~rate ~duration ~interval
        ~frame:(refresh, frame) ()
    in
    if not plain then print_string "\027[2J\027[H";
    print_string (Telemetry.dashboard tel);
    Printf.printf "\nrun complete; rules fired: %s\n"
      (Apna_obs.Alert.(rules_text (fired_rules (Telemetry.alerts tel))))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live text dashboard over the attack-flavored workload: per-AS \
          health, alert states and derived-indicator sparklines, redrawn \
          every $(b,--refresh) simulated seconds.")
    Term.(
      const run $ verbose $ seed $ loss_arg $ rate_arg $ duration_arg
      $ interval_arg $ refresh $ plain)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let module M = Apna_obs.Metrics in
  let module Event = Apna_obs.Event in
  let flows =
    Arg.(value & opt int 5 & info [ "flows" ] ~docv:"N" ~doc:"Flows to open.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.")
  in
  let run verbose seed flows json =
    setup_logs verbose;
    (* Observability on before the network exists, so creation-time series
       and every packet's stages are captured. *)
    M.set_enabled M.default true;
    Event.set_enabled Event.default true;
    let net = Network.create ~seed () in
    (* Telemetry sampler + alert engine riding the same engine; alert-state
       lines append to the scrape text below. It attaches before any AS
       exists, so its alert gauge leads the scrape (series print in
       registration order) — which is why this world is not a
       [Scenario.line]. *)
    let tel = Telemetry.attach net in
    Apna_obs.Alert.attach_scrape (Telemetry.alerts tel) M.default;
    let isp = Network.add_as net 64500 ~retention:true () in
    let _ = Network.add_as net 64501 () in
    let _ = Network.add_as net 64502 () in
    Network.connect_as net 64500 64501 ();
    Network.connect_as net 64501 64502 ();
    let alice, bob = alice_and_bob net in
    (* Short-lived client EphIDs so the run crosses a renewal boundary and
       the survivability series (migrations, breaker gauge) are live. *)
    Host.set_ephid_lifetime alice Lifetime.Short;
    let ep = Scenario.endpoint ~lifetime:Lifetime.Long net bob in
    ack_short bob;
    Telemetry.kick tel;
    for flow = 1 to flows do
      Host.connect alice ~remote:ep.cert ~data0:(Printf.sprintf "flow-%d" flow)
        (fun _ -> ())
    done;
    Network.run net;
    Network.advance_time net 40.0;
    Telemetry.kick tel;
    List.iter
      (fun s -> ignore (Host.send alice s "renewal-probe"))
      (Host.sessions alice);
    Network.run net;
    (* A few brokered linkage requests so the broker series are live: a
       tight budget makes the last request hit Budget_exhausted. *)
    let module B = Apna_broker.Broker in
    let module Budget = Apna_broker.Budget in
    let module Journal = Apna_broker.Journal in
    let broker =
      B.for_node isp ~budget:(Budget.create ~capacity:60 ~refill:10 ())
    in
    let bnow = Network.now_unix net in
    B.register_requester broker ~id:"le" ~role:B.Law_enforcement ~key:"le-key"
      ~now:bnow;
    B.register_requester broker ~id:"peer-64502" ~role:B.Peer_as
      ~key:"peer-key" ~now:bnow;
    let alice_hid =
      Option.get
        (Registry.hid_of_credential (As_node.registry isp) ~credential:"a")
    in
    List.iteri
      (fun i (id, key, query) ->
        ignore
          (B.handle broker ~now:(Network.now_unix net)
             (B.Request.sign ~key ~corr:(Int64.of_int (i + 1)) ~requester:id
                ~query)))
      [
        ("le", "le-key", B.Request.Bindings_of alice_hid);
        ("le", "le-key", B.Request.Bindings_of alice_hid);
        ("peer-64502", "peer-key", B.Request.Attribute_packet "no-such-digest");
        ("le", "le-key", B.Request.Bindings_of alice_hid);
      ];
    (* Final snapshot so the alerts/health block reflects the whole run. *)
    Telemetry.tick_now tel;
    if json then
      print_endline
        (Apna_obs.Json.to_string ~pretty:true (M.to_json M.default))
    else begin
      print_string (M.render_text M.default);
      print_newline ();
      Printf.printf "# session survivability\n";
      List.iter
        (fun h ->
          Printf.printf
            "  %-8s breaker=%-9s migrations=%d recoveries=%d \
             brownout-sends=%d stale-discards=%d\n"
            (Host.name h)
            (Breaker.state_label (Breaker.state (Host.issuance_breaker h)))
            (Host.migrations h) (Host.recoveries h) (Host.brownout_sends h)
            (Host.stale_prefetch_discards h))
        [ alice; bob ];
      print_newline ();
      Printf.printf "# privacy broker (AS 64500)\n";
      Printf.printf "  decisions: %d grants, %d refusals\n" (B.grants broker)
        (B.refusals broker);
      List.iter
        (fun (id, remaining, cap) ->
          Printf.printf "  budget %-12s %4d / %d\n" id remaining cap)
        (Budget.accounts (B.budget broker) ~now:(Network.now_unix net));
      let j = B.journal broker in
      Printf.printf "  journal: %d entries, head %s, %s\n" (Journal.length j)
        (String.sub (Apna_util.Hex.encode (Journal.head j)) 0 16)
        (match B.verify_journal broker with
        | Ok () -> "chain verifies"
        | Error e -> "TAMPERED: " ^ e);
      print_newline ();
      Printf.printf "# alerts & health (%d telemetry ticks @ %.2fs)\n"
        (Apna_obs.Timeseries.ticks (Telemetry.timeseries tel))
        (Telemetry.interval tel);
      print_string (Apna_obs.Health.render (Telemetry.health tel));
      Printf.printf "  rules fired: %s\n"
        (Apna_obs.Alert.(rules_text (fired_rules (Telemetry.alerts tel))));
      print_newline ();
      Printf.printf "# flight recorder stages (%d recorded, %d retained)\n"
        (Event.recorded Event.default)
        (List.length (Event.to_list Event.default));
      (* The summary only covers the retained window, so say so when
         records fell out of the ring. *)
      if Event.evicted Event.default > 0 then
        Printf.printf
          "# NOTE: %d records evicted (ring capacity %d); stage summary \
           covers the newest records only\n"
          (Event.evicted Event.default)
          (Event.capacity Event.default);
      Printf.printf "%-22s %8s %14s\n" "stage" "records" "mean (sim s)";
      List.iter
        (fun (stage, n, mean) -> Printf.printf "%-22s %8d %14.6f\n" stage n mean)
        (Event.stage_summary Event.default)
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a small workload with observability enabled and dump the \
          metrics registry (scrape text or JSON) plus the flight recorder's \
          per-stage summary (record count and mean duration; \
          $(b,apnad trace) prints per-packet journeys).")
    Term.(const run $ verbose $ seed $ flows $ json)

let () =
  let info =
    Cmd.info "apnad" ~version:"1.0.0"
      ~doc:"APNA (Accountable and Private Network Architecture) simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd; ephid_cmd; workload_cmd; trace_cmd; shutoff_cmd;
            campaign_cmd; broker_cmd; stats_cmd; health_cmd; top_cmd;
          ]))
