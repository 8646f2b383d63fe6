(* E14: session survivability across EphID lifetime boundaries. *)

open Apna
open Harness
open Fixtures
module Link = Apna_net.Link

(* A paced exchange of [n] unique messages, each sent [copies] times 600 ms
   apart against the loss, over links with [link_faults] (none if
   [None]). *)
let sweep_row ~n ~copies (label, link_faults) =
  let net =
    Scenario.line ~seed:(Printf.sprintf "e14-%s" label)
      ?link:(Option.map (fun faults () -> Link.make ~faults ()) link_faults)
      [ 100; 200; 300 ]
  in
  let alice = Scenario.host net ~as_number:100 ~name:"alice" ~credential:"a" in
  let bob = Scenario.host net ~as_number:300 ~name:"bob" ~credential:"b" in
  let inbox = Scenario.inbox bob in
  Host.set_ephid_lifetime alice Lifetime.Short;
  Network.run net;
  let bep = Scenario.endpoint ~lifetime:Lifetime.Long ~receive_only:true net bob in
  (* Receive-only remote: the Init retransmits until bob's Accept, so
     establishment itself survives the injected loss. *)
  let session = Scenario.connect ~expect_accept:true net alice ~remote:bep.cert in
  let eng = Network.engine net in
  for i = 0 to n - 1 do
    let data = Printf.sprintf "m%03d" i in
    for c = 0 to copies - 1 do
      Apna_sim.Engine.schedule_in eng
        ~delay:(10.0 +. (2.0 *. float_of_int i) +. (0.6 *. float_of_int c))
        (fun () -> ignore (Host.send alice session data))
    done
  done;
  Network.run net;
  let got = inbox () in
  let delivered =
    List.length
      (List.filter (fun i -> List.mem (Printf.sprintf "m%03d" i) got) (List.init n Fun.id))
  in
  let goodput = float_of_int delivered /. float_of_int n in
  let both f = f alice + f bob in
  let migrations = both Host.migrations in
  let recoveries = both Host.recoveries in
  let brownouts = both Host.brownout_sends in
  let retries = both Host.rpc_retries in
  let breaker = Host.issuance_breaker alice in
  line "%8s %7.1f%% %10d %10d %10d %9s %8d" label (goodput *. 100.0) migrations
    recoveries brownouts
    (Breaker.state_label (Breaker.state breaker))
    retries;
  ( label,
    goodput,
    migrations,
    J.Obj
      [
        ("faults", J.Str label);
        ("messages", J.Int n);
        ("copies", J.Int copies);
        ("delivered", J.Int delivered);
        ("goodput", J.Float goodput);
        ("migrations", J.Int migrations);
        ("recoveries", J.Int recoveries);
        ("brownout_sends", J.Int brownouts);
        ("breaker_opens", J.Int (Breaker.opens breaker));
        ("stale_prefetch_discards", J.Int (Host.stale_prefetch_discards alice));
        ("rpc_retries", J.Int retries);
      ] )

let run tier =
  let rough = Link.make_faults ~loss:0.10 ~duplicate:0.05 ~reorder:0.2 ~jitter_ms:2.0 () in
  (* 3x the Short lifetime of traffic in the full run, ~1x at the quick
     tier; each unique message goes out 4 times. *)
  let n = by_tier tier ~quick:30 ~full:85 in
  line "";
  line "%8s %8s %10s %10s %10s %9s %8s" "faults" "goodput" "migrations"
    "recoveries" "brownouts" "breaker" "retries";
  let rows =
    List.map (sweep_row ~n ~copies:4) [ ("none", None); ("rough", Some rough) ]
  in
  line "";
  (* Acceptance: sessions cross >= 2 expiry boundaries with zero delivery
     failures, with and without faults. *)
  let gates =
    List.concat_map
      (fun (label, goodput, migrations, _) ->
        [
          gate ("goodput_" ^ label) goodput (At_least 1.0);
          gate ("migrations_" ^ label) (float_of_int migrations) (At_least 2.0);
        ])
      rows
  in
  (J.List (List.map (fun (_, _, _, j) -> j) rows), gates)

let experiment =
  {
    id = "E14";
    title = "LIFETIME-SWEEP";
    paper_ref = "goodput of long sessions across Short (60 s) EphID expiries";
    run;
  }
