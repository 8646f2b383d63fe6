(* Engine-driven telemetry: a recurring simulated-time tick that snapshots
   the metrics registry into ring-buffered time series, computes derived
   indicators, and evaluates the alert rules. *)

module M = Apna_obs.Metrics
module T = Apna_obs.Timeseries
module Derive = Apna_obs.Derive
module Alert = Apna_obs.Alert
module Health = Apna_obs.Health
module Json = Apna_obs.Json
module Engine = Apna_sim.Engine
module Addr = Apna_net.Addr

type t = {
  net : Network.t;
  ts : T.t;
  alerts : Alert.t;
  interval : float;
  mutable armed : bool;
  mutable stopped : bool;
}

let timeseries t = t.ts
let alerts t = t.alerts
let interval t = t.interval

(* Each AS's revocation-list size, read at scrape. Registered at tick time
   (so an AS added mid-run appears at the next tick); registering again
   replaces the reader with an identical one. *)
let register_revocation_gauges t =
  List.iter
    (fun node ->
      let revoked = As_node.revoked node in
      M.Gauge.register_fn M.default
        ~labels:[ ("aid", string_of_int (Addr.aid_to_int (As_node.aid node))) ]
        ~help:"Live revocation-list entries" "apna_revocation_list_size" (fun () ->
          float_of_int (Revocation.size revoked)))
    (Network.ases t.net)

let tick_now t =
  let now = Network.now_f t.net in
  register_revocation_gauges t;
  T.tick t.ts ~now;
  Derive.compute t.ts ~now;
  Alert.eval t.alerts ~now

(* The tick keeps rescheduling itself only while the engine has other
   work queued: when the network quiesces the sampler takes one last
   snapshot and disarms, so [Network.run]'s run-to-quiescence loop still
   terminates. [kick] re-arms it before the next traffic phase. *)
let rec arm t =
  t.armed <- true;
  Engine.schedule_in (Network.engine t.net) ~delay:t.interval (fun () ->
      if not t.stopped then begin
        tick_now t;
        if Engine.pending (Network.engine t.net) > 0 then arm t
        else t.armed <- false
      end
      else t.armed <- false)

let kick t = if (not t.armed) && not t.stopped then arm t

let stop t =
  t.stopped <- true;
  t.armed <- false

let attach ?(interval = 0.25) ?capacity ?rules net =
  M.set_enabled M.default true;
  let ts = T.create ?capacity ~interval M.default in
  T.set_enabled ts true;
  let rules =
    match rules with Some r -> r | None -> Alert.default_rules ~interval ()
  in
  let alerts = Alert.create ~rules ts in
  let t =
    {
      net;
      ts;
      alerts;
      interval;
      armed = false;
      stopped = false;
    }
  in
  arm t;
  t

let health t = Health.rollup t.alerts t.ts

let export t =
  Json.Obj
    [
      ("timeseries", T.to_json t.ts);
      ("alerts", Alert.to_json t.alerts);
      ("health", Health.to_json (health t));
    ]

(* ---- text dashboard (apnad top / health) ---- *)

let spark values =
  (* Unicode block sparkline over the last points of a series. *)
  let blocks = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let finite = List.filter (fun v -> not (Float.is_nan v)) values in
  match finite with
  | [] -> ""
  | _ ->
      let hi = List.fold_left Float.max neg_infinity finite in
      let lo = List.fold_left Float.min infinity finite in
      let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             if Float.is_nan v then " "
             else
               let i =
                 int_of_float ((v -. lo) /. span *. 8.0) |> min 8 |> max 0
               in
               blocks.(i))
           values)

let tail_values s n =
  let pts = T.points s in
  let len = List.length pts in
  List.filteri (fun i _ -> i >= len - n) pts |> List.map snd

(* Sparkline width of the dashboard's indicator rows, in points. *)
let spark_width = 24

let dashboard t =
  let b = Buffer.create 1024 in
  let now = Network.now_f t.net in
  Buffer.add_string b
    (Printf.sprintf "apna telemetry  t=%.2fs  ticks=%d  interval=%.2fs\n\n"
       now (T.ticks t.ts) t.interval);
  Buffer.add_string b "HEALTH\n";
  Buffer.add_string b (Health.render (health t));
  let firing = Alert.firing t.alerts in
  Buffer.add_string b
    (Printf.sprintf "\nALERTS (%d firing)\n" (List.length firing));
  List.iter
    (fun i ->
      let r = Alert.rule i in
      Buffer.add_string b
        (Printf.sprintf "  %-4s %-20s %-9s %s\n"
           (Alert.severity_label r.Alert.severity)
           r.Alert.name
           (Alert.state_label (Alert.state i))
           (Alert.series i)))
    (List.filter
       (fun i -> Alert.state i <> Alert.Inactive)
       (Alert.instances t.alerts));
  Buffer.add_string b "\nINDICATORS\n";
  T.fold t.ts
    (fun () s ->
      if T.kind s = T.Kderived then begin
        let v = T.last_value s in
        Buffer.add_string b
          (Printf.sprintf "  %-52s %10s  %s\n" (T.series_id s)
             (if Float.is_nan v then "-" else Printf.sprintf "%.3f" v)
             (spark (tail_values s spark_width)))
      end)
    ();
  Buffer.contents b
