(* Declarative alert rules over Timeseries data, with for_-duration
   hysteresis and a pending -> firing -> resolved state machine. *)

module T = Timeseries

type predicate =
  | Above of float
  | Below of float
  | Rate_above of { window : float; per_s : float }
  | Rate_below of { window : float; per_s : float }

type severity = Warn | Crit

let severity_label = function Warn -> "warn" | Crit -> "crit"

type rule = {
  name : string;
  metric : string;
  where : (string * string) list;
  pred : predicate;
  for_ : float;
  severity : severity;
  summary : string;
}

type state =
  | Inactive
  | Pending of float
  | Firing of float
  | Resolved of float

let state_label = function
  | Inactive -> "inactive"
  | Pending _ -> "pending"
  | Firing _ -> "firing"
  | Resolved _ -> "resolved"

let state_code = function
  | Inactive -> 0
  | Pending _ -> 1
  | Firing _ -> 2
  | Resolved _ -> 3

type instance = {
  irule : rule;
  iseries : string;
  ilabels : (string * string) list;
  mutable istate : state;
}

type transition = {
  at : float;
  trule : string;
  tseries : string;
  to_state : string;
}

type t = {
  ts : T.t;
  rules : rule list;
  instances : (string, instance) Hashtbl.t;
  (* Instance creation order, newest first. *)
  mutable order : string list;
  (* Bounded transition history, newest first, for telemetry.json. *)
  mutable history : transition list;
  mutable history_len : int;
  (* Rule names that have ever reached Firing — the bench gates. *)
  fired : (string, unit) Hashtbl.t;
  (* Metric emission into the sampled registry. *)
  g_firing : Metrics.Gauge.m;
  state_gauges : (string, Metrics.Gauge.m) Hashtbl.t;
  transition_counters : (string * string, Metrics.Counter.m) Hashtbl.t;
}

(* Transitions kept for telemetry.json; half are dropped when it fills. *)
let history_cap = 1024

let create ?(rules = []) ts =
  {
    ts;
    rules;
    instances = Hashtbl.create 32;
    order = [];
    history = [];
    history_len = 0;
    fired = Hashtbl.create 8;
    g_firing =
      Metrics.Gauge.register (T.registry ts)
        ~help:"Alert-rule instances currently firing" "apna_alert_firing";
    state_gauges = Hashtbl.create 8;
    transition_counters = Hashtbl.create 16;
  }

let rules t = t.rules

let instances t =
  List.rev_map (fun k -> Hashtbl.find t.instances k) t.order

let rule i = i.irule
let series i = i.iseries
let state i = i.istate

let firing t =
  List.filter (fun i -> match i.istate with Firing _ -> true | _ -> false)
    (instances t)

let has_fired t name = Hashtbl.mem t.fired name
let fired_rules t = Hashtbl.fold (fun k () acc -> k :: acc) t.fired []

let rules_text rules =
  match List.sort String.compare rules with
  | [] -> "(none)"
  | rs -> String.concat ", " rs
let history t = List.rev t.history

(* ---- predicate evaluation ---- *)

let finite v = not (Float.is_nan v)

let holds pred s =
  match pred with
  | Above thr ->
      let v = T.last_value s in
      finite v && v > thr
  | Below thr ->
      let v = T.last_value s in
      finite v && v < thr
  | Rate_above { window; per_s } ->
      T.length s >= 2 && T.rate s ~window > per_s
  | Rate_below { window; per_s } ->
      T.length s >= 2 && T.rate s ~window < per_s

let labels_match where labels =
  List.for_all (fun (k, v) -> List.assoc_opt k labels = Some v) where

(* ---- emission ---- *)

let state_gauge t rule_name =
  match Hashtbl.find_opt t.state_gauges rule_name with
  | Some g -> g
  | None ->
      let g =
        Metrics.Gauge.register (T.registry t.ts)
          ~labels:[ ("rule", rule_name) ]
          ~help:"Worst instance state per alert rule (0 inactive, 1 pending, 2 firing, 3 resolved)"
          "apna_alert_state"
      in
      Hashtbl.replace t.state_gauges rule_name g;
      g

let transition_counter t rule_name to_state =
  let key = (rule_name, to_state) in
  match Hashtbl.find_opt t.transition_counters key with
  | Some c -> c
  | None ->
      let c =
        Metrics.Counter.register (T.registry t.ts)
          ~labels:[ ("rule", rule_name); ("to", to_state) ]
          ~help:"Alert state-machine transitions" "apna_alert_transitions_total"
      in
      Hashtbl.replace t.transition_counters key c;
      c

let note_transition t i ~now st =
  i.istate <- st;
  let to_state = state_label st in
  (match st with Firing _ -> Hashtbl.replace t.fired i.irule.name () | _ -> ());
  Metrics.Counter.incr (transition_counter t i.irule.name to_state);
  if t.history_len >= history_cap then begin
    (* Drop the oldest half rather than one-at-a-time list surgery. *)
    let keep = history_cap / 2 in
    t.history <- List.filteri (fun idx _ -> idx < keep) t.history;
    t.history_len <- keep
  end;
  t.history <-
    { at = now; trule = i.irule.name; tseries = i.iseries; to_state }
    :: t.history;
  t.history_len <- t.history_len + 1;
  if Event.enabled Event.default then
    Event.record_hashed Event.default i.irule.name
      (Event.Alert_state
         { rule = i.irule.name; series = i.iseries; state = to_state })

(* ---- evaluation ---- *)

let instance_for t r s =
  let key = r.name ^ "|" ^ T.series_id s in
  match Hashtbl.find_opt t.instances key with
  | Some i -> i
  | None ->
      let i =
        {
          irule = r;
          iseries = T.series_id s;
          ilabels = T.labels s;
          istate = Inactive;
        }
      in
      Hashtbl.replace t.instances key i;
      t.order <- key :: t.order;
      i

let step t i ~now ok =
  match (i.istate, ok) with
  | Inactive, false -> ()
  | Inactive, true ->
      if i.irule.for_ <= 0.0 then note_transition t i ~now (Firing now)
      else note_transition t i ~now (Pending now)
  | Pending since, true ->
      if now -. since >= i.irule.for_ then note_transition t i ~now (Firing now)
  | Pending _, false ->
      (* Dropped below threshold before [for_] elapsed: never fired, so
         nothing to resolve — hysteresis against boundary flapping. *)
      i.istate <- Inactive
  | Firing _, true -> ()
  | Firing _, false -> note_transition t i ~now (Resolved now)
  | Resolved _, true ->
      if i.irule.for_ <= 0.0 then note_transition t i ~now (Firing now)
      else note_transition t i ~now (Pending now)
  | Resolved _, false -> ()

let eval t ~now =
  List.iter
    (fun r ->
      T.fold t.ts
        (fun () s ->
          if T.name s = r.metric && labels_match r.where (T.labels s) then
            step t (instance_for t r s) ~now (holds r.pred s))
        ())
    t.rules;
  (* Roll instance states up into the emitted gauges. *)
  let firing_count = ref 0 in
  let worst : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun i ->
      (match i.istate with Firing _ -> incr firing_count | _ -> ());
      let c = state_code i.istate in
      let prev =
        try Hashtbl.find worst i.irule.name with Not_found -> 0
      in
      (* Firing (2) outranks resolved (3) for "worst". *)
      let rank = function 2 -> 3 | 1 -> 2 | 3 -> 1 | _ -> 0 in
      if rank c > rank prev then Hashtbl.replace worst i.irule.name c)
    (instances t);
  Metrics.Gauge.set t.g_firing (float_of_int !firing_count);
  List.iter
    (fun r ->
      let c = try Hashtbl.find worst r.name with Not_found -> 0 in
      Metrics.Gauge.set (state_gauge t r.name) (float_of_int c))
    t.rules

(* ---- scrape exposition ---- *)

let render t =
  let b = Buffer.create 256 in
  let non_inactive =
    List.filter (fun i -> i.istate <> Inactive) (instances t)
  in
  Buffer.add_string b
    (Printf.sprintf "# ALERTS rules=%d instances=%d firing=%d\n"
       (List.length t.rules)
       (Hashtbl.length t.instances)
       (List.length (firing t)));
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "apna_alert{rule=\"%s\",series=\"%s\",severity=\"%s\",state=\"%s\"} %d\n"
           (Metrics.escape_label_value i.irule.name)
           (Metrics.escape_label_value i.iseries)
           (severity_label i.irule.severity)
           (state_label i.istate) (state_code i.istate)))
    non_inactive;
  Buffer.contents b

let attach_scrape t reg = Metrics.add_appendix reg (fun () -> render t)

(* ---- export ---- *)

let predicate_json = function
  | Above thr -> Json.Obj [ ("above", Json.Float thr) ]
  | Below thr -> Json.Obj [ ("below", Json.Float thr) ]
  | Rate_above { window; per_s } ->
      Json.Obj
        [ ("rate_above", Json.Float per_s); ("window", Json.Float window) ]
  | Rate_below { window; per_s } ->
      Json.Obj
        [ ("rate_below", Json.Float per_s); ("window", Json.Float window) ]

let to_json t =
  Json.Obj
    [
      ("rules",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                [
                  ("name", Json.Str r.name);
                  ("metric", Json.Str r.metric);
                  ("where",
                   Json.Obj
                     (List.map (fun (k, v) -> (k, Json.Str v)) r.where));
                  ("predicate", predicate_json r.pred);
                  ("for", Json.Float r.for_);
                  ("severity", Json.Str (severity_label r.severity));
                  ("summary", Json.Str r.summary);
                  ("fired", Json.Bool (has_fired t r.name));
                ])
            t.rules));
      ("instances",
       Json.List
         (List.map
            (fun i ->
              Json.Obj
                [
                  ("rule", Json.Str i.irule.name);
                  ("series", Json.Str i.iseries);
                  ("state", Json.Str (state_label i.istate));
                ])
            (instances t)));
      ("transitions",
       Json.List
         (List.map
            (fun tr ->
              Json.Obj
                [
                  ("at", Json.Float tr.at);
                  ("rule", Json.Str tr.trule);
                  ("series", Json.Str tr.tseries);
                  ("to", Json.Str tr.to_state);
                ])
            (history t)));
    ]

(* ---- default rulepack: the ROADMAP-4 attack signatures ---- *)

let default_rules ?(interval = 0.25) () =
  let w = 8.0 *. interval in
  [
    {
      name = "replay-flood";
      metric = Derive.replay_reject_rate;
      where = [];
      pred = Above 20.0;
      for_ = 2.0 *. interval;
      severity = Crit;
      summary =
        "Replayed/stale rejections above 20/s sustained: a replay flood \
         is hammering the session replay windows or the BR filters.";
    };
    {
      name = "link-loss";
      metric = "apna_net_fault_lost_total";
      where = [];
      pred = Rate_above { window = w; per_s = 10.0 };
      for_ = 2.0 *. interval;
      severity = Warn;
      summary =
        "Injected or observed link loss above 10 frames/s: degraded \
         transport, expect control-plane retries and session recovery.";
    };
    {
      name = "revocation-storm";
      metric = Derive.revocation_growth;
      where = [];
      pred = Above 25.0;
      for_ = 2.0 *. interval;
      severity = Warn;
      summary =
        "Revocation list growing above 25 entries/s: mass misbehavior \
         campaign or a runaway revocation loop.";
    };
    {
      name = "shutoff-stall";
      metric = Derive.shutoff_backlog;
      where = [];
      pred = Above 8.0;
      for_ = 4.0 *. interval;
      severity = Crit;
      summary =
        "More than 8 shutoff requests in flight for several ticks: \
         shutoff propagation latency is blowing up under attack.";
    };
    {
      name = "broker-budget-drain";
      metric = Derive.budget_exhausted_rate;
      where = [];
      pred = Above 0.5;
      for_ = 0.0;
      severity = Crit;
      summary =
        "Budget-exhausted broker refusals above 0.5/s: a requester is \
         draining its privacy budget — warrant-storm signature.";
    };
    {
      name = "breaker-open";
      metric = Derive.breaker_max;
      where = [];
      pred = Above 1.5;
      for_ = 0.0;
      severity = Crit;
      summary =
        "An issuance circuit breaker is open: the management service is \
         unreachable or failing; hosts are in brownout.";
    };
    {
      name = "cache-collapse";
      metric = Derive.cache_hit_ratio;
      where = [];
      pred = Below 0.3;
      for_ = 8.0 *. interval;
      severity = Warn;
      summary =
        "EphID-cache hit ratio below 30% sustained: invalidation churn \
         (revocation storm) or a brute-force EphID-guessing flood.";
    };
  ]
