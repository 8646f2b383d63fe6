(* Tests for the observability subsystem: metrics registry, JSON codec,
   the flight-recorder ring and what is built on it. Everything here uses
   private registries/sinks so the default instances other suites may
   touch stay untouched. *)

open Apna_obs

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_tests =
  [
    Alcotest.test_case "counters record only while enabled" `Quick (fun () ->
        let r = Metrics.create () in
        let c = Metrics.Counter.register r "t_total" in
        Metrics.Counter.incr c;
        Alcotest.(check int) "disabled: dropped" 0 (Metrics.Counter.value c);
        Metrics.set_enabled r true;
        Metrics.Counter.incr c;
        Metrics.Counter.incr ~by:5 c;
        Alcotest.(check int) "enabled: counted" 6 (Metrics.Counter.value c);
        Metrics.set_enabled r false;
        Metrics.Counter.incr c;
        Alcotest.(check int) "re-disabled: dropped" 6 (Metrics.Counter.value c));
    Alcotest.test_case "gauges set and add" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let g = Metrics.Gauge.register r "t_depth" in
        Metrics.Gauge.set g 3.0;
        Metrics.Gauge.add g 1.5;
        Alcotest.(check (float 1e-9)) "value" 4.5 (Metrics.Gauge.value g));
    Alcotest.test_case "same (name, labels) shares the series" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let a =
          Metrics.Counter.register r ~labels:[ ("x", "1"); ("y", "2") ] "t_total"
        in
        (* Label order must not matter. *)
        let b =
          Metrics.Counter.register r ~labels:[ ("y", "2"); ("x", "1") ] "t_total"
        in
        Metrics.Counter.incr a;
        Metrics.Counter.incr b;
        Alcotest.(check int) "shared" 2 (Metrics.Counter.value a));
    Alcotest.test_case "different labels are distinct series" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let a = Metrics.Counter.register r ~labels:[ ("x", "1") ] "t_total" in
        let b = Metrics.Counter.register r ~labels:[ ("x", "2") ] "t_total" in
        Metrics.Counter.incr a;
        Alcotest.(check int) "a" 1 (Metrics.Counter.value a);
        Alcotest.(check int) "b" 0 (Metrics.Counter.value b));
    Alcotest.test_case "histogram summarizes samples" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:100.0 "t_ns" in
        for i = 1 to 100 do
          Metrics.Histogram.observe h (float_of_int i)
        done;
        Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
        Alcotest.(check (float 1e-6)) "mean" 50.5 (Metrics.Histogram.mean h);
        let p50 = Metrics.Histogram.percentile h 0.5 in
        Alcotest.(check bool) "p50 near 50" true (abs_float (p50 -. 50.0) < 2.0));
    Alcotest.test_case "render_text carries HELP, TYPE and labels" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let c =
          Metrics.Counter.register r ~help:"What it counts"
            ~labels:[ ("aid", "64500") ]
            "apna_t_total"
        in
        Metrics.Counter.incr c;
        let text = Metrics.render_text r in
        let has needle =
          let nl = String.length needle and tl = String.length text in
          let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "help" true (has "# HELP apna_t_total What it counts");
        Alcotest.(check bool) "type" true (has "# TYPE apna_t_total counter");
        Alcotest.(check bool) "series" true (has "apna_t_total{aid=\"64500\"} 1"));
    Alcotest.test_case "to_json round-trips through the parser" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        Metrics.Counter.incr
          (Metrics.Counter.register r ~labels:[ ("k", "v") ] "t_total");
        Metrics.Gauge.set (Metrics.Gauge.register r "t_depth") 2.5;
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:10.0 "t_ns" in
        Metrics.Histogram.observe h 3.0;
        let text = Json.to_string ~pretty:true (Metrics.to_json r) in
        match Json.parse text with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok doc ->
            let counters = Option.get (Json.member "counters" doc) in
            (match Json.member "t_total{k=\"v\"}" counters with
            | Some (Json.Int 1) -> ()
            | _ -> Alcotest.fail "counter value lost");
            let hists = Option.get (Json.member "histograms" doc) in
            let hj = Option.get (Json.member "t_ns" hists) in
            Alcotest.(check (float 1e-9))
              "hist count" 1.0
              (Option.get (Json.number (Option.get (Json.member "count" hj)))));
    Alcotest.test_case "empty-histogram JSON renders nan as null" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        ignore (Metrics.Histogram.register r ~lo:0.0 ~hi:1.0 "t_ns");
        match Json.parse (Json.to_string (Metrics.to_json r)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok _ -> ());
    Alcotest.test_case "summary_line mentions series and events" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        Metrics.Counter.incr ~by:7 (Metrics.Counter.register r "t_total");
        let line = Metrics.summary_line r in
        Alcotest.(check bool) "non-empty" true (String.length line > 0));
    Alcotest.test_case "summary_line is pinned for a fixed registry" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        Metrics.Counter.incr ~by:3 (Metrics.Counter.register r "b_total");
        Metrics.Counter.incr ~by:4 (Metrics.Counter.register r "a_total");
        Metrics.Gauge.set (Metrics.Gauge.register r "t_depth") 1.0;
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:1.0 "t_ns" in
        Metrics.Histogram.observe h 0.25;
        Metrics.Histogram.observe h 0.75;
        Alcotest.(check string)
          "deterministic output"
          "2 counters (7 events), 1 gauges, 1 histograms (2 samples)"
          (Metrics.summary_line r);
        (* Computed over [ordered], so a second call is identical. *)
        Alcotest.(check string)
          "stable across calls" (Metrics.summary_line r)
          (Metrics.summary_line r));
    Alcotest.test_case "duplicate label names are rejected" `Quick (fun () ->
        let r = Metrics.create () in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Metrics: duplicate label name \"a\"") (fun () ->
            ignore
              (Metrics.Counter.register r
                 ~labels:[ ("a", "1"); ("a", "2") ]
                 "t_total")));
    Alcotest.test_case "empty label names are rejected" `Quick (fun () ->
        let r = Metrics.create () in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Metrics: empty label name") (fun () ->
            ignore (Metrics.Gauge.register r ~labels:[ ("", "1") ] "t_depth")));
  ]

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_tests =
  [
    Alcotest.test_case "renders atoms" `Quick (fun () ->
        Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
        Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
        Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
        Alcotest.(check string) "nan is null" "null"
          (Json.to_string (Json.Float nan));
        Alcotest.(check string) "inf is null" "null"
          (Json.to_string (Json.Float infinity));
        Alcotest.(check string) "escapes" "\"a\\\"b\\n\""
          (Json.to_string (Json.Str "a\"b\n")));
    Alcotest.test_case "parses documents" `Quick (fun () ->
        match Json.parse " {\"a\": [1, 2.5, \"x\", null, true], \"b\": {}} " with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok doc -> begin
            match Json.member "a" doc with
            | Some (Json.List [ Json.Int 1; Json.Float f; Json.Str "x"; Json.Null; Json.Bool true ]) ->
                Alcotest.(check (float 1e-9)) "2.5" 2.5 f
            | _ -> Alcotest.fail "wrong shape"
          end);
    Alcotest.test_case "parses escapes and unicode" `Quick (fun () ->
        match Json.parse {|"é\t\\"|} with
        | Ok (Json.Str s) -> Alcotest.(check string) "utf8" "\xc3\xa9\t\\" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "parse: %s" e);
    Alcotest.test_case "rejects malformed documents" `Quick (fun () ->
        List.iter
          (fun input ->
            match Json.parse input with
            | Ok _ -> Alcotest.failf "accepted %S" input
            | Error _ -> ())
          [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated"; "nan" ]);
    qtest "int round trip" QCheck2.Gen.int (fun i ->
        Json.parse (Json.to_string (Json.Int i)) = Ok (Json.Int i));
    qtest "string round trip" QCheck2.Gen.string (fun s ->
        Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s));
    qtest "finite float round trip" ~count:500
      QCheck2.Gen.(float_range (-1e15) 1e15)
      (fun f ->
        match Json.parse (Json.to_string (Json.Float f)) with
        | Ok (Json.Float g) -> g = f
        | Ok (Json.Int n) -> float_of_int n = f
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Spans: timed records, and the ring every record lives in *)

(* A clock the test steps by hand. *)
let manual_clock s =
  let t = ref 0.0 in
  Event.set_clock s (fun () -> !t);
  t

let send ~aid = Event.Host_send { aid; host = "h" }

(* One timed record of [dur] seconds ending at [at]. *)
let timed s clock ~key ~at ~dur kind =
  clock := at -. dur;
  let since = Event.start s in
  clock := at;
  Event.record s ~key ~since kind

let span_tests =
  [
    Alcotest.test_case "records a packet's path in order" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let clock = manual_clock s in
        let key = Event.key_of_string "mac-bytes" in
        List.iter
          (fun kind ->
            let since = Event.start s in
            clock := !clock +. 1.0;
            Event.record s ~key ~since kind)
          [
            send ~aid:1;
            Event.Br_egress { aid = 1; outcome = Event.Egress_ok };
            Event.Br_ingress { aid = 2; outcome = Event.Ingress_deliver };
            Event.Deliver { aid = 2; hid = 7 };
          ];
        (* An unrelated packet interleaved in the ring. *)
        Event.record s ~key:(Event.key_of_string "other") (send ~aid:1);
        let path = Event.by_key s key in
        Alcotest.(check (list string))
          "stages in record order"
          [
            "host.send"; "border_router.egress"; "border_router.ingress";
            "as_node.deliver";
          ]
          (List.map (fun (r : Event.record) -> Event.stage_label r.kind) path);
        List.iter
          (fun (r : Event.record) ->
            Alcotest.(check (float 1e-9)) "duration" 1.0 r.dur)
          path);
    Alcotest.test_case "disabled sink stores nothing, reads no clock" `Quick
      (fun () ->
        let s = Event.create_sink () in
        Event.set_clock s (fun () -> Alcotest.fail "clock read while disabled");
        let since = Event.start s in
        Event.record s ~key:1L ~since (send ~aid:1);
        Event.record s ~key:1L (send ~aid:1);
        Alcotest.(check int) "empty" 0 (Event.recorded s);
        Alcotest.(check (float 0.0)) "start is 0" 0.0 since);
    Alcotest.test_case "ring keeps only the newest spans" `Quick (fun () ->
        let s = Event.create_sink ~capacity:4 ~enabled:true () in
        let clock = manual_clock s in
        for i = 1 to 10 do
          timed s clock ~key:(Int64.of_int i) ~at:(float_of_int i) ~dur:0.5
            (send ~aid:1)
        done;
        Alcotest.(check int) "all recorded" 10 (Event.recorded s);
        let kept = Event.to_list s in
        Alcotest.(check int) "capacity retained" 4 (List.length kept);
        Alcotest.(check (list int))
          "newest, oldest first" [ 7; 8; 9; 10 ]
          (List.map (fun (r : Event.record) -> Int64.to_int r.key) kept));
    Alcotest.test_case "stage_summary aggregates by stage" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let clock = manual_clock s in
        let egress = Event.Br_egress { aid = 1; outcome = Event.Egress_ok } in
        timed s clock ~key:1L ~at:2.0 ~dur:2.0 egress;
        timed s clock ~key:2L ~at:4.0 ~dur:4.0 egress;
        timed s clock ~key:3L ~at:5.0 ~dur:1.0 (send ~aid:1);
        (* Instants count toward their stage with duration 0. *)
        Event.record s ~key:4L (send ~aid:1);
        match Event.stage_summary s with
        | [ ("border_router.egress", 2, m_egress); ("host.send", 2, m_send) ] ->
            Alcotest.(check (float 1e-9)) "egress mean" 3.0 m_egress;
            Alcotest.(check (float 1e-9)) "send mean" 0.5 m_send
        | other -> Alcotest.failf "unexpected summary (%d stages)" (List.length other));
    Alcotest.test_case "clear resets retention, not identity" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        Event.record s ~key:1L (send ~aid:1);
        Event.clear s;
        Alcotest.(check int) "nothing retained" 0 (List.length (Event.to_list s));
        Alcotest.(check bool) "still enabled" true (Event.enabled s));
    Alcotest.test_case "key_of_string is deterministic and spreads" `Quick
      (fun () ->
        Alcotest.(check bool) "equal inputs" true
          (Event.key_of_string "abc" = Event.key_of_string "abc");
        Alcotest.(check bool) "distinct inputs" false
          (Event.key_of_string "abc" = Event.key_of_string "abd");
        (* FNV-1a of the empty string is the offset basis. *)
        Alcotest.(check int64) "offset basis" 0xcbf29ce484222325L
          (Event.key_of_string "");
        Alcotest.(check int64) "FNV-1a 64 of \"a\"" 0xaf63dc4c8601ec8cL
          (Event.key_of_string "a"));
    Alcotest.test_case "evicted and capacity expose wraparound" `Quick
      (fun () ->
        let s = Event.create_sink ~capacity:4 ~enabled:true () in
        Alcotest.(check int) "capacity" 4 (Event.capacity s);
        Alcotest.(check int) "nothing evicted yet" 0 (Event.evicted s);
        for i = 1 to 10 do
          Event.record s ~key:(Int64.of_int i) (send ~aid:1)
        done;
        Alcotest.(check int) "evicted = written - capacity" 6 (Event.evicted s);
        Event.clear s;
        Alcotest.(check int) "clear resets eviction" 0 (Event.evicted s));
    qtest "ring retains min(written, capacity) spans in seq order" ~count:300
      QCheck2.Gen.(
        pair (int_range 1 16) (list_size (int_range 0 64) (int_range 0 5)))
      (fun (capacity, ops) ->
        let s = Event.create_sink ~capacity ~enabled:true () in
        let clock = manual_clock s in
        List.iteri
          (fun i k ->
            (* Timed and instant records share the one ring. *)
            if k mod 2 = 0 then
              timed s clock ~key:(Int64.of_int k) ~at:(float_of_int i) ~dur:0.5
                (send ~aid:k)
            else Event.record s ~key:(Int64.of_int k) (send ~aid:k))
          ops;
        let written = List.length ops in
        let retained = Event.to_list s in
        let seqs = List.map (fun (r : Event.record) -> r.seq) retained in
        (* Exactly the newest min(written, capacity) records, oldest
           first: seqs are the final contiguous window. *)
        let expect_n = min written capacity in
        List.length retained = expect_n
        && seqs = List.init expect_n (fun i -> written - expect_n + i)
        && Event.evicted s = max 0 (written - capacity));
    Alcotest.test_case "by_key stays causally ordered across a wrap" `Quick
      (fun () ->
        let s = Event.create_sink ~capacity:4 ~enabled:true () in
        let clock = manual_clock s in
        let key = Event.key_of_string "the-packet" in
        let filler = Event.key_of_string "noise" in
        let hop aid at = timed s clock ~key ~at ~dur:0.1 (send ~aid) in
        let noise at = timed s clock ~key:filler ~at ~dur:0.1 (send ~aid:0) in
        hop 1 0.1;
        noise 0.3;
        noise 0.5;
        hop 2 0.7;
        noise 0.9;
        noise 1.1;
        (* The ring has wrapped: hop 1 is gone, hop 2 retained. *)
        hop 3 1.3;
        Alcotest.(check int) "three records evicted" 3 (Event.evicted s);
        Alcotest.(check (list string))
          "hops in causal order, truncated from the front" [ "AS2"; "AS3" ]
          (List.map (fun (r : Event.record) -> Event.where r.kind) (Event.by_key s key)));
  ]

(* ------------------------------------------------------------------ *)
(* The struct-of-arrays ring: what goes in comes out *)

let gen_kind =
  let open QCheck2.Gen in
  let aid = int_range 0 0xffff_ffff and str = string_size (int_range 0 12) in
  let fate =
    oneofl Event.[ Delivered; Lost; Duplicated; Reordered; Queue_drop ]
  in
  oneof
    [
      map2 (fun aid host -> Event.Host_send { aid; host }) aid str;
      map2
        (fun aid drop ->
          Event.Br_egress
            { aid; outcome = (match drop with None -> Egress_ok | Some r -> Egress_drop r) })
        aid (opt str);
      map3 (fun src dst fate -> Event.Link_transit { src; dst; fate }) aid aid fate;
      map3
        (fun aid next r ->
          let outcome =
            match next mod 3 with
            | 0 -> Event.Ingress_deliver
            | 1 -> Event.Ingress_forward next
            | _ -> Event.Ingress_drop r
          in
          Event.Br_ingress { aid; outcome })
        aid aid str;
      map2 (fun aid hid -> Event.Deliver { aid; hid }) aid int;
      map (fun gateway -> Event.Gw_encap { gateway }) str;
      map (fun gateway -> Event.Gw_decap { gateway }) str;
      map (fun aid -> Event.Shutoff { aid }) aid;
      map3 (fun aid host reason -> Event.Migrate { aid; host; reason }) aid str str;
      map3
        (fun aid granted query -> Event.Broker_decision { aid; granted; query })
        aid bool str;
      map3
        (fun rule series state -> Event.Alert_state { rule; series; state })
        str str str;
    ]

(* The same event through the typed packet-path entry point, when the kind
   has one. *)
let typed s ~mac = function
  | Event.Host_send { aid; host } -> Some (fun () -> Event.host_send s ~mac ~aid ~host)
  | Event.Br_egress { aid; outcome } -> Some (fun () -> Event.br_egress s ~mac ~aid outcome)
  | Event.Br_ingress { aid; outcome = Ingress_forward next } ->
      Some (fun () -> Event.br_forward s ~mac ~aid ~next)
  | Event.Br_ingress { aid; outcome } -> Some (fun () -> Event.br_ingress s ~mac ~aid outcome)
  | Event.Link_transit { src; dst; fate } ->
      Some (fun () -> Event.link_transit s ~mac ~src ~dst fate)
  | Event.Deliver { aid; hid } -> Some (fun () -> Event.deliver s ~mac ~aid ~hid)
  | _ -> None

let ring_tests =
  [
    qtest "every kind survives record -> to_list" ~count:500
      QCheck2.Gen.(
        list_size (int_range 1 20)
          (quad gen_kind int64 (float_range 0.0 1e6) (float_range 0.0 5.0)))
      (fun recs ->
        let s = Event.create_sink ~enabled:true () in
        let clock = manual_clock s in
        List.iter (fun (kind, key, at, dur) -> timed s clock ~key ~at ~dur kind) recs;
        List.for_all2
          (fun (kind, key, at, dur) (r : Event.record) ->
            r.kind = kind && Int64.equal r.key key && r.time = at
            && Float.abs (r.dur -. dur) <= 1e-9 *. Float.max 1.0 at)
          recs (Event.to_list s));
    qtest "typed entry points = record_hashed" ~count:300
      QCheck2.Gen.(pair gen_kind (string_size (int_range 0 32)))
      (fun (kind, mac) ->
        match typed (Event.create_sink ()) ~mac kind with
        | None -> true
        | Some _ ->
            let a = Event.create_sink ~enabled:true ()
            and b = Event.create_sink ~enabled:true () in
            Event.set_clock a (fun () -> 1.5);
            Event.set_clock b (fun () -> 1.5);
            Option.get (typed a ~mac kind) ();
            Event.record_hashed b mac kind;
            Event.to_list a = Event.to_list b
            && (List.hd (Event.to_list a)).key = Event.key_of_string mac);
    Alcotest.test_case "capacity 8, 20 records: wrap, by_key, clear" `Quick
      (fun () ->
        let s = Event.create_sink ~capacity:8 ~enabled:true () in
        let clock = manual_clock s in
        for i = 0 to 19 do
          clock := float_of_int i;
          Event.record s ~key:(Int64.of_int (i mod 3)) (send ~aid:i)
        done;
        let kept = Event.to_list s in
        Alcotest.(check (list int)) "seq 12..19, oldest first"
          (List.init 8 (fun i -> 12 + i))
          (List.map (fun (r : Event.record) -> r.seq) kept);
        Alcotest.(check (list int)) "payloads follow their seq"
          (List.init 8 (fun i -> 12 + i))
          (List.map
             (fun (r : Event.record) ->
               match r.kind with Event.Host_send { aid; _ } -> aid | _ -> -1)
             kept);
        Alcotest.(check (list (float 0.0))) "times follow their seq"
          (List.init 8 (fun i -> float_of_int (12 + i)))
          (List.map (fun (r : Event.record) -> r.time) kept);
        Alcotest.(check int) "evicted" 12 (Event.evicted s);
        Alcotest.(check (list int)) "by_key 1 after the wrap" [ 13; 16; 19 ]
          (List.map (fun (r : Event.record) -> r.seq) (Event.by_key s 1L));
        Event.clear s;
        Alcotest.(check int) "clear empties" 0 (List.length (Event.to_list s));
        Event.record s ~key:7L (send ~aid:99);
        (match Event.to_list s with
        | [ { seq = 0; key = 7L; kind = Event.Host_send { aid = 99; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "reuse after clear");
        Alcotest.(check int) "nothing evicted after reuse" 0 (Event.evicted s));
    Alcotest.test_case "a never-enabled sink holds no ring" `Quick (fun () ->
        let s = Event.create_sink () in
        let words = Obj.reachable_words (Obj.repr s) in
        Alcotest.(check bool) (Printf.sprintf "%d words < 64" words) true (words < 64);
        Event.set_enabled s true;
        Event.set_enabled s false;
        Alcotest.(check bool) "the first enable allocates it" true
          (Obj.reachable_words (Obj.repr s) > Event.capacity s));
    Alcotest.test_case "packet-path records allocate nothing" `Quick (fun () ->
        let s = Event.create_sink ~capacity:64 ~enabled:true () in
        let mac = String.make 16 'm' and host = "h" in
        let reason = "bad-mac" in
        let w0 = Gc.minor_words () in
        for i = 1 to 1000 do
          Event.host_send s ~mac ~aid:i ~host;
          Event.br_egress s ~mac ~aid:i Event.Egress_ok;
          Event.br_egress s ~mac ~aid:i (Event.Egress_drop reason);
          Event.link_transit s ~mac ~src:i ~dst:2 Event.Delivered;
          Event.br_forward s ~mac ~aid:i ~next:3;
          Event.br_ingress s ~mac ~aid:i Event.Ingress_deliver;
          Event.deliver s ~mac ~aid:i ~hid:i
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f minor words for 7000 records" words)
          true (words < 64.0));
  ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder events and journeys *)

let ev sink ~key ?(at = 0.0) kind =
  Event.set_clock sink (fun () -> at);
  Event.record sink ~key kind

let event_tests =
  [
    Alcotest.test_case "disabled sink records nothing, reads no clock" `Quick
      (fun () ->
        let s = Event.create_sink () in
        Event.set_clock s (fun () -> Alcotest.fail "clock read while disabled");
        Event.record s ~key:1L (Event.Host_send { aid = 100; host = "h" });
        Alcotest.(check int) "empty" 0 (Event.recorded s));
    Alcotest.test_case "ring keeps the newest events, evicted exposed" `Quick
      (fun () ->
        let s = Event.create_sink ~capacity:3 ~enabled:true () in
        for i = 1 to 5 do
          ev s ~key:(Int64.of_int i) (Event.Deliver { aid = 1; hid = i })
        done;
        Alcotest.(check int) "recorded" 5 (Event.recorded s);
        Alcotest.(check int) "capacity" 3 (Event.capacity s);
        Alcotest.(check int) "evicted" 2 (Event.evicted s);
        Alcotest.(check (list int))
          "newest retained, oldest first" [ 3; 4; 5 ]
          (List.map
             (fun (r : Event.record) -> Int64.to_int r.key)
             (Event.to_list s)));
    Alcotest.test_case "delivered journey renders a waterfall" `Quick
      (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let key = Event.key_of_string "mac" in
        ev s ~key ~at:0.0 (Event.Host_send { aid = 100; host = "alice" });
        ev s ~key ~at:0.1
          (Event.Br_egress { aid = 100; outcome = Event.Egress_ok });
        ev s ~key ~at:0.2
          (Event.Link_transit { src = 100; dst = 200; fate = Event.Delivered });
        ev s ~key ~at:0.3
          (Event.Br_ingress { aid = 200; outcome = Event.Ingress_deliver });
        ev s ~key ~at:0.4 (Event.Deliver { aid = 200; hid = 7 });
        match Journey.assemble s with
        | [ j ] ->
            Alcotest.(check bool) "delivered" true (j.Journey.outcome = Journey.Delivered);
            let text = Journey.render j in
            List.iter
              (fun needle ->
                let nl = String.length needle and tl = String.length text in
                let rec go i =
                  i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
                in
                Alcotest.(check bool) needle true (go 0))
              [ "host.send"; "border_router.egress"; "link.transit";
                "border_router.ingress"; "as_node.deliver"; "alice"; "delivered" ]
        | js -> Alcotest.failf "expected one journey, got %d" (List.length js));
    Alcotest.test_case "drop at a border router classifies with reason" `Quick
      (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let key = 9L in
        ev s ~key ~at:0.0 (Event.Host_send { aid = 100; host = "h" });
        ev s ~key ~at:0.1
          (Event.Br_egress { aid = 100; outcome = Event.Egress_drop "bad-mac" });
        match Journey.assemble s with
        | [ j ] -> (
            match j.Journey.outcome with
            | Journey.Dropped_at
                { stage = "border_router.egress"; reason = "bad-mac" } ->
                Alcotest.(check string)
                  "last good hop" "host.send @ AS100" (Journey.last_good_hop j)
            | o -> Alcotest.failf "wrong outcome: %s" (Journey.outcome_label o))
        | _ -> Alcotest.fail "expected one journey");
    Alcotest.test_case "loss on a link classifies as lost" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let key = 5L in
        ev s ~key ~at:0.0 (Event.Host_send { aid = 100; host = "h" });
        ev s ~key ~at:0.1
          (Event.Br_egress { aid = 100; outcome = Event.Egress_ok });
        ev s ~key ~at:0.2
          (Event.Link_transit { src = 100; dst = 200; fate = Event.Lost });
        match Journey.assemble s with
        | [ j ] -> (
            match j.Journey.outcome with
            | Journey.Lost_on_link { src = 100; dst = 200; fate = Event.Lost } ->
                ()
            | o -> Alcotest.failf "wrong outcome: %s" (Journey.outcome_label o))
        | _ -> Alcotest.fail "expected one journey");
    Alcotest.test_case "a delivered duplicate outranks a lost copy" `Quick
      (fun () ->
        (* Duplication: one copy lost, one delivered — the packet made it. *)
        let s = Event.create_sink ~enabled:true () in
        let key = 6L in
        ev s ~key ~at:0.0
          (Event.Link_transit { src = 1; dst = 2; fate = Event.Duplicated });
        ev s ~key ~at:0.1
          (Event.Link_transit { src = 1; dst = 2; fate = Event.Lost });
        ev s ~key ~at:0.2 (Event.Deliver { aid = 2; hid = 1 });
        match Journey.assemble s with
        | [ j ] ->
            Alcotest.(check bool) "delivered" true
              (j.Journey.outcome = Journey.Delivered)
        | _ -> Alcotest.fail "expected one journey");
    Alcotest.test_case "no terminal event means in-flight" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        ev s ~key:1L ~at:0.0 (Event.Host_send { aid = 1; host = "h" });
        match Journey.assemble s with
        | [ j ] ->
            Alcotest.(check string)
              "label" "in-flight"
              (Journey.outcome_label j.Journey.outcome)
        | _ -> Alcotest.fail "expected one journey");
    Alcotest.test_case "drop_report groups by last good hop and reason" `Quick
      (fun () ->
        let s = Event.create_sink ~enabled:true () in
        let lost_after_egress key =
          ev s ~key ~at:0.0 (Event.Host_send { aid = 100; host = "h" });
          ev s ~key ~at:0.1
            (Event.Br_egress { aid = 100; outcome = Event.Egress_ok });
          ev s ~key ~at:0.2
            (Event.Link_transit { src = 100; dst = 200; fate = Event.Lost })
        in
        lost_after_egress 1L;
        lost_after_egress 2L;
        ev s ~key:3L ~at:0.3
          (Event.Br_ingress { aid = 200; outcome = Event.Ingress_drop "revoked" });
        match Journey.drop_report (Journey.assemble s) with
        | [
         (("border_router.egress @ AS100", "lost"), 2);
         (("(origin)", "revoked"), 1);
        ] ->
            ()
        | report ->
            Alcotest.failf "unexpected report: %s"
              (String.concat "; "
                 (List.map
                    (fun ((hop, reason), n) ->
                      Printf.sprintf "(%s, %s) x%d" hop reason n)
                    report)));
    Alcotest.test_case "summary counts outcomes" `Quick (fun () ->
        let s = Event.create_sink ~enabled:true () in
        ev s ~key:1L (Event.Deliver { aid = 1; hid = 1 });
        ev s ~key:2L (Event.Deliver { aid = 1; hid = 2 });
        ev s ~key:3L (Event.Host_send { aid = 1; host = "h" });
        Alcotest.(check (list (pair string int)))
          "sorted by count"
          [ ("delivered", 2); ("in-flight", 1) ]
          (Journey.summary (Journey.assemble s)));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

let chrome_tests =
  [
    Alcotest.test_case "export is valid trace-event JSON" `Quick (fun () ->
        let events = Event.create_sink ~enabled:true () in
        let clock = manual_clock events in
        timed events clock ~key:1L ~at:0.002 ~dur:0.001
          (Event.Br_egress { aid = 100; outcome = Event.Egress_ok });
        ev events ~key:1L ~at:0.001
          (Event.Br_egress { aid = 100; outcome = Event.Egress_ok });
        ev events ~key:1L ~at:0.003 (Event.Deliver { aid = 200; hid = 1 });
        let text = Chrome_trace.to_string events in
        match Json.parse text with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok (Json.List entries) ->
            Alcotest.(check int) "one timed + two instants" 3 (List.length entries);
            List.iter
              (fun entry ->
                (match Json.member "name" entry with
                | Some (Json.Str _) -> ()
                | _ -> Alcotest.fail "name missing");
                (match Json.member "ph" entry with
                | Some (Json.Str ("X" | "i")) -> ()
                | _ -> Alcotest.fail "ph missing");
                match Json.number (Option.get (Json.member "ts" entry)) with
                | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
                | None -> Alcotest.fail "ts not a number")
              entries
        | Ok _ -> Alcotest.fail "not a JSON array");
    Alcotest.test_case "entries are sorted by timestamp, pid is the AS" `Quick
      (fun () ->
        let events = Event.create_sink ~enabled:true () in
        ev events ~key:1L ~at:0.5 (Event.Deliver { aid = 300; hid = 1 });
        ev events ~key:1L ~at:0.1
          (Event.Host_send { aid = 100; host = "h" });
        match Chrome_trace.to_json events with
        | Json.List [ first; second ] ->
            let ts e = Option.get (Json.number (Option.get (Json.member "ts" e))) in
            Alcotest.(check bool) "sorted" true (ts first <= ts second);
            (match Json.member "pid" first with
            | Some (Json.Int 100) -> ()
            | _ -> Alcotest.fail "pid is not the AS number");
            (* ts is microseconds. *)
            Alcotest.(check (float 1e-6)) "us conversion" 100000.0 (ts first)
        | _ -> Alcotest.fail "expected two entries");
    Alcotest.test_case "span entries carry a duration" `Quick (fun () ->
        (* A timed record keeps its dur and exports as a complete event
           starting at time - dur; an instant exports as "i". *)
        let events = Event.create_sink ~enabled:true () in
        let clock = manual_clock events in
        timed events clock ~key:1L ~at:1.5 ~dur:0.5
          (Event.Migrate { aid = 100; host = "h"; reason = "renewal-margin" });
        ev events ~key:1L ~at:2.0 (Event.Deliver { aid = 100; hid = 1 });
        (match Event.to_list events with
        | [ r; _ ] -> Alcotest.(check (float 1e-9)) "record dur" 0.5 r.dur
        | _ -> Alcotest.fail "expected two records");
        match Chrome_trace.to_json events with
        | Json.List [ timed_entry; instant ] ->
            let num e k = Option.get (Json.number (Option.get (Json.member k e))) in
            Alcotest.(check bool) "complete event" true
              (Json.member "ph" timed_entry = Some (Json.Str "X"));
            Alcotest.(check (float 1e-3)) "dur us" 500000.0 (num timed_entry "dur");
            Alcotest.(check (float 1e-3)) "ts at start" 1000000.0 (num timed_entry "ts");
            Alcotest.(check bool) "instant" true
              (Json.member "ph" instant = Some (Json.Str "i"));
            Alcotest.(check bool) "instant has no dur" true
              (Json.member "dur" instant = None)
        | _ -> Alcotest.fail "expected two entries");
  ]

(* ------------------------------------------------------------------ *)
(* Label escaping and histogram clamp accounting *)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let hostile_tests =
  [
    Alcotest.test_case "escape_label_value covers the exposition set" `Quick
      (fun () ->
        Alcotest.(check string)
          "quote/backslash/newline/cr/tab" "a\\\"b\\\\c\\nd\\re\\tf"
          (Metrics.escape_label_value "a\"b\\c\nd\re\tf");
        Alcotest.(check string)
          "clean values pass through" "plain-value_64500"
          (Metrics.escape_label_value "plain-value_64500"));
    Alcotest.test_case "hostile label values cannot break the scrape text"
      `Quick (fun () ->
        (* A drop reason echoed off the wire: quote to close the label,
           newline to inject a fake series line. *)
        let r = Metrics.create ~enabled:true () in
        let evil = "x\"} 999\ninjected_total 1\tend\\" in
        Metrics.Counter.incr
          (Metrics.Counter.register r ~labels:[ ("reason", evil) ] "t_total");
        let text = Metrics.render_text r in
        (* The series renders on ONE line, fully escaped. *)
        let lines = String.split_on_char '\n' text in
        let series_lines =
          List.filter (fun l -> contains l "t_total{") lines
        in
        Alcotest.(check int) "one series line" 1 (List.length series_lines);
        Alcotest.(check bool)
          "escaped quote" true
          (contains (List.hd series_lines) "x\\\"} 999\\ninjected_total");
        (* No line BEGINS with the injected name — the payload never
           becomes a series of its own. *)
        let starts_with p l =
          String.length l >= String.length p
          && String.sub l 0 (String.length p) = p
        in
        Alcotest.(check bool)
          "no injected series" false
          (List.exists (starts_with "injected_total") lines));
    Alcotest.test_case "hostile label values survive the JSON codec" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let evil = "a\"b\\c\nd" in
        Metrics.Counter.incr
          (Metrics.Counter.register r ~labels:[ ("k", evil) ] "t_total");
        match Json.parse (Json.to_string (Metrics.to_json r)) with
        | Error e -> Alcotest.failf "corrupted JSON: %s" e
        | Ok doc ->
            let counters = Option.get (Json.member "counters" doc) in
            let key =
              Printf.sprintf "t_total{k=\"%s\"}"
                (Metrics.escape_label_value evil)
            in
            (match Json.member key counters with
            | Some (Json.Int 1) -> ()
            | _ -> Alcotest.failf "series %S lost" key));
    Alcotest.test_case "label_suffix escapes values in place" `Quick
      (fun () ->
        Alcotest.(check string) "no labels" "" (Metrics.label_suffix []);
        Alcotest.(check string)
          "escaped" "{a=\"x\\\"y\",b=\"2\"}"
          (Metrics.label_suffix [ ("a", "x\"y"); ("b", "2") ]));
    Alcotest.test_case "histogram counts clamped samples per edge" `Quick
      (fun () ->
        let h = Accum.Hist.create ~lo:0.0 ~hi:10.0 () in
        List.iter (Accum.Hist.add h) [ -5.0; 15.0; 20.0; 5.0 ];
        Alcotest.(check int) "count includes clamped" 4 (Accum.Hist.count h);
        Alcotest.(check int) "below lo" 1 (Accum.Hist.clamped_lo h);
        Alcotest.(check int) "above hi" 2 (Accum.Hist.clamped_hi h);
        Alcotest.(check int) "total" 3 (Accum.Hist.clamped h);
        (* In-range samples clamp nothing. *)
        let h2 = Accum.Hist.create ~lo:0.0 ~hi:10.0 () in
        List.iter (Accum.Hist.add h2) [ 0.0; 10.0; 5.0 ];
        Alcotest.(check int) "edges are in range" 0 (Accum.Hist.clamped h2));
    Alcotest.test_case "scrape text surfaces clamped counts" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:10.0 "t_ns" in
        Metrics.Histogram.observe h 5.0;
        Alcotest.(check bool)
          "no clamp lines while clean" false
          (contains (Metrics.render_text r) "t_ns_clamped");
        Metrics.Histogram.observe h 99.0;
        Metrics.Histogram.observe h (-1.0);
        let text = Metrics.render_text r in
        Alcotest.(check bool)
          "hi edge" true
          (contains text "t_ns_clamped{edge=\"hi\"} 1");
        Alcotest.(check bool)
          "lo edge" true
          (contains text "t_ns_clamped{edge=\"lo\"} 1"));
    Alcotest.test_case "sampling snapshot carries clamp counts" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:10.0 "t_ns" in
        Metrics.Histogram.observe h 99.0;
        match Metrics.samples r with
        | [ { svalue = Metrics.Sample_hist hs; _ } ] ->
            Alcotest.(check int) "hi" 1 hs.Metrics.hclamped_hi;
            Alcotest.(check int) "lo" 0 hs.Metrics.hclamped_lo
        | _ -> Alcotest.fail "expected one histogram sample");
  ]

(* ------------------------------------------------------------------ *)
(* Timeseries sampler *)

let timeseries_tests =
  [
    Alcotest.test_case "tick snapshots counters, gauges and histograms"
      `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let c = Metrics.Counter.register r ~labels:[ ("aid", "1") ] "t_total" in
        let g = Metrics.Gauge.register r "t_depth" in
        let h = Metrics.Histogram.register r ~lo:0.0 ~hi:100.0 "t_ns" in
        let ts = Timeseries.create ~capacity:8 r in
        Timeseries.set_enabled ts true;
        for i = 1 to 4 do
          Metrics.Counter.incr ~by:2 c;
          Metrics.Gauge.set g (float_of_int i);
          Metrics.Histogram.observe h (float_of_int (10 * i));
          Timeseries.tick ts ~now:(float_of_int i)
        done;
        Alcotest.(check int) "ticks" 4 (Timeseries.ticks ts);
        let s = Option.get (Timeseries.find ts "t_total{aid=\"1\"}") in
        Alcotest.(check bool) "counter kind" true
          (Timeseries.kind s = Timeseries.Kcounter);
        Alcotest.(check (float 1e-9)) "cumulative last" 8.0
          (Timeseries.last_value s);
        Alcotest.(check (float 1e-9)) "per-tick delta" 2.0
          (Timeseries.last_delta s);
        Alcotest.(check (float 1e-9)) "windowed rate" 2.0
          (Timeseries.rate s ~window:10.0);
        let gs = Option.get (Timeseries.find ts "t_depth") in
        Alcotest.(check (float 1e-9)) "gauge history" 4.0
          (Timeseries.last_value gs);
        (* Histograms contribute :p50/:p99 gauges and a :count counter. *)
        Alcotest.(check bool) "p50 sub-series" true
          (Timeseries.find ts "t_ns:p50" <> None);
        let hc = Option.get (Timeseries.find ts "t_ns:count") in
        Alcotest.(check bool) "count is a counter" true
          (Timeseries.kind hc = Timeseries.Kcounter);
        Alcotest.(check (float 1e-9)) "observation throughput" 1.0
          (Timeseries.rate hc ~window:10.0));
    Alcotest.test_case "disabled sampler records nothing" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        Metrics.Counter.incr (Metrics.Counter.register r "t_total");
        let ts = Timeseries.create r in
        Timeseries.tick ts ~now:1.0;
        Timeseries.record ts ~name:"d" ~now:1.0 2.0;
        Alcotest.(check int) "no ticks" 0 (Timeseries.ticks ts);
        Alcotest.(check (list string)) "no series" [] (Timeseries.names ts));
    Alcotest.test_case "counter reset clamps the rate to zero" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create ~capacity:8 r in
        Timeseries.set_enabled ts true;
        Timeseries.record ts ~kind:Timeseries.Kcounter ~name:"c" ~now:1.0 100.0;
        Timeseries.record ts ~kind:Timeseries.Kcounter ~name:"c" ~now:2.0 5.0;
        let s = Option.get (Timeseries.find ts "c") in
        Alcotest.(check (float 1e-9)) "clamped" 0.0
          (Timeseries.rate s ~window:10.0));
    Alcotest.test_case "to_json round-trips through the parser" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        Metrics.Counter.incr (Metrics.Counter.register r "t_total");
        let ts = Timeseries.create ~capacity:4 r in
        Timeseries.set_enabled ts true;
        Timeseries.tick ts ~now:0.25;
        Timeseries.record ts ~name:"derived:x" ~now:0.25 nan;
        match Json.parse (Json.to_string (Timeseries.to_json ts)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok doc ->
            let series = Option.get (Json.member "series" doc) in
            (match Json.member "t_total" series with
            | Some _ -> ()
            | None -> Alcotest.fail "series lost"));
    qtest "ring keeps the newest min(ticks, capacity) points" ~count:300
      QCheck2.Gen.(pair (int_range 2 8) (int_range 0 40))
      (fun (capacity, n) ->
        let r = Metrics.create ~enabled:true () in
        let c = Metrics.Counter.register r "t_total" in
        let ts = Timeseries.create ~capacity r in
        Timeseries.set_enabled ts true;
        for i = 0 to n - 1 do
          Metrics.Counter.incr c;
          Timeseries.tick ts ~now:(float_of_int i)
        done;
        if n = 0 then Timeseries.names ts = []
        else
          let s = Option.get (Timeseries.find ts "t_total") in
          let expect_n = min n capacity in
          let pts = Timeseries.points s in
          (* Exactly the newest window, oldest first, cumulative values
             intact across the wrap. *)
          Timeseries.written s = n
          && Timeseries.length s = expect_n
          && pts
             = List.init expect_n (fun i ->
                   let tick = n - expect_n + i in
                   (float_of_int tick, float_of_int (tick + 1)))
          && (expect_n < 2
             || Timeseries.rate s ~window:(float_of_int (n + 1)) = 1.0));
  ]

(* ------------------------------------------------------------------ *)
(* Alert engine: hysteresis state machine *)

let mk_rule ?(name = "r") ?(for_ = 1.0) ?(pred = Alert.Above 10.0) () =
  {
    Alert.name;
    metric = "sig";
    where = [];
    pred;
    for_;
    severity = Alert.Crit;
    summary = "test rule";
  }

let feed ts now v = Timeseries.record ts ~name:"sig" ~now v

let state_at a =
  match Alert.instances a with
  | [ i ] -> Alert.state_label (Alert.state i)
  | [] -> "no-instance"
  | _ -> "many-instances"

let alert_tests =
  [
    Alcotest.test_case "pending holds for_, then fires, then resolves" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule () ] ts in
        let step now v =
          feed ts now v;
          Alert.eval a ~now;
          state_at a
        in
        Alcotest.(check string) "below: inactive" "inactive" (step 0.0 5.0);
        Alcotest.(check string) "above: pending" "pending" (step 0.5 20.0);
        Alcotest.(check string) "held 0.5 < 1.0: pending" "pending"
          (step 1.0 20.0);
        Alcotest.(check string) "held 1.0: firing" "firing" (step 1.5 20.0);
        Alcotest.(check bool) "has_fired" true (Alert.has_fired a "r");
        Alcotest.(check string) "clear: resolved" "resolved" (step 2.0 5.0);
        Alcotest.(check string) "stays resolved" "resolved" (step 2.5 5.0);
        Alcotest.(check string) "re-trip: pending again" "pending"
          (step 3.0 20.0));
    Alcotest.test_case "boundary oscillation never fires (no flapping)"
      `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule ~for_:1.0 () ] ts in
        (* The signal crosses the threshold every 0.5 s — each excursion is
           shorter than for_, so the instance bounces inactive <-> pending
           and must never reach firing. *)
        for i = 0 to 40 do
          let now = 0.5 *. float_of_int i in
          feed ts now (if i mod 2 = 0 then 10.5 else 9.5);
          Alert.eval a ~now;
          match state_at a with
          | "inactive" | "pending" -> ()
          | s -> Alcotest.failf "flapped to %s at t=%.1f" s now
        done;
        Alcotest.(check bool) "never fired" false (Alert.has_fired a "r");
        Alcotest.(check (list string)) "no fired rules" []
          (Alert.fired_rules a));
    Alcotest.test_case "pending that clears goes straight back to inactive"
      `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule () ] ts in
        feed ts 0.0 20.0;
        Alert.eval a ~now:0.0;
        Alcotest.(check string) "pending" "pending" (state_at a);
        feed ts 0.5 5.0;
        Alert.eval a ~now:0.5;
        (* Never fired, so nothing to resolve. *)
        Alcotest.(check string) "inactive" "inactive" (state_at a));
    Alcotest.test_case "for_ = 0 fires on the first true evaluation" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule ~for_:0.0 () ] ts in
        feed ts 0.0 20.0;
        Alert.eval a ~now:0.0;
        Alcotest.(check string) "firing immediately" "firing" (state_at a));
    Alcotest.test_case "nan never satisfies a predicate" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a =
          Alert.create
            ~rules:[ mk_rule ~for_:0.0 ~pred:(Alert.Below 10.0) () ]
            ts
        in
        feed ts 0.0 nan;
        Alert.eval a ~now:0.0;
        Alcotest.(check string) "inactive on nan" "inactive" (state_at a));
    Alcotest.test_case "rate predicate needs two points, then fires" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let pred = Alert.Rate_above { window = 4.0; per_s = 5.0 } in
        let a = Alert.create ~rules:[ mk_rule ~for_:0.0 ~pred () ] ts in
        Timeseries.record ts ~kind:Timeseries.Kcounter ~name:"sig" ~now:0.0
          0.0;
        Alert.eval a ~now:0.0;
        Alcotest.(check string) "one point: inactive" "inactive" (state_at a);
        Timeseries.record ts ~kind:Timeseries.Kcounter ~name:"sig" ~now:1.0
          10.0;
        Alert.eval a ~now:1.0;
        Alcotest.(check string) "10/s > 5/s: firing" "firing" (state_at a));
    Alcotest.test_case "where narrows instances to matching series" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let rule =
          { (mk_rule ~for_:0.0 ()) with Alert.where = [ ("aid", "1") ] }
        in
        let a = Alert.create ~rules:[ rule ] ts in
        Timeseries.record ts ~name:"sig" ~labels:[ ("aid", "1") ] ~now:0.0
          20.0;
        Timeseries.record ts ~name:"sig" ~labels:[ ("aid", "2") ] ~now:0.0
          20.0;
        Alert.eval a ~now:0.0;
        Alcotest.(check int) "one instance" 1
          (List.length (Alert.instances a)));
    Alcotest.test_case "transitions emit metrics and scrape lines" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule ~for_:0.0 () ] ts in
        Alert.attach_scrape a r;
        feed ts 0.0 20.0;
        Alert.eval a ~now:0.0;
        let text = Metrics.render_text r in
        Alcotest.(check bool) "firing gauge" true
          (contains text "apna_alert_firing 1");
        Alcotest.(check bool) "alert state line rides the scrape" true
          (contains text "apna_alert{rule=\"r\",series=\"sig\"");
        match Json.parse (Json.to_string (Alert.to_json a)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "alert JSON: %s" e);
    Alcotest.test_case "default rulepack covers the attack signatures"
      `Quick (fun () ->
        let names =
          List.map (fun r -> r.Alert.name) (Alert.default_rules ())
        in
        List.iter
          (fun n ->
            Alcotest.(check bool) n true (List.mem n names))
          [
            "replay-flood"; "link-loss"; "revocation-storm"; "shutoff-stall";
            "broker-budget-drain"; "breaker-open"; "cache-collapse";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Health rollup *)

let health_tests =
  [
    Alcotest.test_case "firing crit alert marks its scope critical" `Quick
      (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let rule =
          { (mk_rule ~for_:0.0 ()) with Alert.where = [ ("aid", "7") ] }
        in
        let a = Alert.create ~rules:[ rule ] ts in
        Timeseries.record ts ~name:"sig" ~labels:[ ("aid", "7") ] ~now:0.0
          20.0;
        Alert.eval a ~now:0.0;
        let reports = Health.rollup a ts in
        let as7 =
          List.find (fun r -> r.Health.scope = "AS7") reports
        in
        Alcotest.(check bool) "critical" true
          (as7.Health.status = Health.Critical);
        Alcotest.(check bool) "global row present" true
          (List.exists (fun r -> r.Health.scope = "global") reports);
        Alcotest.(check bool) "worst is critical" true
          (Health.worst reports = Health.Critical);
        Alcotest.(check bool) "render mentions the scope" true
          (contains (Health.render reports) "AS7"));
    Alcotest.test_case "quiet series roll up ok" `Quick (fun () ->
        let r = Metrics.create ~enabled:true () in
        let ts = Timeseries.create r in
        Timeseries.set_enabled ts true;
        let a = Alert.create ~rules:[ mk_rule () ] ts in
        Timeseries.record ts ~name:"sig" ~now:0.0 1.0;
        Alert.eval a ~now:0.0;
        let reports = Health.rollup a ts in
        Alcotest.(check bool) "all ok" true
          (List.for_all (fun r -> r.Health.status = Health.Ok) reports));
  ]

let () =
  Alcotest.run "apna_obs"
    [
      ("metrics", metrics_tests);
      ("hostile labels & clamps", hostile_tests);
      ("json", json_tests);
      ("spans", span_tests);
      ("events", event_tests);
      ("ring", ring_tests);
      ("timeseries", timeseries_tests);
      ("alerts", alert_tests);
      ("health", health_tests);
      ("chrome", chrome_tests);
    ]
