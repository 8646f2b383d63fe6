(* Unit and property tests for the discrete-event engine, the workload RNG
   and the statistics accumulators. *)

open Apna_sim

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
        Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
        Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
        Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now e));
    Alcotest.test_case "ties resolve in scheduling order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 10 do
          Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
        done;
        Engine.run e;
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
          (List.rev !log));
    Alcotest.test_case "events can schedule events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            Engine.schedule_in e ~delay:0.1 (fun () ->
                incr count;
                chain (n - 1))
        in
        chain 5;
        Engine.run e;
        Alcotest.(check int) "all ran" 5 !count;
        Alcotest.(check (float 1e-9)) "time advanced" 0.5 (Engine.now e));
    Alcotest.test_case "run ~until stops and sets clock" `Quick (fun () ->
        let e = Engine.create () in
        let ran = ref false in
        Engine.schedule e ~at:10.0 (fun () -> ran := true);
        Engine.run ~until:5.0 e;
        Alcotest.(check bool) "not yet" false !ran;
        Alcotest.(check (float 1e-9)) "clock at limit" 5.0 (Engine.now e);
        Engine.run e;
        Alcotest.(check bool) "eventually" true !ran);
    Alcotest.test_case "until on empty queue advances clock" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run ~until:7.0 e;
        Alcotest.(check (float 1e-9)) "clock" 7.0 (Engine.now e));
    Alcotest.test_case "scheduling in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~at:2.0 ignore;
        Engine.run e;
        Alcotest.check_raises "raises"
          (Invalid_argument "Engine.schedule: time in the past") (fun () ->
            Engine.schedule e ~at:1.0 ignore));
    qtest "random schedules preserve order" ~count:50
      QCheck2.Gen.(list_size (int_range 1 200) (float_range 0.0 100.0))
      (fun times ->
        let e = Engine.create () in
        let fired = ref [] in
        List.iter
          (fun t -> Engine.schedule e ~at:t (fun () -> fired := t :: !fired))
          times;
        Engine.run e;
        let fired = List.rev !fired in
        List.sort compare times = fired);
    Alcotest.test_case "schedule at exactly now is accepted" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~at:2.0 (fun () ->
            (* From inside an event at t=2, t=2 is not "the past": a packet
               may trigger a same-instant follow-up. Ties still fire in
               scheduling order after the current event. *)
            Engine.schedule e ~at:(Engine.now e) (fun () -> log := "b" :: !log);
            Engine.schedule e ~at:(Engine.now e) (fun () -> log := "c" :: !log);
            log := "a" :: !log);
        Engine.run e;
        Alcotest.(check (list string)) "same-instant fifo" [ "a"; "b"; "c" ]
          (List.rev !log);
        Alcotest.(check (float 1e-9)) "clock unmoved" 2.0 (Engine.now e));
    Alcotest.test_case "pending counts queued events" `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~at:1.0 ignore;
        Engine.schedule e ~at:2.0 ignore;
        Alcotest.(check int) "two" 2 (Engine.pending e);
        ignore (Engine.step e);
        Alcotest.(check int) "one" 1 (Engine.pending e));
    Alcotest.test_case "pop on empty heap raises, not underflows" `Quick
      (fun () ->
        let e = Engine.create () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Engine.pop: empty heap") (fun () ->
            ignore (Engine.pop e : unit -> unit));
        (* The failed pop must not corrupt the heap: it still works. *)
        let ran = ref false in
        Engine.schedule e ~at:1.0 (fun () -> ran := true);
        Engine.run e;
        Alcotest.(check bool) "still functional" true !ran);
    Alcotest.test_case "run on empty engine is a no-op" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run e;
        Alcotest.(check (float 1e-9)) "clock" 0.0 (Engine.now e);
        Alcotest.(check int) "pending" 0 (Engine.pending e));
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7L and b = Rng.create 7L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Rng.int64 a) (Rng.int64 b)
        done);
    Alcotest.test_case "split diverges" `Quick (fun () ->
        let a = Rng.create 7L in
        let b = Rng.split a in
        Alcotest.(check bool) "different" false (Rng.int64 a = Rng.int64 b));
    qtest "int in range" QCheck2.Gen.(int_range 1 1_000_000) (fun n ->
        let rng = Rng.create (Int64.of_int n) in
        let v = Rng.int rng n in
        0 <= v && v < n);
    qtest "float in unit interval" QCheck2.Gen.(int_range 0 1000) (fun s ->
        let rng = Rng.create (Int64.of_int s) in
        let f = Rng.float rng in
        0.0 <= f && f < 1.0);
    Alcotest.test_case "exponential has the right mean" `Quick (fun () ->
        let rng = Rng.create 11L in
        let n = 50_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential rng ~mean:3.0
        done;
        let mean = !sum /. float_of_int n in
        Alcotest.(check bool) "within 5%" true (abs_float (mean -. 3.0) < 0.15));
    Alcotest.test_case "pareto respects scale" `Quick (fun () ->
        let rng = Rng.create 13L in
        for _ = 1 to 1000 do
          Alcotest.(check bool) "\xe2\x89\xa5 xm" true
            (Rng.pareto rng ~xm:2.0 ~alpha:1.5 >= 2.0)
        done);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Rng.create 17L in
        let a = Array.init 100 Fun.id in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check bool) "permutation" true (sorted = Array.init 100 Fun.id));
  ]

(* The online accumulators the benches measure with. *)
module Accum = Apna_obs.Accum

let stats_tests =
  [
    Alcotest.test_case "acc mean and stddev" `Quick (fun () ->
        let acc = Accum.Acc.create () in
        List.iter (Accum.Acc.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
        Alcotest.(check (float 1e-9)) "mean" 5.0 (Accum.Acc.mean acc);
        Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Accum.Acc.stddev acc);
        Alcotest.(check (float 1e-9)) "min" 2.0 (Accum.Acc.min acc);
        Alcotest.(check (float 1e-9)) "max" 9.0 (Accum.Acc.max acc);
        Alcotest.(check int) "count" 8 (Accum.Acc.count acc));
    Alcotest.test_case "empty acc yields nan mean" `Quick (fun () ->
        let acc = Accum.Acc.create () in
        Alcotest.(check bool) "nan" true (Float.is_nan (Accum.Acc.mean acc)));
    Alcotest.test_case "histogram percentiles" `Quick (fun () ->
        let h = Accum.Hist.create ~buckets:1000 ~lo:0.0 ~hi:100.0 () in
        for i = 1 to 100 do
          Accum.Hist.add h (float_of_int i)
        done;
        let p50 = Accum.Hist.percentile h 0.5 in
        let p99 = Accum.Hist.percentile h 0.99 in
        Alcotest.(check bool) "p50 near 50" true (abs_float (p50 -. 50.0) < 2.0);
        Alcotest.(check bool) "p99 near 99" true (abs_float (p99 -. 99.0) < 2.0));
    Alcotest.test_case "histogram clamps out-of-range" `Quick (fun () ->
        let h = Accum.Hist.create ~buckets:10 ~lo:0.0 ~hi:10.0 () in
        Accum.Hist.add h (-5.0);
        Accum.Hist.add h 50.0;
        Alcotest.(check int) "both counted" 2 (Accum.Hist.count h));
    Alcotest.test_case "empty histogram percentile is nan" `Quick (fun () ->
        let h = Accum.Hist.create ~lo:0.0 ~hi:1.0 () in
        Alcotest.(check bool) "nan" true (Float.is_nan (Accum.Hist.percentile h 0.5)));
    Alcotest.test_case "single-sample percentiles" `Quick (fun () ->
        let h = Accum.Hist.create ~buckets:10 ~lo:0.0 ~hi:10.0 () in
        Accum.Hist.add h 4.0;
        List.iter
          (fun p ->
            let v = Accum.Hist.percentile h p in
            Alcotest.(check bool)
              (Printf.sprintf "p%.0f in sample's bucket" (p *. 100.0))
              true
              (4.0 <= v && v <= 5.0))
          [ 0.01; 0.5; 1.0 ]);
    Alcotest.test_case "clamped samples pin percentiles to the edges" `Quick
      (fun () ->
        let h = Accum.Hist.create ~buckets:10 ~lo:0.0 ~hi:10.0 () in
        Accum.Hist.add h (-100.0);
        Accum.Hist.add h 1000.0;
        let p0 = Accum.Hist.percentile h 0.01 in
        let p99 = Accum.Hist.percentile h 0.99 in
        Alcotest.(check bool) "low edge" true (0.0 <= p0 && p0 <= 1.0);
        Alcotest.(check bool) "high edge" true (9.0 <= p99 && p99 <= 10.0));
    qtest "percentiles are monotone in p" ~count:200
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 50) (float_range (-5.0) 15.0))
          (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
      (fun (samples, (p1, p2)) ->
        let h = Accum.Hist.create ~buckets:16 ~lo:0.0 ~hi:10.0 () in
        List.iter (Accum.Hist.add h) samples;
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Accum.Hist.percentile h lo <= Accum.Hist.percentile h hi);
    Alcotest.test_case "counter" `Quick (fun () ->
        let c = Accum.Counter.create () in
        Accum.Counter.incr c;
        Accum.Counter.incr ~by:5 c;
        Alcotest.(check int) "six" 6 (Accum.Counter.value c));
  ]

let () =
  Alcotest.run "apna_sim"
    [ ("engine", engine_tests); ("rng", rng_tests); ("stats", stats_tests) ]
