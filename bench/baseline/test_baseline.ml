(* The comparison baselines the benches measure APNA against: the IPv4
   longest-prefix-match router (E2) and the APIP delegate sketch (E9). *)

open Apna_baseline
open Apna_net

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let hid = Addr.hid_of_int

let lpm_tests =
  [
    Alcotest.test_case "longest prefix wins" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.add t ~prefix:0x0a000000 ~len:8 "ten-slash-8";
        Lpm.add t ~prefix:0x0a010000 ~len:16 "ten-one-slash-16";
        Alcotest.(check (option string)) "specific" (Some "ten-one-slash-16")
          (Lpm.lookup t 0x0a010101);
        Alcotest.(check (option string)) "general" (Some "ten-slash-8")
          (Lpm.lookup t 0x0a020202);
        Alcotest.(check (option string)) "none" None (Lpm.lookup t 0x0b000000));
    Alcotest.test_case "default route" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.add t ~prefix:0 ~len:0 "default";
        Alcotest.(check (option string)) "matches all" (Some "default")
          (Lpm.lookup t 0xdeadbeef));
    Alcotest.test_case "remove" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.add t ~prefix:0x0a000000 ~len:8 "r";
        Lpm.remove t ~prefix:0x0a000000 ~len:8;
        Alcotest.(check (option string)) "gone" None (Lpm.lookup t 0x0a000001);
        Alcotest.(check int) "size" 0 (Lpm.size t));
    qtest "agrees with naive scan" ~count:100
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 30) (pair (int_range 0 0xffffffff) (int_range 0 32)))
          (int_range 0 0xffffffff))
      (fun (routes, addr) ->
        let t = Lpm.create () in
        let canon =
          List.map
            (fun (p, len) ->
              let p = if len = 0 then 0 else p land lnot ((1 lsl (32 - len)) - 1) in
              (p, len))
            routes
        in
        List.iter (fun (p, len) -> Lpm.add t ~prefix:p ~len (p, len)) canon;
        let matches (p, len) =
          len = 0 || (addr lxor p) lsr (32 - len) = 0
        in
        let best =
          List.fold_left
            (fun acc r ->
              if matches r then
                match acc with
                | Some (_, blen) when blen >= snd r -> acc
                | _ -> Some r
              else acc)
            None canon
        in
        (* Compare prefix lengths (several routes may share a prefix). *)
        Option.map snd (Lpm.lookup t addr) = Option.map snd best);
  ]

let router_tests =
  let make_packet ?(ttl = 64) ~dst () =
    Ipv4_header.to_bytes
      (Ipv4_header.make ~ttl ~protocol:17 ~src:(hid 0x0a000001) ~dst:(hid dst)
         ~payload_len:4 ())
    ^ "data"
  in
  [
    Alcotest.test_case "forwards with ttl decrement" `Quick (fun () ->
        let r = Ipv4_router.create () in
        Ipv4_router.add_route r ~prefix:0x08000000 ~len:8 ~next_hop:7;
        match Ipv4_router.forward r (make_packet ~dst:0x08080808 ()) with
        | Ipv4_router.Forwarded { next_hop; packet } ->
            Alcotest.(check int) "hop" 7 next_hop;
            (match Ipv4_header.of_bytes packet with
            | Ok h -> Alcotest.(check int) "ttl" 63 h.ttl
            | Error e -> Alcotest.fail e)
        | Ipv4_router.Dropped e -> Alcotest.fail e);
    Alcotest.test_case "ttl exceeded dropped" `Quick (fun () ->
        let r = Ipv4_router.create () in
        Ipv4_router.add_route r ~prefix:0 ~len:0 ~next_hop:1;
        match Ipv4_router.forward r (make_packet ~ttl:1 ~dst:0x08080808 ()) with
        | Ipv4_router.Dropped "ttl exceeded" -> ()
        | _ -> Alcotest.fail "expected ttl drop");
    Alcotest.test_case "no route dropped" `Quick (fun () ->
        let r = Ipv4_router.create () in
        match Ipv4_router.forward r (make_packet ~dst:0x08080808 ()) with
        | Ipv4_router.Dropped "no route" -> ()
        | _ -> Alcotest.fail "expected no-route drop");
    Alcotest.test_case "synthetic table populates" `Quick (fun () ->
        let r = Ipv4_router.create () in
        Ipv4_router.synthetic_table r ~seed:3L ~routes:1000;
        Alcotest.(check bool) "mostly there" true (Ipv4_router.route_count r > 900));
  ]

let apip_tests =
  [
    Alcotest.test_case "brief then verify" `Quick (fun () ->
        let d = Apip_sketch.create () in
        Apip_sketch.brief d ~sender:1 ~packet:"pkt-a";
        Alcotest.(check bool) "vouched" true (Apip_sketch.verify d ~packet:"pkt-a");
        Alcotest.(check bool) "unknown" false (Apip_sketch.verify d ~packet:"pkt-b"));
    Alcotest.test_case "whitelist tracking" `Quick (fun () ->
        let d = Apip_sketch.create () in
        Apip_sketch.whitelist d ~flow:42;
        Alcotest.(check bool) "listed" true (Apip_sketch.is_whitelisted d ~flow:42);
        Alcotest.(check bool) "not listed" false (Apip_sketch.is_whitelisted d ~flow:43));
    Alcotest.test_case "storage grows with briefs" `Quick (fun () ->
        let d = Apip_sketch.create () in
        for i = 1 to 100 do
          Apip_sketch.brief d ~sender:1 ~packet:(string_of_int i)
        done;
        Alcotest.(check int) "count" 100 (Apip_sketch.briefs_stored d);
        Alcotest.(check int) "bytes" 2000 (Apip_sketch.brief_bytes d));
  ]

let () =
  Alcotest.run "apna_baseline"
    [ ("lpm", lpm_tests); ("ipv4_router", router_tests); ("apip", apip_tests) ]
