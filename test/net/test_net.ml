(* Wire formats and topology/routing. *)

open Apna_net

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let aid = Addr.aid_of_int
let hid = Addr.hid_of_int

let addr_tests =
  [
    qtest "aid bytes roundtrip" QCheck2.Gen.(int_range 0 0xffffffff) (fun n ->
        Addr.aid_of_bytes (Addr.aid_to_bytes (aid n)) = Ok (aid n));
    qtest "hid bytes roundtrip" QCheck2.Gen.(int_range 0 0xffffffff) (fun n ->
        Addr.hid_of_bytes (Addr.hid_to_bytes (hid n)) = Ok (hid n));
    Alcotest.test_case "out-of-range rejected" `Quick (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Addr.aid_of_int: not a u32")
          (fun () -> ignore (aid (-1)));
        Alcotest.check_raises "too big" (Invalid_argument "Addr.hid_of_int: not a u32")
          (fun () -> ignore (hid 0x1_0000_0000)));
    Alcotest.test_case "short bytes rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Addr.aid_of_bytes "abc")));
    Alcotest.test_case "hid renders dotted quad" `Quick (fun () ->
        Alcotest.(check string) "render" "10.0.0.1"
          (Format.asprintf "%a" Addr.pp_hid (hid 0x0a000001)));
  ]

let gen_ephid = QCheck2.Gen.(string_size ~gen:char (return 16))

let gen_header =
  QCheck2.Gen.(
    let* src_aid = int_range 0 0xffffffff in
    let* dst_aid = int_range 0 0xffffffff in
    let* src_ephid = gen_ephid in
    let* dst_ephid = gen_ephid in
    let* mac = string_size ~gen:char (return 8) in
    return
      (Apna_header.make ~src_aid:(aid src_aid) ~src_ephid ~dst_aid:(aid dst_aid)
         ~dst_ephid ~mac ()))

let header_tests =
  [
    Alcotest.test_case "size is 48 bytes (Fig. 7)" `Quick (fun () ->
        Alcotest.(check int) "size" 48 Apna_header.size);
    qtest "roundtrip" gen_header (fun h ->
        Apna_header.of_bytes (Apna_header.to_bytes h) = Ok h);
    qtest "truncation rejected" gen_header (fun h ->
        let b = Apna_header.to_bytes h in
        Result.is_error (Apna_header.of_bytes (String.sub b 0 47)));
    qtest "trailing bytes rejected" gen_header (fun h ->
        Result.is_error (Apna_header.of_bytes (Apna_header.to_bytes h ^ "x")));
    Alcotest.test_case "bad field sizes rejected" `Quick (fun () ->
        match
          Apna_header.make ~src_aid:(aid 1) ~src_ephid:"short" ~dst_aid:(aid 2)
            ~dst_ephid:(String.make 16 'e') ()
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    qtest "bytes_for_mac zeroes only the mac" gen_header (fun h ->
        let a = Apna_header.bytes_for_mac h in
        let b = Apna_header.to_bytes { h with mac = String.make 8 '\000' } in
        a = b);
  ]

let packet_tests =
  [
    qtest "packet roundtrip"
      QCheck2.Gen.(pair gen_header (string_size (int_range 0 100)))
      (fun (header, payload) ->
        let pkt = Packet.make ~header ~proto:Packet.Data ~payload in
        Packet.of_bytes (Packet.to_bytes pkt) = Ok pkt);
    Alcotest.test_case "unknown protocol rejected" `Quick (fun () ->
        let h =
          Apna_header.make ~src_aid:(aid 1) ~src_ephid:(String.make 16 'a')
            ~dst_aid:(aid 2) ~dst_ephid:(String.make 16 'b') ()
        in
        let bytes = Apna_header.to_bytes h ^ "\x09payload" in
        Alcotest.(check bool) "error" true (Result.is_error (Packet.of_bytes bytes)));
    Alcotest.test_case "wire size accounts header and shim" `Quick (fun () ->
        let h =
          Apna_header.make ~src_aid:(aid 1) ~src_ephid:(String.make 16 'a')
            ~dst_aid:(aid 2) ~dst_ephid:(String.make 16 'b') ()
        in
        let pkt = Packet.make ~header:h ~proto:Packet.Icmp ~payload:"12345" in
        Alcotest.(check int) "size" (48 + 1 + 5) (Packet.wire_size pkt));
    qtest "write_for_mac assembles bytes_for_mac in place"
      QCheck2.Gen.(pair gen_header (string_size (int_range 0 100)))
      (fun (header, payload) ->
        let pkt = Packet.make ~header ~proto:Packet.Data ~payload in
        (* Dirty buffer: stale bytes must not leak into the MAC input. *)
        let buf = Bytes.make (Packet.wire_size pkt + 7) '\xff' in
        let len = Packet.write_for_mac pkt buf in
        len = Packet.wire_size pkt
        && Bytes.sub_string buf 0 len = Packet.bytes_for_mac pkt);
  ]

let ipv4_tests =
  [
    qtest "roundtrip"
      QCheck2.Gen.(
        let* ttl = int_range 1 255 in
        let* protocol = int_range 0 255 in
        let* src = int_range 0 0xffffffff in
        let* dst = int_range 0 0xffffffff in
        let* len = int_range 0 1000 in
        return (ttl, protocol, src, dst, len))
      (fun (ttl, protocol, src, dst, payload_len) ->
        let h =
          Ipv4_header.make ~ttl ~protocol ~src:(hid src) ~dst:(hid dst)
            ~payload_len ()
        in
        (* of_bytes parses a full datagram buffer: the header must be
           accompanied by the payload bytes its length field claims. *)
        let wire = Ipv4_header.to_bytes h ^ String.make payload_len 'p' in
        Ipv4_header.of_bytes wire = Ok h);
    Alcotest.test_case "total_len over-claim rejected" `Quick (fun () ->
        (* A header that claims more payload than the buffer holds must be
           refused, not silently parsed with phantom bytes. *)
        let h =
          Ipv4_header.make ~protocol:6 ~src:(hid 1) ~dst:(hid 2)
            ~payload_len:32 ()
        in
        let wire = Ipv4_header.to_bytes h ^ String.make 10 'p' in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Ipv4_header.of_bytes wire)));
    Alcotest.test_case "trailing link padding tolerated" `Quick (fun () ->
        (* Bytes beyond total_len are padding: the parse succeeds and
           payload_len still reflects only the claimed payload. *)
        let h =
          Ipv4_header.make ~protocol:6 ~src:(hid 1) ~dst:(hid 2)
            ~payload_len:8 ()
        in
        let wire = Ipv4_header.to_bytes h ^ String.make 8 'p' ^ "PADPAD" in
        match Ipv4_header.of_bytes wire with
        | Error e -> Alcotest.fail e
        | Ok parsed ->
            Alcotest.(check int) "payload_len" 8 parsed.Ipv4_header.payload_len);
    Alcotest.test_case "checksum corruption detected" `Quick (fun () ->
        let h =
          Ipv4_header.make ~protocol:6 ~src:(hid 1) ~dst:(hid 2) ~payload_len:10 ()
        in
        let b = Bytes.of_string (Ipv4_header.to_bytes h) in
        Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x40));
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Ipv4_header.of_bytes (Bytes.unsafe_to_string b))));
    Alcotest.test_case "rfc1071 checksum check" `Quick (fun () ->
        (* Textbook example: checksum of the example header equals 0 when
           verified over the full header. *)
        let h = Ipv4_header.make ~protocol:17 ~src:(hid 0xc0a80001) ~dst:(hid 0xc0a800c7) ~payload_len:0 () in
        Alcotest.(check int) "verifies to zero" 0
          (Ipv4_header.checksum (Ipv4_header.to_bytes h)));
    Alcotest.test_case "oversize payload rejected" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Ipv4_header.make: payload length") (fun () ->
            ignore
              (Ipv4_header.make ~protocol:6 ~src:(hid 1) ~dst:(hid 2)
                 ~payload_len:70_000 ())));
    (* RFC 1624 eqn 3: patching the checksum for a 16-bit field change must
       agree with recomputing RFC 1071 over the rewritten header — for any
       header and any field position, including the old16 = new16 and
       all-ones corner cases the end-around carry gets wrong if folded
       naively. *)
    qtest "rfc1624 incremental == full recompute"
      QCheck2.Gen.(
        let* ttl = int_range 1 255 in
        let* protocol = int_range 0 255 in
        let* src = int_range 0 0xffffffff in
        let* dst = int_range 0 0xffffffff in
        let* len = int_range 0 1000 in
        let* field = int_range 0 9 in
        let* new16 = int_range 0 0xffff in
        return (ttl, protocol, src, dst, len, field, new16))
      (fun (ttl, protocol, src, dst, payload_len, field, new16) ->
        let h =
          Ipv4_header.make ~ttl ~protocol ~src:(hid src) ~dst:(hid dst)
            ~payload_len ()
        in
        let b = Bytes.of_string (Ipv4_header.to_bytes h) in
        let off = 2 * field in
        let get16 at = (Char.code (Bytes.get b at) lsl 8) lor Char.code (Bytes.get b (at + 1)) in
        let old_cksum = get16 10 in
        let old16 = get16 off in
        if off = 10 then true (* rewriting the checksum field itself is out of scope *)
        else begin
          Bytes.set b off (Char.chr (new16 lsr 8));
          Bytes.set b (off + 1) (Char.chr (new16 land 0xff));
          let patched = Ipv4_header.checksum_update ~cksum:old_cksum ~old16 ~new16 in
          Bytes.set b 10 (Char.chr (patched lsr 8));
          Bytes.set b 11 (Char.chr (patched land 0xff));
          (* RFC 1071 invariant: a header with a correct checksum sums to 0. *)
          Ipv4_header.checksum (Bytes.unsafe_to_string b) = 0
        end);
    qtest "decrement_ttl == rebuild" QCheck2.Gen.(pair (int_range 1 255) (int_range 0 255))
      (fun (ttl, protocol) ->
        let h = Ipv4_header.make ~ttl ~protocol ~src:(hid 0x0a000001) ~dst:(hid 0x0a0000fe) ~payload_len:32 () in
        let b = Bytes.of_string (Ipv4_header.to_bytes h) in
        Ipv4_header.decrement_ttl b;
        let rebuilt = Ipv4_header.make ~ttl:(ttl - 1) ~protocol ~src:(hid 0x0a000001) ~dst:(hid 0x0a0000fe) ~payload_len:32 () in
        Bytes.to_string b = Ipv4_header.to_bytes rebuilt);
    qtest "rewrite_addrs_inplace == rebuild"
      QCheck2.Gen.(
        let* src = int_range 0 0xffffffff in
        let* dst = int_range 0 0xffffffff in
        let* src' = int_range 0 0xffffffff in
        let* dst' = int_range 0 0xffffffff in
        return (src, dst, src', dst'))
      (fun (src, dst, src', dst') ->
        let h = Ipv4_header.make ~protocol:47 ~src:(hid src) ~dst:(hid dst) ~payload_len:64 () in
        let b = Bytes.of_string (Ipv4_header.to_bytes h) in
        Ipv4_header.rewrite_addrs_inplace b ~src:(hid src') ~dst:(hid dst');
        let rebuilt = Ipv4_header.make ~protocol:47 ~src:(hid src') ~dst:(hid dst') ~payload_len:64 () in
        Bytes.to_string b = Ipv4_header.to_bytes rebuilt);
    Alcotest.test_case "decrement_ttl refuses ttl 0" `Quick (fun () ->
        let h = Ipv4_header.make ~ttl:1 ~protocol:6 ~src:(hid 1) ~dst:(hid 2) ~payload_len:0 () in
        let b = Bytes.of_string (Ipv4_header.to_bytes h) in
        Ipv4_header.decrement_ttl b;
        Alcotest.check_raises "raises"
          (Invalid_argument "Ipv4_header.decrement_ttl: ttl 0") (fun () ->
            Ipv4_header.decrement_ttl b));
  ]

let gre_tests =
  [
    qtest "roundtrip"
      QCheck2.Gen.(pair (int_range 0 0xffff) (string_size (int_range 0 200)))
      (fun (protocol, payload) ->
        Gre.decapsulate (Gre.encapsulate ~protocol payload) = Ok (protocol, payload));
    Alcotest.test_case "nonzero flags rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error (Gre.decapsulate "\x80\x00\x08\x00payload")));
    Alcotest.test_case "apna protocol number" `Quick (fun () ->
        Alcotest.(check int) "0x0A9A" 0x0A9A Gre.protocol_apna);
  ]

let topology_tests =
  [
    Alcotest.test_case "next hop on a line" `Quick (fun () ->
        let t = Topology.create () in
        Topology.connect t (aid 1) (aid 2) (Link.make ());
        Topology.connect t (aid 2) (aid 3) (Link.make ());
        Alcotest.(check (option int)) "1->3 via 2" (Some 2)
          (Option.map Addr.aid_to_int (Topology.next_hop t ~src:(aid 1) ~dst:(aid 3)));
        Alcotest.(check (option int)) "3->1 via 2" (Some 2)
          (Option.map Addr.aid_to_int (Topology.next_hop t ~src:(aid 3) ~dst:(aid 1))));
    Alcotest.test_case "shortest path preferred" `Quick (fun () ->
        let t = Topology.create () in
        (* Square with diagonal: 1-2-3, 1-4-3 and 1-3 direct. *)
        List.iter
          (fun (a, b) -> Topology.connect t (aid a) (aid b) (Link.make ()))
          [ (1, 2); (2, 3); (1, 4); (4, 3); (1, 3) ];
        Alcotest.(check (option (list int))) "direct" (Some [ 1; 3 ])
          (Option.map (List.map Addr.aid_to_int) (Topology.path t ~src:(aid 1) ~dst:(aid 3))));
    Alcotest.test_case "unreachable destinations" `Quick (fun () ->
        let t = Topology.create () in
        Topology.connect t (aid 1) (aid 2) (Link.make ());
        Topology.add_as t (aid 9);
        Alcotest.(check bool) "no hop" true
          (Topology.next_hop t ~src:(aid 1) ~dst:(aid 9) = None);
        Alcotest.(check bool) "no path" true
          (Topology.path t ~src:(aid 1) ~dst:(aid 9) = None));
    Alcotest.test_case "routes recomputed after mutation" `Quick (fun () ->
        let t = Topology.create () in
        Topology.connect t (aid 1) (aid 2) (Link.make ());
        Alcotest.(check bool) "unreachable" true
          (Topology.next_hop t ~src:(aid 1) ~dst:(aid 3) = None);
        Topology.connect t (aid 2) (aid 3) (Link.make ());
        Alcotest.(check (option int)) "now via 2" (Some 2)
          (Option.map Addr.aid_to_int (Topology.next_hop t ~src:(aid 1) ~dst:(aid 3))));
    Alcotest.test_case "self link rejected" `Quick (fun () ->
        let t = Topology.create () in
        Alcotest.check_raises "raises" (Invalid_argument "Topology.connect: self-link")
          (fun () -> Topology.connect t (aid 1) (aid 1) (Link.make ())));
    Alcotest.test_case "path delay accumulates links" `Quick (fun () ->
        let t = Topology.create () in
        let link = Link.make ~capacity_gbps:1.0 ~propagation_ms:10.0 () in
        Topology.connect t (aid 1) (aid 2) link;
        Topology.connect t (aid 2) (aid 3) link;
        match Topology.path_delay t ~src:(aid 1) ~dst:(aid 3) ~bytes:125 with
        | Some d ->
            (* 2 x (10 ms + 1000 bits / 1 Gbps) = 20 ms + 2 us *)
            Alcotest.(check (float 1e-9)) "delay" 0.020002 d
        | None -> Alcotest.fail "no path");
    qtest "random graphs: next_hop leads to destination" ~count:50
      QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 1 15) (int_range 1 15)))
      (fun edges ->
        let t = Topology.create () in
        List.iter
          (fun (a, b) ->
            if a <> b then Topology.connect t (aid a) (aid b) (Link.make ()))
          edges;
        (* For every connected pair, walking next_hop terminates at dst. *)
        List.for_all
          (fun (a, _) ->
            List.for_all
              (fun (_, b) ->
                if a = b then true
                else
                  match Topology.path t ~src:(aid a) ~dst:(aid b) with
                  | None -> true
                  | Some p -> List.rev p |> List.hd |> Addr.aid_to_int = b)
              edges)
          edges);
  ]

let decode_fuzz_tests =
  let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 120)) in
  [
    qtest "decoders never raise on arbitrary bytes" gen_bytes (fun s ->
        let total = function Ok _ | Error _ -> true in
        total (Apna_header.of_bytes s)
        && total (Packet.of_bytes s)
        && total (Ipv4_header.of_bytes s)
        && total (Gre.decapsulate s));
    qtest "header decode takes exactly size bytes" gen_bytes (fun s ->
        match Apna_header.of_bytes s with
        | Ok h -> String.length s = Apna_header.size && Apna_header.to_bytes h = s
        | Error _ -> String.length s <> Apna_header.size);
    qtest "packet decode re-encodes what it accepts"
      QCheck2.Gen.(
        triple
          (string_size ~gen:char (return Apna_header.size))
          (int_range 0 8)
          (string_size (int_range 0 60)))
      (fun (header, proto, payload) ->
        let s = header ^ String.make 1 (Char.chr proto) ^ payload in
        match Packet.of_bytes s with
        | Ok pkt -> Packet.to_bytes pkt = s
        | Error _ -> true);
  ]

let () =
  Alcotest.run "apna_net"
    [
      ("addr", addr_tests);
      ("header", header_tests);
      ("packet", packet_tests);
      ("ipv4", ipv4_tests);
      ("gre", gre_tests);
      ("topology", topology_tests);
      ("decode_fuzz", decode_fuzz_tests);
    ]
