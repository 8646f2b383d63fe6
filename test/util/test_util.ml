(* Byte reader/writer codecs and the small utility modules. *)

open Apna_util

let qtest ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rw_tests =
  [
    qtest "u8/u16/u32/u64 roundtrip"
      QCheck2.Gen.(
        let* a = int_range 0 255 in
        let* b = int_range 0 0xffff in
        let* c = int_range 0 0xffffffff in
        let* d = int_range 0 max_int in
        return (a, b, c, d))
      (fun (a, b, c, d) ->
        let w = Rw.Writer.create () in
        Rw.Writer.u8 w a;
        Rw.Writer.u16 w b;
        Rw.Writer.u32_of_int w c;
        Rw.Writer.u64 w (Int64.of_int d);
        let r = Rw.Reader.of_string (Rw.Writer.contents w) in
        let open Rw in
        (let* a' = Reader.u8 r in
         let* b' = Reader.u16 r in
         let* c' = Reader.u32_to_int r in
         let* d' = Reader.u64 r in
         let* () = Reader.expect_end r in
         Ok (a' = a && b' = b && c' = c && d' = Int64.of_int d))
        = Ok true);
    qtest "bytes roundtrip with remaining bookkeeping"
      QCheck2.Gen.(pair (string_size (int_range 0 64)) (string_size (int_range 0 64)))
      (fun (x, y) ->
        let w = Rw.Writer.create () in
        Rw.Writer.u16 w (String.length x);
        Rw.Writer.bytes w x;
        Rw.Writer.bytes w y;
        let r = Rw.Reader.of_string (Rw.Writer.contents w) in
        let open Rw in
        (let* n = Reader.u16 r in
         let* x' = Reader.bytes r n in
         Ok (x' = x && Reader.rest r = y))
        = Ok true);
    Alcotest.test_case "short reads are errors, not exceptions" `Quick (fun () ->
        let r = Rw.Reader.of_string "ab" in
        Alcotest.(check bool) "u32 fails" true (Result.is_error (Rw.Reader.u32 r));
        (* The failed read consumed nothing usable; u16 still works. *)
        Alcotest.(check bool) "u16 ok" true (Rw.Reader.u16 r = Ok 0x6162));
    Alcotest.test_case "expect_end rejects trailing bytes" `Quick (fun () ->
        let r = Rw.Reader.of_string "x" in
        Alcotest.(check bool) "error" true (Result.is_error (Rw.Reader.expect_end r));
        ignore (Rw.Reader.u8 r);
        Alcotest.(check bool) "ok after consuming" true
          (Rw.Reader.expect_end r = Ok ()));
    Alcotest.test_case "big-endian layout on the wire" `Quick (fun () ->
        let w = Rw.Writer.create () in
        Rw.Writer.u16 w 0x0102;
        Rw.Writer.u32_of_int w 0x03040506;
        Alcotest.(check string) "network byte order" "\x01\x02\x03\x04\x05\x06"
          (Rw.Writer.contents w));
    Alcotest.test_case "writer length tracks content" `Quick (fun () ->
        let w = Rw.Writer.create () in
        Rw.Writer.u64 w 1L;
        Rw.Writer.bytes w "abc";
        Alcotest.(check int) "length" 11 (Rw.Writer.length w));
  ]

let misc_tests =
  [
    Alcotest.test_case "ct xor length mismatch rejected" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Ct.xor: length")
          (fun () -> ignore (Ct.xor "ab" "abc")));
    qtest "hex encode length doubles" QCheck2.Gen.(string_size (int_range 0 64))
      (fun s -> String.length (Hex.encode s) = 2 * String.length s);
    Alcotest.test_case "hex decode accepts uppercase" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Hex.decode "DEADBEEF" = Ok "\xde\xad\xbe\xef"));
    Alcotest.test_case "hex pp prints lowercase" `Quick (fun () ->
        Alcotest.(check string) "pp" "00ff"
          (Format.asprintf "%a" Hex.pp "\x00\xff"));
  ]

(* The shared LRU functor behind Cert_cache and the border router's
   validated-EphID cache. *)
module Lru = Apna_util.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let lru_tests =
  [
    Alcotest.test_case "evicts least-recently-used at capacity" `Quick (fun () ->
        let c = Lru.create ~capacity:3 in
        List.iter (fun k -> Lru.set c k k) [ "a"; "b"; "c" ];
        Lru.set c "d" "d";
        Alcotest.(check (option string)) "a evicted" None (Lru.find c "a");
        Alcotest.(check (option string)) "b kept" (Some "b") (Lru.find c "b");
        Alcotest.(check int) "size" 3 (Lru.size c);
        Alcotest.(check int) "evictions" 1 (Lru.evictions c));
    Alcotest.test_case "find refreshes recency, peek does not" `Quick (fun () ->
        let c = Lru.create ~capacity:2 in
        Lru.set c "a" "a";
        Lru.set c "b" "b";
        ignore (Lru.find c "a");
        (* "b" is now LRU and goes first. *)
        Lru.set c "x" "x";
        Alcotest.(check (option string)) "a survives" (Some "a") (Lru.peek c "a");
        Alcotest.(check (option string)) "b evicted" None (Lru.peek c "b");
        (* peek left "a" least-recent? No: find promoted it, then set pushed
           x; peeking must not promote, so after another insert "a" goes. *)
        ignore (Lru.peek c "a");
        Lru.set c "y" "y";
        Alcotest.(check (option string)) "x survives" (Some "x") (Lru.peek c "x");
        Alcotest.(check (option string)) "a evicted after peek" None
          (Lru.peek c "a"));
    Alcotest.test_case "set on an existing key refreshes value and recency"
      `Quick (fun () ->
        let c = Lru.create ~capacity:2 in
        Lru.set c "a" "1";
        Lru.set c "b" "2";
        Lru.set c "a" "3";
        Lru.set c "x" "4";
        Alcotest.(check (option string)) "updated" (Some "3") (Lru.peek c "a");
        Alcotest.(check (option string)) "b evicted" None (Lru.peek c "b"));
    Alcotest.test_case "remove and clear are not evictions" `Quick (fun () ->
        let c = Lru.create ~capacity:4 in
        List.iter (fun k -> Lru.set c k k) [ "a"; "b"; "c" ];
        Lru.remove c "b";
        Lru.remove c "missing";
        Alcotest.(check int) "size" 2 (Lru.size c);
        Lru.clear c;
        Alcotest.(check int) "empty" 0 (Lru.size c);
        Alcotest.(check int) "no evictions" 0 (Lru.evictions c);
        (* The list is consistent after clear: inserts still work. *)
        Lru.set c "z" "z";
        Alcotest.(check (option string)) "reusable" (Some "z") (Lru.find c "z"));
    Alcotest.test_case "capacity one behaves" `Quick (fun () ->
        let c = Lru.create ~capacity:1 in
        Lru.set c "a" "a";
        Lru.set c "b" "b";
        Alcotest.(check (option string)) "only b" (Some "b") (Lru.find c "b");
        Alcotest.(check (option string)) "a gone" None (Lru.find c "a");
        Alcotest.check_raises "capacity 0 rejected"
          (Invalid_argument "Lru.create: capacity") (fun () ->
            ignore (Lru.create ~capacity:0)));
    Alcotest.test_case "fold runs most-recent first" `Quick (fun () ->
        let c = Lru.create ~capacity:4 in
        List.iter (fun k -> Lru.set c k k) [ "a"; "b"; "c" ];
        ignore (Lru.find c "a");
        Alcotest.(check (list string)) "order" [ "a"; "c"; "b" ]
          (List.rev (Lru.fold (fun k _ acc -> k :: acc) c [])));
    qtest "agrees with a naive model under random ops" ~count:200
      QCheck2.Gen.(
        list_size (int_range 0 120)
          (pair (int_range 0 2) (int_range 0 9)))
      (fun ops ->
        (* Model: association list, most-recent first, capacity 4. *)
        let capacity = 4 in
        let c = Lru.create ~capacity in
        let model = ref [] in
        let model_touch k =
          if List.mem_assoc k !model then begin
            let v = List.assoc k !model in
            model := (k, v) :: List.remove_assoc k !model
          end
        in
        List.iter
          (fun (op, ki) ->
            let k = string_of_int ki in
            match op with
            | 0 ->
                Lru.set c k ki;
                model := (k, ki) :: List.remove_assoc k !model;
                if List.length !model > capacity then
                  model := List.filteri (fun i _ -> i < capacity) !model
            | 1 ->
                let got = Lru.find c k in
                model_touch k;
                assert (got = List.assoc_opt k !model)
            | _ ->
                Lru.remove c k;
                model := List.remove_assoc k !model)
          ops;
        Lru.size c = List.length !model
        && List.for_all (fun (k, v) -> Lru.peek c k = Some v) !model);
  ]

let () =
  Alcotest.run "apna_util"
    [ ("rw", rw_tests); ("misc", misc_tests); ("lru", lru_tests) ]
