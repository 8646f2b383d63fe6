(* Known-answer tests (FIPS 197, FIPS 180-4, RFC 4231, RFC 5869, RFC 7748,
   RFC 8032) plus property-based tests for the algebraic invariants. *)

open Apna_crypto

let hex h = Result.get_ok (Apna_util.Hex.decode h)
let hex_of = Apna_util.Hex.encode
let check_hex name expected actual = Alcotest.(check string) name expected (hex_of actual)

(* ------------------------------------------------------------------ *)
(* Bigint *)

let big_of_int = Bigint.of_int

let arb_bigint =
  (* Random naturals up to ~416 bits, biased toward interesting small ones. *)
  QCheck2.Gen.(
    let* n_bytes = int_range 0 52 in
    let* s = string_size ~gen:char (return n_bytes) in
    return (Bigint.of_bytes_be s))

let qtest ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let bigint_tests =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check (option int))
              (string_of_int n) (Some n)
              (Bigint.to_int_opt (big_of_int n)))
          [ 0; 1; 19; 65536; 1 lsl 40; max_int / 4 ]);
    Alcotest.test_case "of_decimal" `Quick (fun () ->
        let n = Bigint.of_decimal "340282366920938463463374607431768211456" in
        (* 2^128 *)
        Alcotest.(check bool)
          "2^128" true
          (Bigint.equal n (Bigint.shift_left Bigint.one 128)));
    Alcotest.test_case "sub underflow" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Bigint.sub: underflow")
          (fun () -> ignore (Bigint.sub Bigint.one (big_of_int 2))));
    Alcotest.test_case "divmod by zero" `Quick (fun () ->
        Alcotest.check_raises "raises" Division_by_zero (fun () ->
            ignore (Bigint.divmod Bigint.one Bigint.zero)));
    qtest "add commutative" QCheck2.Gen.(pair arb_bigint arb_bigint)
      (fun (a, b) -> Bigint.equal (Bigint.add a b) (Bigint.add b a));
    qtest "add/sub inverse" QCheck2.Gen.(pair arb_bigint arb_bigint)
      (fun (a, b) -> Bigint.equal (Bigint.sub (Bigint.add a b) b) a);
    qtest "mul distributes" QCheck2.Gen.(triple arb_bigint arb_bigint arb_bigint)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    qtest "divmod identity" QCheck2.Gen.(pair arb_bigint arb_bigint)
      (fun (a, b) ->
        if Bigint.is_zero b then true
        else begin
          let q, r = Bigint.divmod a b in
          Bigint.compare r b < 0
          && Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        end);
    qtest "shift roundtrip" QCheck2.Gen.(pair arb_bigint (int_range 0 100))
      (fun (a, k) ->
        Bigint.equal (Bigint.shift_right (Bigint.shift_left a k) k) a);
    qtest "bytes roundtrip" arb_bigint (fun a ->
        let w = max 1 ((Bigint.num_bits a + 7) / 8) in
        Bigint.equal a (Bigint.of_bytes_le (Bigint.to_bytes_le a w))
        && Bigint.equal a (Bigint.of_bytes_be (Bigint.to_bytes_be a w)));
    qtest "num_bits vs compare" arb_bigint (fun a ->
        let nb = Bigint.num_bits a in
        if Bigint.is_zero a then nb = 0
        else
          Bigint.compare a (Bigint.shift_left Bigint.one nb) < 0
          && Bigint.compare a (Bigint.shift_left Bigint.one (nb - 1)) >= 0);
  ]

(* ------------------------------------------------------------------ *)
(* SHA-2 *)

(* The SHA-2 tables from their definition (FIPS 180-4): the first w bits
   of the fractional part of the k-th root of a prime p are
   floor((p * 2^(k*w))^(1/k)) mod 2^w, an exact integer root over Bigint. *)
let first_primes n =
  let rec is_prime i d = d * d > i || (i mod d <> 0 && is_prime i (d + 1)) in
  let rec collect acc i =
    if List.length acc = n then Array.of_list (List.rev acc)
    else collect (if is_prime i 2 then i :: acc else acc) (i + 1)
  in
  collect [] 2

(* floor(n^(1/k)) by binary search; invariant lo^k <= n < hi^k. *)
let iroot k n =
  let rec pow b e = if e = 0 then Bigint.one else Bigint.mul b (pow b (e - 1)) in
  let rec search lo hi =
    if Bigint.compare (Bigint.add lo Bigint.one) hi >= 0 then lo
    else
      let mid = Bigint.shift_right (Bigint.add lo hi) 1 in
      if Bigint.compare (pow mid k) n <= 0 then search mid hi else search lo mid
  in
  search Bigint.zero (Bigint.shift_left Bigint.one ((Bigint.num_bits n / k) + 1))

(* The root's fractional bits as 8 big-endian bytes (w <= 64). *)
let frac_root_bytes ~k ~w p =
  let root = iroot k (Bigint.shift_left (Bigint.of_int p) (k * w)) in
  Bigint.to_bytes_be (Bigint.rem root (Bigint.shift_left Bigint.one w)) 8

let int_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int x);
  Bytes.to_string b

let int64_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 x;
  Bytes.to_string b

let sha2_tests =
  [
    Alcotest.test_case "constants derived from prime roots" `Quick (fun () ->
        let primes = first_primes 80 in
        let check name ~k ~w to_bytes table =
          Array.iteri
            (fun i x ->
              Alcotest.(check string)
                (Printf.sprintf "%s[%d]" name i)
                (hex_of (frac_root_bytes ~k ~w primes.(i)))
                (hex_of (to_bytes x)))
            table
        in
        check "sha256_h" ~k:2 ~w:32 int_bytes Sha2_constants.sha256_h;
        check "sha256_k" ~k:3 ~w:32 int_bytes Sha2_constants.sha256_k;
        check "sha512_h" ~k:2 ~w:64 int64_bytes Sha2_constants.sha512_h;
        check "sha512_k" ~k:3 ~w:64 int64_bytes Sha2_constants.sha512_k;
        Alcotest.(check (list int)) "table sizes" [ 8; 64; 8; 80 ]
          Sha2_constants.
            [
              Array.length sha256_h;
              Array.length sha256_k;
              Array.length sha512_h;
              Array.length sha512_k;
            ]);
    Alcotest.test_case "sha256 empty" `Quick (fun () ->
        check_hex "digest"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Sha256.digest ""));
    Alcotest.test_case "sha256 abc" `Quick (fun () ->
        check_hex "digest"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (Sha256.digest "abc"));
    Alcotest.test_case "sha256 two blocks" `Quick (fun () ->
        check_hex "digest"
          "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (Sha256.digest
             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    Alcotest.test_case "sha256 million a" `Slow (fun () ->
        check_hex "digest"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Sha256.digest (String.make 1_000_000 'a')));
    Alcotest.test_case "sha256 incremental equals one-shot" `Quick (fun () ->
        let msg = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
        let c = Sha256.init () in
        let rec feed i =
          if i < String.length msg then begin
            let n = min 17 (String.length msg - i) in
            Sha256.feed c (String.sub msg i n);
            feed (i + n)
          end
        in
        feed 0;
        Alcotest.(check string) "same" (hex_of (Sha256.digest msg))
          (hex_of (Sha256.finalize c)));
    Alcotest.test_case "sha512 empty" `Quick (fun () ->
        check_hex "digest"
          "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
          (Sha512.digest ""));
    Alcotest.test_case "sha512 abc" `Quick (fun () ->
        check_hex "digest"
          "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
          (Sha512.digest "abc"));
    Alcotest.test_case "sha512 two blocks" `Quick (fun () ->
        check_hex "digest"
          "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
          (Sha512.digest
             "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"));
    qtest "sha256 incremental = one-shot" ~count:100
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun msg ->
        let c = Sha256.init () in
        String.iter (fun ch -> Sha256.feed c (String.make 1 ch)) msg;
        Sha256.finalize c = Sha256.digest msg);
    qtest "sha512 digest_list = digest of concat" ~count:100
      QCheck2.Gen.(list_size (int_range 0 8) (string_size (int_range 0 64)))
      (fun parts -> Sha512.digest_list parts = Sha512.digest (String.concat "" parts));
  ]

(* ------------------------------------------------------------------ *)
(* SHA-256 kernel against the reference compression (Sha256_ref) *)

let words_of s = Array.init 8 (fun i -> Int32.to_int (String.get_int32_be s (4 * i)) land 0xffffffff)

let kernel_tests =
  [
    qtest "sha256 kernel = reference, random states" ~count:300
      QCheck2.Gen.(
        triple (string_size (return 32)) (string_size (return 64)) (int_range 1 63))
      (fun (state, block, off) ->
        (* Resume from an arbitrary state, compress [block] read at a
           non-zero offset, then the padding block: both compressions
           start from states the IV never reaches. *)
        let h = words_of state in
        let c = Sha256.init () in
        Sha256.resume c h;
        Sha256.feed_bytes c (Bytes.of_string (String.make off '!' ^ block)) ~off ~len:64;
        let expected = Array.copy h in
        Sha256_ref.compress expected (Bytes.of_string block) 0;
        Sha256.finalize c = Sha256_ref.finish expected ~tail:"" ~total:128);
    qtest "sha256 offset feed_bytes = reference" ~count:200
      QCheck2.Gen.(pair (string_size (int_range 0 300)) (int_range 1 63))
      (fun (msg, off) ->
        let c = Sha256.init () in
        Sha256.feed_bytes c (Bytes.of_string (String.make off '!' ^ msg)) ~off
          ~len:(String.length msg);
        Sha256.finalize c = Sha256_ref.digest msg);
    Alcotest.test_case "sha256 padding boundaries" `Quick (fun () ->
        List.iter
          (fun n ->
            let msg = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
            let c = Sha256.init () in
            String.iter (fun ch -> Sha256.feed c (String.make 1 ch)) msg;
            let name = Printf.sprintf "%d bytes" n in
            let oracle = hex_of (Sha256_ref.digest msg) in
            Alcotest.(check string) (name ^ ", one-shot") oracle (hex_of (Sha256.digest msg));
            Alcotest.(check string) (name ^ ", incremental") oracle (hex_of (Sha256.finalize c)))
          [ 55; 56; 63; 64; 65; 119; 120 ]);
    Alcotest.test_case "sha256 midstate = reference, one block" `Quick (fun () ->
        let block = String.init 64 (fun i -> Char.chr (0x36 lxor i)) in
        let expected = Array.copy Sha2_constants.sha256_h in
        Sha256_ref.compress expected (Bytes.of_string block) 0;
        Alcotest.(check (array int)) "chaining words" expected (Sha256.midstate block));
  ]

(* ------------------------------------------------------------------ *)
(* HMAC / HKDF / DRBG *)

let kdf_tests =
  [
    Alcotest.test_case "hmac-sha256 rfc4231 case 1" `Quick (fun () ->
        check_hex "tag"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (Hmac.Sha256.mac ~key:(String.make 20 '\x0b') "Hi There"));
    Alcotest.test_case "hmac-sha256 rfc4231 case 2" `Quick (fun () ->
        check_hex "tag"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (Hmac.Sha256.mac ~key:"Jefe" "what do ya want for nothing?"));
    Alcotest.test_case "hmac-sha512 rfc4231 case 1" `Quick (fun () ->
        check_hex "tag"
          "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cdedaa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
          (Hmac.Sha512.mac ~key:(String.make 20 '\x0b') "Hi There"));
    Alcotest.test_case "hmac key longer than block" `Quick (fun () ->
        (* RFC 4231 case 6: 131-byte key. *)
        check_hex "tag"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (Hmac.Sha256.mac
             ~key:(String.make 131 '\xaa')
             "Test Using Larger Than Block-Size Key - Hash Key First"));
    Alcotest.test_case "hmac verify accepts truncated" `Quick (fun () ->
        let key = "k" and msg = "m" in
        let tag = String.sub (Hmac.Sha256.mac ~key msg) 0 16 in
        Alcotest.(check bool) "ok" true (Hmac.Sha256.verify ~key ~tag msg));
    Alcotest.test_case "hmac verify rejects short tags" `Quick (fun () ->
        let key = "k" and msg = "m" in
        let tag = String.sub (Hmac.Sha256.mac ~key msg) 0 4 in
        Alcotest.(check bool) "rejected" false (Hmac.Sha256.verify ~key ~tag msg));
    Alcotest.test_case "hkdf rfc5869 case 1" `Quick (fun () ->
        let okm =
          Hkdf.derive
            ~salt:(hex "000102030405060708090a0b0c")
            ~info:(hex "f0f1f2f3f4f5f6f7f8f9") ~len:42
            (String.make 22 '\x0b')
        in
        check_hex "okm"
          "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
          okm);
    qtest "hmac tamper detection" ~count:100
      QCheck2.Gen.(triple (string_size (int_range 1 32)) (string_size (int_range 0 64)) (int_range 0 1000))
      (fun (key, msg, salt) ->
        let tag = Hmac.Sha256.mac ~key msg in
        let msg' = msg ^ string_of_int salt in
        not (Hmac.Sha256.verify ~key ~tag msg'));
    Alcotest.test_case "drbg deterministic" `Quick (fun () ->
        let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
        Alcotest.(check string) "same stream" (Drbg.generate a 64) (Drbg.generate b 64));
    Alcotest.test_case "drbg seed sensitivity" `Quick (fun () ->
        let a = Drbg.create ~seed:"seed1" and b = Drbg.create ~seed:"seed2" in
        Alcotest.(check bool) "different" false (Drbg.generate a 32 = Drbg.generate b 32));
    Alcotest.test_case "drbg split independence" `Quick (fun () ->
        let root = Drbg.create ~seed:"root" in
        let a = Drbg.split root "a" and b = Drbg.split root "b" in
        Alcotest.(check bool) "different" false (Drbg.generate a 32 = Drbg.generate b 32));
    qtest "drbg uniform in range" ~count:200 QCheck2.Gen.(int_range 1 10_000)
      (fun n ->
        let rng = Drbg.create ~seed:(string_of_int n) in
        let v = Drbg.uniform rng n in
        0 <= v && v < n);
  ]

(* ------------------------------------------------------------------ *)
(* AES *)

let aes_tests =
  [
    Alcotest.test_case "fips-197 aes-128" `Quick (fun () ->
        let key = Aes.expand (hex "000102030405060708090a0b0c0d0e0f") in
        check_hex "ct" "69c4e0d86a7b0430d8cdb78070b4c55a"
          (Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff")));
    Alcotest.test_case "fips-197 aes-256" `Quick (fun () ->
        let key =
          Aes.expand (hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
        in
        check_hex "ct" "8ea2b7ca516745bfeafc49904b496089"
          (Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff")));
    Alcotest.test_case "sp800-38a ctr-aes128 block 1" `Quick (fun () ->
        let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
        check_hex "ct" "874d6191b620e3261bef6864990db6ce"
          (Aes.Ctr.crypt ~key ~nonce:(hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
             (hex "6bc1bee22e409f96e93d7e117393172a")));
    Alcotest.test_case "bad key size rejected" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Aes.expand: 10-byte key")
          (fun () -> ignore (Aes.expand "0123456789")));
    qtest "decrypt inverts encrypt (128)" ~count:200
      QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
      (fun (k, block) ->
        let key = Aes.expand k in
        Aes.decrypt_block key (Aes.encrypt_block key block) = block);
    qtest "decrypt inverts encrypt (256)" ~count:100
      QCheck2.Gen.(pair (string_size (return 32)) (string_size (return 16)))
      (fun (k, block) ->
        let key = Aes.expand k in
        Aes.decrypt_block key (Aes.encrypt_block key block) = block);
    qtest "ctr roundtrip any length" ~count:200
      QCheck2.Gen.(triple (string_size (return 16)) (string_size (return 16))
                     (string_size (int_range 0 200)))
      (fun (k, nonce, data) ->
        let key = Aes.expand k in
        Aes.Ctr.crypt ~key ~nonce (Aes.Ctr.crypt ~key ~nonce data) = data);
    Alcotest.test_case "ctr counter wraps across blocks" `Quick (fun () ->
        let key = Aes.expand (String.make 16 'k') in
        let nonce = String.make 12 '\000' ^ "\xff\xff\xff\xff" in
        (* Keystream must not repeat when the 4 counter bytes wrap. *)
        let ks = Aes.Ctr.keystream ~key ~nonce 48 in
        Alcotest.(check bool) "blocks differ" true
          (String.sub ks 0 16 <> String.sub ks 16 16
          && String.sub ks 16 16 <> String.sub ks 32 16));
    Alcotest.test_case "ctr wrap stays inside bytes 12-15" `Quick (fun () ->
        let key = Aes.expand (String.make 16 'k') in
        let prefix = "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b" in
        let ks = Aes.Ctr.keystream ~key ~nonce:(prefix ^ "\x00\xff\xff\xff\xff") 32 in
        (* Block 1's counter: bytes 12-15 wrapped to zero, byte 11 still 00. *)
        check_hex "block 1"
          (hex_of (Aes.encrypt_block key (prefix ^ "\x00\x00\x00\x00\x00")))
          (String.sub ks 16 16));
    Alcotest.test_case "ctr crypt = xor keystream = counter blocks" `Quick (fun () ->
        let key = Aes.expand (String.make 16 'c') in
        let nonce = String.make 12 '\x5a' ^ "\xff\xff\xff\xf0" in
        (* Block i enciphers the nonce with (low 32 bits + i) mod 2^32:
           1400 B is 88 blocks, so this run crosses the wrap. *)
        let counter i =
          let b = Bytes.of_string nonce in
          Bytes.set_int32_be b 12 (Int32.add (Bytes.get_int32_be b 12) (Int32.of_int i));
          Bytes.to_string b
        in
        let full =
          String.concat "" (List.init 88 (fun i -> Aes.encrypt_block key (counter i)))
        in
        List.iter
          (fun len ->
            let data = String.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
            let ks = Aes.Ctr.keystream ~key ~nonce len in
            let name = Printf.sprintf "%d bytes" len in
            check_hex (name ^ ", keystream") (hex_of (String.sub full 0 len)) ks;
            check_hex (name ^ ", crypt") (hex_of (Apna_util.Ct.xor data ks))
              (Aes.Ctr.crypt ~key ~nonce data))
          [ 1; 15; 16; 17; 1400 ]);
    Alcotest.test_case "cbc-mac rejects empty and ragged input" `Quick (fun () ->
        let key = Aes.expand (String.make 16 'k') in
        List.iter
          (fun data ->
            match Aes.Cbc_mac.mac ~key data with
            | _ -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ())
          [ ""; "0123456789abcde"; String.make 17 'x' ]);
    qtest "cbc-mac distinct on distinct blocks" ~count:100
      QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
      (fun (a, b) ->
        let key = Aes.expand (String.make 16 'k') in
        a = b || Aes.Cbc_mac.mac ~key a <> Aes.Cbc_mac.mac ~key b);
  ]

(* ------------------------------------------------------------------ *)
(* AES-GCM (NIST SP 800-38D / the GCM spec's test cases) *)

let gcm_tests =
  let zero_key = Aes.expand (String.make 16 '\000') in
  let zero_iv = String.make 12 '\000' in
  [
    Alcotest.test_case "gcm spec test case 1 (empty)" `Quick (fun () ->
        let ct, tag = Gcm.encrypt ~key:zero_key ~iv:zero_iv "" in
        Alcotest.(check string) "ciphertext" "" ct;
        check_hex "tag" "58e2fccefa7e3061367f1d57a4e7455a" tag);
    Alcotest.test_case "gcm spec test case 2 (one zero block)" `Quick (fun () ->
        let ct, tag = Gcm.encrypt ~key:zero_key ~iv:zero_iv (String.make 16 '\000') in
        check_hex "ciphertext" "0388dace60b6a392f328c2b971b2fe78" ct;
        (* Tag = E_K(J0) xor GHASH: the two spec intermediates below pin
           both halves; their xor ends ...bddf. *)
        check_hex "tag" "ab6e47d42cec13bdf53a67b21257bddf" tag);
    Alcotest.test_case "gcm spec intermediates (H and GHASH)" `Quick (fun () ->
        let h = Aes.encrypt_block zero_key (String.make 16 '\000') in
        check_hex "H = E_K(0)" "66e94bd4ef8a2c3b884cfa59ca342b2e" h;
        let c = hex "0388dace60b6a392f328c2b971b2fe78" in
        let lens = hex "00000000000000000000000000000080" in
        check_hex "GHASH(H, C || len)" "f38cbb1ad69223dcc3457ae5b6b0f885"
          (Gcm.ghash ~h (c ^ lens)));
    Alcotest.test_case "ghash of zero input is zero" `Quick (fun () ->
        let h = Aes.encrypt_block zero_key (String.make 16 '\000') in
        check_hex "ghash" (String.make 32 '0') (Gcm.ghash ~h (String.make 16 '\000')));
    Alcotest.test_case "ghash multiplicative identity" `Quick (fun () ->
        (* In GCM's reflected representation the field's 1 is 0x80 0^15. *)
        let one = "\x80" ^ String.make 15 '\000' in
        let c = hex "0388dace60b6a392f328c2b971b2fe78" in
        check_hex "C * 1 = C" "0388dace60b6a392f328c2b971b2fe78"
          (Gcm.ghash ~h:one c));
    qtest "gcm roundtrip with aad" ~count:150
      QCheck2.Gen.(
        triple (string_size (return 16)) (string_size (int_range 0 200))
          (string_size (int_range 0 40)))
      (fun (k, plaintext, aad) ->
        let key = Aes.expand k in
        let iv = String.make 12 'i' in
        let ct, tag = Gcm.encrypt ~key ~iv ~aad plaintext in
        Gcm.decrypt ~key ~iv ~aad ~tag ct = Ok plaintext);
    qtest "gcm tamper rejected" ~count:100
      QCheck2.Gen.(pair (string_size (int_range 1 100)) (int_range 0 1_000_000))
      (fun (plaintext, r) ->
        let key = Aes.expand (String.make 16 'k') in
        let iv = String.make 12 'i' in
        let ct, tag = Gcm.encrypt ~key ~iv plaintext in
        let pos = r mod String.length ct in
        let b = Bytes.of_string ct in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Result.is_error
          (Gcm.decrypt ~key ~iv ~tag (Bytes.unsafe_to_string b)));
    Alcotest.test_case "gcm wrong aad rejected" `Quick (fun () ->
        let key = Aes.expand (String.make 16 'k') in
        let iv = String.make 12 'i' in
        let ct, tag = Gcm.encrypt ~key ~iv ~aad:"header" "payload" in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Gcm.decrypt ~key ~iv ~aad:"other" ~tag ct)));
  ]

(* ------------------------------------------------------------------ *)
(* X25519 *)

(* u = 9, the X25519 base point. *)
let base_u = String.init 32 (fun i -> if i = 0 then '\009' else '\000')

let x25519_tests =
  [
    Alcotest.test_case "rfc7748 vector 1" `Quick (fun () ->
        check_hex "out"
          "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
          (X25519.scalar_mult
             ~scalar:(hex "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
             ~point:(hex "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")));
    Alcotest.test_case "rfc7748 alice public" `Quick (fun () ->
        check_hex "pub"
          "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
          (X25519.public_of_secret
             (hex "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")));
    Alcotest.test_case "rfc7748 bob public" `Quick (fun () ->
        check_hex "pub"
          "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
          (X25519.public_of_secret
             (hex "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")));
    Alcotest.test_case "rfc7748 shared secret" `Quick (fun () ->
        let alice = hex "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a" in
        let bob_pub = hex "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f" in
        match X25519.shared_secret ~secret:alice ~peer:bob_pub with
        | Ok s ->
            check_hex "shared"
              "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742" s
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "zero point rejected" `Quick (fun () ->
        match X25519.shared_secret ~secret:(String.make 32 'x') ~peer:(String.make 32 '\000') with
        | Ok _ -> Alcotest.fail "low-order point accepted"
        | Error _ -> ());
    qtest "dh agreement" ~count:10 QCheck2.Gen.(pair (string_size (return 32)) (string_size (return 32)))
      (fun (sa, sb) ->
        let pa = X25519.public_of_secret sa and pb = X25519.public_of_secret sb in
        X25519.scalar_mult ~scalar:sa ~point:pb = X25519.scalar_mult ~scalar:sb ~point:pa);
    Alcotest.test_case "rfc7748 iterated, 1 and 1000" `Quick (fun () ->
        (* RFC 7748 §5.2: k = u = 9, then (k, u) <- (X25519(k, u), k). *)
        let k = ref base_u and u = ref base_u in
        for i = 1 to 1000 do
          let r = X25519.scalar_mult ~scalar:!k ~point:!u in
          u := !k;
          k := r;
          if i = 1 then
            check_hex "1 round" "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079" r
        done;
        check_hex "1000 rounds" "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51" !k);
    qtest "public_of_secret == base mult" ~count:50
      QCheck2.Gen.(string_size (return 32))
      (fun sk -> X25519.public_of_secret sk = X25519.scalar_mult ~scalar:sk ~point:base_u);
    qtest "scalar_mult == reference ladder" ~count:20
      QCheck2.Gen.(pair (string_size (return 32)) (string_size (return 32)))
      (fun (scalar, point) ->
        X25519.scalar_mult ~scalar ~point = Curve25519_ref.x25519 ~scalar ~point);
  ]

(* ------------------------------------------------------------------ *)
(* Field arithmetic mod 2^255 - 19 *)

(* Field elements as bytes: random, plus the limb-bound extremes 0, 1,
   p - 1, p, p + 1 and 2^255 - 1 (the top bit is ignored on decode). *)
let fe_extremes =
  List.map hex
    [
      "0000000000000000000000000000000000000000000000000000000000000000";
      "0100000000000000000000000000000000000000000000000000000000000000";
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
      "0000000000000000000000000000000000000000000000000000000000000080";
    ]

let gen_fe_bytes =
  QCheck2.Gen.(
    frequency
      [ (3, string_size ~gen:char (return 32)); (1, oneofl fe_extremes) ])

let arb_fe = QCheck2.Gen.map Fe25519.of_bytes gen_fe_bytes

(* Fe25519 against the 17-limb reference in fe25519_ref.ml: [f] builds a value from
   byte inputs in both, and the encodings must match. *)
module R = Fe25519_ref

let agrees f_new f_ref bs =
  Fe25519.to_bytes (f_new (List.map Fe25519.of_bytes bs))
  = R.to_bytes (f_ref (List.map R.of_bytes bs))

let into2 op a b =
  let r = Fe25519.zero () in
  op r a b;
  r

let into1 op a =
  let r = Fe25519.zero () in
  op r a;
  r

(* (p - 5) / 8, the square-root exponent, from Bigint. *)
let exp_p58 =
  let p = Bigint.sub (Bigint.shift_left Bigint.one 255) (Bigint.of_int 19) in
  Bigint.to_bytes_le (fst (Bigint.divmod (Bigint.sub p (Bigint.of_int 5)) (Bigint.of_int 8))) 32

let fe_tests =
  let g2 = QCheck2.Gen.(list_repeat 2 gen_fe_bytes) in
  let g4 = QCheck2.Gen.(list_repeat 4 gen_fe_bytes) in
  let g6 = QCheck2.Gen.(list_repeat 6 gen_fe_bytes) in
  let two f = function [ a; b ] -> f a b | _ -> assert false in
  [
    qtest "mul commutes" ~count:100 QCheck2.Gen.(pair arb_fe arb_fe)
      (fun (a, b) -> Fe25519.equal (Fe25519.mul a b) (Fe25519.mul b a));
    qtest "mul associates" ~count:100 QCheck2.Gen.(triple arb_fe arb_fe arb_fe)
      (fun (a, b, c) ->
        Fe25519.equal
          (Fe25519.mul a (Fe25519.mul b c))
          (Fe25519.mul (Fe25519.mul a b) c));
    qtest "distributivity" ~count:100 QCheck2.Gen.(triple arb_fe arb_fe arb_fe)
      (fun (a, b, c) ->
        Fe25519.equal
          (Fe25519.mul a (Fe25519.add b c))
          (Fe25519.add (Fe25519.mul a b) (Fe25519.mul a c)));
    qtest "sq equals mul self" ~count:100 arb_fe (fun a ->
        let r = Fe25519.zero () in
        Fe25519.sq_into r a;
        Fe25519.equal r (Fe25519.mul a a));
    qtest "add/sub inverse" ~count:100 QCheck2.Gen.(pair arb_fe arb_fe)
      (fun (a, b) -> Fe25519.equal (Fe25519.sub (Fe25519.add a b) b) a);
    qtest "neg is additive inverse" ~count:100 arb_fe (fun a ->
        Fe25519.is_zero (Fe25519.add a (Fe25519.neg a)));
    qtest "addition-chain inversion matches generic" ~count:50 gen_fe_bytes (fun s ->
        (* The reference's square-and-multiply a^(p-2). *)
        let a = Fe25519.of_bytes s in
        Fe25519.to_bytes (Fe25519.invert a) = R.to_bytes (R.generic_invert (R.of_bytes s)));
    qtest "invert is multiplicative inverse" ~count:50 arb_fe (fun a ->
        Fe25519.is_zero a
        || Fe25519.equal (Fe25519.mul a (Fe25519.invert a)) (Fe25519.one ()));
    qtest "sqrt squares back" ~count:50 arb_fe (fun a ->
        (* a^2 is always a square; its root must square to a^2. *)
        let a2 = Fe25519.mul a a and r = Fe25519.zero () in
        Fe25519.sqrt_ratio_into r ~u:a2 ~v:(Fe25519.one ())
        && Fe25519.equal (Fe25519.mul r r) a2);
    qtest "bytes roundtrip" ~count:100 arb_fe (fun a ->
        Fe25519.equal a (Fe25519.of_bytes (Fe25519.to_bytes a)));
    Alcotest.test_case "canonical encoding reduces mod p" `Quick (fun () ->
        (* p itself encodes as zero. *)
        let p_bytes =
          hex "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
        in
        Alcotest.(check bool) "p = 0" true (Fe25519.is_zero (Fe25519.of_bytes p_bytes)));
    qtest "oracle: decode/encode" ~count:300 gen_fe_bytes (fun s ->
        Fe25519.to_bytes (Fe25519.of_bytes s) = R.to_bytes (R.of_bytes s));
    qtest "oracle: mul, sq, sq2, mul121666" ~count:300 g2
      (fun bs ->
        agrees (two (into2 Fe25519.mul_into)) (two R.mul) bs
        && agrees (two (fun a _ -> into1 Fe25519.sq_into a)) (two (fun a _ -> R.sq a)) bs
        && agrees
             (two (fun a _ -> into1 Fe25519.sq2_into a))
             (two (fun a _ -> R.mul_small (R.sq a) 2))
             bs
        && agrees
             (two (fun a _ -> into1 Fe25519.mul121666_into a))
             (two (fun a _ -> R.mul_small a 121666))
             bs);
    qtest "oracle: add, sub, neg, inv, pow" ~count:100 g2
      (fun bs ->
        agrees (two Fe25519.add) (two R.add) bs
        && agrees (two Fe25519.sub) (two R.sub) bs
        && agrees (two (fun a _ -> Fe25519.neg a)) (two (fun a _ -> R.neg a)) bs
        && agrees (two (fun a _ -> Fe25519.invert a)) (two (fun a _ -> R.invert a)) bs
        && agrees
             (two (fun a _ -> into1 Fe25519.pow22523_into a))
             (two (fun a _ -> R.pow_bytes a exp_p58))
             bs);
    qtest "oracle: unreduced sums into mul" ~count:300 g6
      (fun bs ->
        (* Uncarried sums and differences of up to three carried elements
           are valid multiplication inputs. *)
        let chain3 a b c =
          let r = into2 Fe25519.add_into a b in
          Fe25519.sub_into r r c;
          r
        in
        let chain3_ref a b c = R.sub (R.add a b) c in
        agrees
          (function
            | [ a; b; c; d; e; f ] -> into2 Fe25519.mul_into (chain3 a b c) (chain3 d e f)
            | _ -> assert false)
          (function
            | [ a; b; c; d; e; f ] -> R.mul (chain3_ref a b c) (chain3_ref d e f)
            | _ -> assert false)
          bs
        && agrees
             (function
               | a :: b :: c :: _ ->
                   let x = into1 Fe25519.neg_into a in
                   Fe25519.sub_into x x b;
                   Fe25519.sub_into x x c;
                   into1 Fe25519.sq_into x
               | _ -> assert false)
             (function
               | a :: b :: c :: _ -> R.sq (R.sub (R.sub (R.neg a) b) c)
               | _ -> assert false)
             bs);
    qtest "oracle: aliased _into arguments" ~count:100 g4
      (fun bs ->
        agrees
          (function
            | [ a; b; c; d ] ->
                Fe25519.mul_into a a b;
                Fe25519.sq_into c c;
                Fe25519.mul_into d d d;
                Fe25519.add_into a a c;
                Fe25519.mul_into a a d;
                a
            | _ -> assert false)
          (function
            | [ a; b; c; d ] -> R.mul (R.add (R.mul a b) (R.sq c)) (R.sq d)
            | _ -> assert false)
          bs);
    qtest "cswap swaps on 1 only" ~count:50 QCheck2.Gen.(pair gen_fe_bytes gen_fe_bytes)
      (fun (sa, sb) ->
        let a = Fe25519.of_bytes sa and b = Fe25519.of_bytes sb in
        let ea = Fe25519.to_bytes a and eb = Fe25519.to_bytes b in
        Fe25519.cswap a b 0;
        let kept = Fe25519.to_bytes a = ea && Fe25519.to_bytes b = eb in
        Fe25519.cswap a b 1;
        kept && Fe25519.to_bytes a = eb && Fe25519.to_bytes b = ea);
  ]

(* ------------------------------------------------------------------ *)
(* Ed25519 *)

let ed25519_tests =
  [
    Alcotest.test_case "rfc8032 test 1 (empty message)" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed
            (hex "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
        in
        check_hex "pub" "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
          (Ed25519.public_key kp);
        check_hex "sig"
          "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
          (Ed25519.sign kp ""));
    Alcotest.test_case "rfc8032 test 2 (one byte)" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed
            (hex "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
        in
        check_hex "pub" "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
          (Ed25519.public_key kp);
        check_hex "sig"
          "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
          (Ed25519.sign kp (hex "72")));
    Alcotest.test_case "rfc8032 test 3 (two bytes)" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed
            (hex "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7")
        in
        check_hex "pub" "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
          (Ed25519.public_key kp);
        check_hex "sig"
          "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
          (Ed25519.sign kp (hex "af82")));
    Alcotest.test_case "verify accepts own signatures" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        let msg = "attributable packet" in
        Alcotest.(check bool) "ok" true
          (Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg
             ~signature:(Ed25519.sign kp msg)));
    Alcotest.test_case "verify rejects tampered message" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        let signature = Ed25519.sign kp "original" in
        Alcotest.(check bool) "rejected" false
          (Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg:"tampered" ~signature));
    Alcotest.test_case "verify rejects wrong key" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        let kp' = Ed25519.keypair_of_seed (String.make 32 't') in
        let signature = Ed25519.sign kp "msg" in
        Alcotest.(check bool) "rejected" false
          (Ed25519.verify ~pub:(Ed25519.public_key kp') ~msg:"msg" ~signature));
    Alcotest.test_case "verify rejects malformed inputs" `Quick (fun () ->
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        Alcotest.(check bool) "short sig" false
          (Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg:"m" ~signature:"short");
        Alcotest.(check bool) "bad pub" false
          (Ed25519.verify ~pub:(String.make 32 '\255') ~msg:"m"
             ~signature:(Ed25519.sign kp "m")));
    qtest "sign/verify roundtrip" ~count:5
      QCheck2.Gen.(pair (string_size (return 32)) (string_size (int_range 0 100)))
      (fun (seed, msg) ->
        let kp = Ed25519.keypair_of_seed seed in
        Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg ~signature:(Ed25519.sign kp msg));
    qtest "bit flip anywhere in signature rejected" ~count:5
      QCheck2.Gen.(pair (string_size (return 32)) (int_range 0 511))
      (fun (seed, bit) ->
        let kp = Ed25519.keypair_of_seed seed in
        let msg = "flip test" in
        let s = Bytes.of_string (Ed25519.sign kp msg) in
        Bytes.set s (bit / 8)
          (Char.chr (Char.code (Bytes.get s (bit / 8)) lxor (1 lsl (bit mod 8))));
        not
          (Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg
             ~signature:(Bytes.unsafe_to_string s)));
  ]

(* The two forgeries a lax decoder admits: the base point B as R with
   s = 1 verifies under the identity public key for every message, and the
   identity has a canonical and a non-canonical (y = p + 1) encoding. *)
let identity_forgery = hex "5866666666666666666666666666666666666666666666666666666666666666" ^ hex "0100000000000000000000000000000000000000000000000000000000000000"
let identity_canonical = hex "0100000000000000000000000000000000000000000000000000000000000000"
let identity_p_plus_1 = hex "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"

(* L, the group order, from Bigint. *)
let l_order =
  Bigint.add (Bigint.shift_left Bigint.one 252)
    (Bigint.of_decimal "27742317777372353535851937790883648493")

let p25519 = Bigint.sub (Bigint.shift_left Bigint.one 255) (Bigint.of_int 19)
let big_le s = Bigint.of_bytes_le s
let le32 n = Bigint.to_bytes_le n 32

let ed25519_strict_tests =
  [
    Alcotest.test_case "identity-key forgeries rejected" `Quick (fun () ->
        List.iter
          (fun pub ->
            List.iter
              (fun msg ->
                (* The lax reference accepts it, which is the bug. *)
                Alcotest.(check bool) "reference accepts" true
                  (Curve25519_ref.verify ~pub ~msg ~signature:identity_forgery);
                Alcotest.(check bool) "rejected" false
                  (Ed25519.verify ~pub ~msg ~signature:identity_forgery))
              [ ""; "any message"; "pay mallory" ])
          [ identity_canonical; identity_p_plus_1 ]);
    Alcotest.test_case "small-order R rejected" `Quick (fun () ->
        (* R = identity and s = k a satisfy sB = R + kA for a real key, so
           only the small-order check on R rejects it. *)
        let kp = Curve25519_ref.keypair_of_seed (String.make 32 'r') in
        let pub = Curve25519_ref.public_key kp and msg = "small-order R" in
        let k =
          Scalar25519.reduce (Sha512.digest_list [ identity_canonical; pub; msg ])
        in
        let s = Scalar25519.muladd k kp.secret_scalar (String.make 32 '\000') in
        let signature = identity_canonical ^ s in
        Alcotest.(check bool) "reference accepts" true
          (Curve25519_ref.verify ~pub ~msg ~signature);
        Alcotest.(check bool) "rejected" false (Ed25519.verify ~pub ~msg ~signature));
    Alcotest.test_case "y >= p rejected, y < p accepted" `Quick (fun () ->
        (* y = p + 1 and y = 1 name the same point; only y = 1 decodes. *)
        Alcotest.(check bool) "p + 1" true (Edwards25519.decode identity_p_plus_1 = None);
        Alcotest.(check bool) "1" true (Edwards25519.decode identity_canonical <> None);
        Alcotest.(check bool) "identity is small order" true
          (Edwards25519.is_small_order (Option.get (Edwards25519.decode identity_canonical)));
        Alcotest.(check bool) "B is not" false (Edwards25519.is_small_order Edwards25519.base));
    qtest "decode/encode roundtrip" ~count:100
      QCheck2.Gen.(string_size (return 32))
      (fun s ->
        match Edwards25519.decode s with
        | Some p -> Edwards25519.encode p = s
        | None -> true);
    qtest "decode accepts as reference" ~count:500
      QCheck2.Gen.(
        oneof
          [
            string_size (return 32);
            return identity_canonical;
            (* y = 1 with the sign bit set: x = 0 has no negative root. *)
            return (String.sub identity_canonical 0 31 ^ "\x80");
          ])
      (fun s ->
        (* The reference decoder is lax only about y >= p, so below p the
           two must accept and refuse the same strings. *)
        let y = String.sub s 0 31 ^ String.make 1 (Char.chr (Char.code s.[31] land 0x7f)) in
        Bigint.compare (big_le y) p25519 >= 0
        || (Edwards25519.decode s <> None) = (Curve25519_ref.decompress s <> None));
  ]

let scalar_tests =
  let gen64 = QCheck2.Gen.(string_size (return 64)) in
  let gen32 = QCheck2.Gen.(string_size (return 32)) in
  [
    qtest "reduce == Bigint mod L" ~count:300
      QCheck2.Gen.(oneof [ gen64; return (String.make 64 '\255'); return (String.make 64 '\000') ])
      (fun b -> Scalar25519.reduce b = le32 (Bigint.rem (big_le b) l_order));
    qtest "muladd == Bigint (ab + c) mod L" ~count:300
      QCheck2.Gen.(
        triple (oneof [ gen32; return (String.make 32 '\255') ]) gen32 gen32)
      (fun (a, b, c) ->
        Scalar25519.muladd a b c
        = le32 (Bigint.rem (Bigint.add (Bigint.mul (big_le a) (big_le b)) (big_le c)) l_order));
    qtest "is_canonical == below L" ~count:300
      QCheck2.Gen.(
        oneof
          [
            gen32;
            map
              (fun d ->
                le32
                  (if d < 0 then Bigint.sub l_order (Bigint.of_int (-d))
                   else Bigint.add l_order (Bigint.of_int d)))
              (int_range (-3) 3);
          ])
      (fun s -> Scalar25519.is_canonical s = (Bigint.compare (big_le s) l_order < 0));
  ]

let ed25519_oracle_tests =
  let gen_seed_msg =
    QCheck2.Gen.(pair (string_size (return 32)) (string_size (int_range 0 200)))
  in
  [
    qtest "sign == reference sign" ~count:30 gen_seed_msg (fun (seed, msg) ->
        let kp = Ed25519.keypair_of_seed seed
        and kp_ref = Curve25519_ref.keypair_of_seed seed in
        Ed25519.public_key kp = Curve25519_ref.public_key kp_ref
        && Ed25519.sign kp msg = Curve25519_ref.sign kp_ref msg);
    qtest "verify == reference, bit flips" ~count:30
      QCheck2.Gen.(pair gen_seed_msg (int_range (-1) 767))
      (fun ((seed, msg), bit) ->
        (* bit -1 keeps the signature; 0..511 flip a signature bit and
           512..767 a public-key bit. *)
        let kp = Ed25519.keypair_of_seed seed in
        let flip s i =
          let b = Bytes.of_string s in
          Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
          Bytes.unsafe_to_string b
        in
        let signature = Ed25519.sign kp msg and pub = Ed25519.public_key kp in
        let signature = if bit >= 0 && bit < 512 then flip signature bit else signature in
        let pub = if bit >= 512 then flip pub (bit - 512) else pub in
        let v = Ed25519.verify ~pub ~msg ~signature in
        v = Curve25519_ref.verify ~pub ~msg ~signature && v = (bit < 0));
  ]

(* Verification under a prepared key, and the comb and batched inversion
   beneath it: the same verdict as [Ed25519.verify] on every input. *)

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Bytes.unsafe_to_string b

(* Both paths' verdict, with a key that does not prepare counting as a
   refusal; [false] when the two disagree. *)
let same_verdict ~pub ~msg ~signature ~expect =
  let plain = Ed25519.verify ~pub ~msg ~signature in
  let prepared =
    match Ed25519.prepare pub with
    | Some key -> Ed25519.verify_prepared key ~msg ~signature
    | None -> false
  in
  plain = prepared && plain = expect

let prepared_tests =
  let gen_seed_msg =
    QCheck2.Gen.(pair (string_size (return 32)) (string_size (int_range 0 200)))
  in
  (* Scalars below 2^255 with a[31] <= 127, as the comb requires. *)
  let gen_scalar =
    QCheck2.Gen.map
      (fun s -> String.sub s 0 31 ^ String.make 1 (Char.chr (Char.code s.[31] land 0x7f)))
      (QCheck2.Gen.string_size (QCheck2.Gen.return 32))
  in
  let zero = String.make 32 '\000' in
  let comb_agrees rows =
    qtest (Printf.sprintf "comb %d rows == double_scalar_mul" rows) ~count:20
      QCheck2.Gen.(pair gen_scalar gen_scalar)
      (fun (p_scalar, a) ->
        let p = Edwards25519.scalar_mul_base p_scalar in
        Edwards25519.equal
          (Edwards25519.comb_mul (Edwards25519.comb_table ~rows p) a)
          (Edwards25519.double_scalar_mul a p zero))
  in
  [
    qtest "prepared == plain, random keys" ~count:30 gen_seed_msg (fun (seed, msg) ->
        let kp = Ed25519.keypair_of_seed seed in
        same_verdict ~pub:(Ed25519.public_key kp) ~msg ~signature:(Ed25519.sign kp msg)
          ~expect:true);
    qtest "prepared == plain, bit flips" ~count:60
      QCheck2.Gen.(pair gen_seed_msg (int_range 0 1023))
      (fun ((seed, msg), bit) ->
        (* 0..511 flip a signature bit, 512..767 a public-key bit and
           768..1023 a bit of the message (extended to 32 bytes). *)
        let kp = Ed25519.keypair_of_seed seed in
        let msg = if String.length msg < 32 then msg ^ String.make 32 'm' else msg in
        let signature = Ed25519.sign kp msg and pub = Ed25519.public_key kp in
        if bit < 512 then same_verdict ~pub ~msg ~signature:(flip_bit signature bit) ~expect:false
        else if bit < 768 then
          same_verdict ~pub:(flip_bit pub (bit - 512)) ~msg ~signature ~expect:false
        else same_verdict ~pub ~msg:(flip_bit msg (bit - 768)) ~signature ~expect:false);
    Alcotest.test_case "edge vectors agree" `Quick (fun () ->
        (* Small-order R: R = identity and s = k a satisfy the equation. *)
        let kp = Curve25519_ref.keypair_of_seed (String.make 32 'r') in
        let pub = Curve25519_ref.public_key kp and msg = "small-order R" in
        let k = Scalar25519.reduce (Sha512.digest_list [ identity_canonical; pub; msg ]) in
        let s = Scalar25519.muladd k kp.secret_scalar zero in
        Alcotest.(check bool) "small-order R" true
          (same_verdict ~pub ~msg ~signature:(identity_canonical ^ s) ~expect:false);
        (* Non-canonical s: s + L names the same scalar. *)
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        let pub = Ed25519.public_key kp and msg = "non-canonical s" in
        let signature = Ed25519.sign kp msg in
        let s_plus_l = le32 (Bigint.add (big_le (String.sub signature 32 32)) l_order) in
        Alcotest.(check bool) "canonical s" true (same_verdict ~pub ~msg ~signature ~expect:true);
        Alcotest.(check bool) "s + L" true
          (same_verdict ~pub ~msg ~signature:(String.sub signature 0 32 ^ s_plus_l) ~expect:false);
        (* Identity-key forgeries under both encodings of the identity. *)
        List.iter
          (fun pub ->
            Alcotest.(check bool) "identity key" true
              (same_verdict ~pub ~msg:"any" ~signature:identity_forgery ~expect:false))
          [ identity_canonical; identity_p_plus_1 ]);
    Alcotest.test_case "prepare refuses bad keys" `Quick (fun () ->
        let refused pub = Ed25519.prepare pub = None in
        Alcotest.(check bool) "small-order A" true (refused identity_canonical);
        Alcotest.(check bool) "non-canonical A" true (refused identity_p_plus_1);
        Alcotest.(check bool) "off-curve A" true (refused (String.make 32 '\255'));
        Alcotest.(check bool) "short A" true (refused "short");
        Alcotest.(check bool) "real key" false
          (refused (Ed25519.public_key (Ed25519.keypair_of_seed (String.make 32 's')))));
    comb_agrees 8;
    comb_agrees 32;
    qtest "batch invert == invert" ~count:50
      QCheck2.Gen.(list_size (int_range 1 20) gen_fe_bytes)
      (fun bs ->
        let elts =
          List.map Fe25519.of_bytes bs |> List.filter (fun x -> not (Fe25519.is_zero x))
        in
        let a = Array.of_list (List.map Fe25519.copy elts) in
        Fe25519.batch_invert_into a;
        List.for_all2
          (fun x y -> Fe25519.to_bytes (Fe25519.invert x) = Fe25519.to_bytes y)
          elts (Array.to_list a));
  ]

(* ------------------------------------------------------------------ *)
(* AEAD *)

let aead_tests =
  let key = Aead.of_secret (String.make 32 'K') in
  let nonce = String.make 16 'N' in
  [
    qtest "seal/open roundtrip" ~count:200
      QCheck2.Gen.(pair (string_size (int_range 0 300)) (string_size (int_range 0 32)))
      (fun (plaintext, aad) ->
        match Aead.open_ ~key ~nonce ~aad (Aead.seal ~key ~nonce ~aad plaintext) with
        | Ok p -> p = plaintext
        | Error _ -> false);
    qtest "ciphertext tamper rejected" ~count:100
      QCheck2.Gen.(pair (string_size (int_range 1 100)) (int_range 0 1_000_000))
      (fun (plaintext, r) ->
        let sealed = Aead.seal ~key ~nonce plaintext in
        let pos = r mod String.length sealed in
        let b = Bytes.of_string sealed in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Result.is_error (Aead.open_ ~key ~nonce (Bytes.unsafe_to_string b)));
    Alcotest.test_case "wrong aad rejected" `Quick (fun () ->
        let sealed = Aead.seal ~key ~nonce ~aad:"header" "payload" in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Aead.open_ ~key ~nonce ~aad:"other" sealed)));
    Alcotest.test_case "wrong nonce rejected" `Quick (fun () ->
        let sealed = Aead.seal ~key ~nonce "payload" in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Aead.open_ ~key ~nonce:(String.make 16 'M') sealed)));
    Alcotest.test_case "wrong key rejected" `Quick (fun () ->
        let sealed = Aead.seal ~key ~nonce "payload" in
        let key' = Aead.of_secret (String.make 32 'L') in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Aead.open_ ~key:key' ~nonce sealed)));
    Alcotest.test_case "truncated input rejected" `Quick (fun () ->
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Aead.open_ ~key ~nonce "tiny")));
  ]

(* ------------------------------------------------------------------ *)
(* Hex / Ct utility coverage lives here too: they are crypto-adjacent. *)

let util_tests =
  [
    qtest "hex roundtrip" ~count:200 QCheck2.Gen.(string_size (int_range 0 64))
      (fun s -> Apna_util.Hex.decode (Apna_util.Hex.encode s) = Ok s);
    Alcotest.test_case "hex rejects odd length" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Apna_util.Hex.decode "abc")));
    Alcotest.test_case "hex rejects non-hex" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Apna_util.Hex.decode "zz")));
    qtest "ct equal agrees with (=)" ~count:300
      QCheck2.Gen.(pair (string_size (int_range 0 32)) (string_size (int_range 0 32)))
      (fun (a, b) -> Apna_util.Ct.equal a b = (a = b));
    qtest "ct xor involutive" ~count:200 QCheck2.Gen.(pair (string_size (return 24)) (string_size (return 24)))
      (fun (a, b) -> Apna_util.Ct.xor (Apna_util.Ct.xor a b) b = a);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation-free variants (the burst fast path): each _into / prepared
   entry point must agree byte-for-byte with its allocating original. *)

(* Top level, so the timed loop captures nothing: any minor word counted
   is the MAC's own (the midstate resume included). *)
let mac_into_minor_words () =
  let p = Hmac.Sha256.prepare ~key:"prepared key" in
  let src = Bytes.make 1400 's' and out = Bytes.create 32 in
  Hmac.Sha256.mac_into p ~src ~off:0 ~len:64 ~out ~out_off:0;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Hmac.Sha256.mac_into p ~src ~off:0 ~len:(if i land 1 = 0 then 64 else 1400) ~out
      ~out_off:0
  done;
  Gc.minor_words () -. w0

(* Minor words per call of [f], after one warm-up call that forces any
   lazy table. *)
let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Top level for the same reason as mac_into_minor_words. *)
let fe_into_minor_words () =
  let a = Fe25519.of_bytes (String.make 32 'a') and b = Fe25519.of_bytes (String.make 32 'b') in
  let r = Fe25519.zero () in
  Fe25519.mul_into r a b;
  let w0 = Gc.minor_words () in
  for _ = 1 to 500 do
    Fe25519.mul_into r r b;
    Fe25519.sq_into r r
  done;
  Gc.minor_words () -. w0

(* Ceilings at about 1.5x the words measured when they were set (155 per
   ladder, 2,781 per verify); the 17-limb code allocated ~178k and
   ~359k. *)
let x25519_words_ceiling = 250.
let verify_words_ceiling = 4200.

let into_tests =
  let gen_msg = QCheck2.Gen.(string_size (int_range 0 300)) in
  let gen_key = QCheck2.Gen.(string_size (int_range 1 80)) in
  [
    qtest "sha256 feed_bytes/finalize_into == digest"
      QCheck2.Gen.(pair gen_msg (int_range 0 8))
      (fun (msg, pad) ->
        let c = Sha256.init () in
        let src = Bytes.of_string (String.make pad '!' ^ msg) in
        Sha256.feed_bytes c src ~off:pad ~len:(String.length msg);
        let out = Bytes.make (Sha256.digest_size + pad) '\xff' in
        Sha256.finalize_into c out ~off:pad;
        Bytes.sub_string out pad Sha256.digest_size = Sha256.digest msg);
    qtest "sha256 reset reuses a context" QCheck2.Gen.(pair gen_msg gen_msg)
      (fun (a, b) ->
        let c = Sha256.init () in
        Sha256.feed c a;
        let first = Sha256.finalize c in
        Sha256.reset c;
        Sha256.feed c b;
        first = Sha256.digest a && Sha256.finalize c = Sha256.digest b);
    qtest "hmac mac_into == mac" QCheck2.Gen.(pair gen_key gen_msg)
      (fun (key, msg) ->
        let p = Hmac.Sha256.prepare ~key in
        let out = Bytes.make 32 '\x00' in
        let src = Bytes.of_string msg in
        Hmac.Sha256.mac_into p ~src ~off:0 ~len:(Bytes.length src) ~out ~out_off:0;
        let again = Bytes.make 32 '\x00' in
        Hmac.Sha256.mac_into p ~src ~off:0 ~len:(Bytes.length src) ~out:again ~out_off:0;
        (* The prepared key is reusable: a second MAC must not be polluted
           by the first one's context state. *)
        Bytes.to_string out = Hmac.Sha256.mac ~key msg
        && Bytes.to_string again = Bytes.to_string out);
    qtest "hmac mac_list_prepared == mac_list"
      QCheck2.Gen.(pair gen_key (list_size (int_range 0 6) gen_msg))
      (fun (key, parts) ->
        let p = Hmac.Sha256.prepare ~key in
        Hmac.Sha256.mac_list_prepared p parts = Hmac.Sha256.mac_list ~key parts);
    Alcotest.test_case "hmac mac_into allocates nothing" `Quick (fun () ->
        Alcotest.(check (float 0.)) "minor words over 1000 MACs" 0.0 (mac_into_minor_words ()));
    qtest "aes encrypt_block_into == encrypt_block (incl. in place)"
      QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
      (fun (key, block) ->
        let k = Aes.expand key in
        let expected = Aes.encrypt_block k block in
        let dst = Bytes.make 16 '\x00' in
        Aes.encrypt_block_into k ~src:(Bytes.of_string block) ~src_off:0 ~dst ~dst_off:0;
        let in_place = Bytes.of_string block in
        Aes.encrypt_block_into k ~src:in_place ~src_off:0 ~dst:in_place ~dst_off:0;
        Bytes.to_string dst = expected && Bytes.to_string in_place = expected);
    qtest "cbc_mac mac_into == mac"
      QCheck2.Gen.(pair (string_size (return 16)) (int_range 1 4))
      (fun (key, blocks) ->
        let k = Aes.expand key in
        let msg = String.concat "" (List.init blocks (fun i -> String.make 16 (Char.chr (0x20 + i)))) in
        let out = Bytes.make 16 '\x00' in
        Aes.Cbc_mac.mac_into ~key:k ~src:(Bytes.of_string msg) ~off:0
          ~len:(String.length msg) ~out ~out_off:0;
        Bytes.to_string out = Aes.Cbc_mac.mac ~key:k msg);
    Alcotest.test_case "fe mul_into/sq_into allocate 0" `Quick (fun () ->
        Alcotest.(check (float 0.)) "minor words over 1000 calls" 0.0 (fe_into_minor_words ()));
    Alcotest.test_case "x25519, verify under word ceilings" `Quick
      (fun () ->
        let sk = String.make 32 'k' and pk = X25519.public_of_secret (String.make 32 'p') in
        let x = words_per_call 20 (fun () -> ignore (X25519.scalar_mult ~scalar:sk ~point:pk)) in
        let kp = Ed25519.keypair_of_seed (String.make 32 's') in
        let pub = Ed25519.public_key kp and msg = "allocation gate" in
        let signature = Ed25519.sign kp msg in
        let v = words_per_call 20 (fun () -> assert (Ed25519.verify ~pub ~msg ~signature)) in
        if x > x25519_words_ceiling || v > verify_words_ceiling then
          Alcotest.failf "x25519 %.0f words/call (ceiling %.0f), verify %.0f (ceiling %.0f)" x
            x25519_words_ceiling v verify_words_ceiling);
  ]

(* ------------------------------------------------------------------ *)
(* ChaCha20-Poly1305 (RFC 8439): the vectors are typed in from the RFC;
   Poly1305 is checked against Bigint as an oracle. *)

module Cp = Chacha20_poly1305

(* Poly1305 the long way (§2.5.1): each 16-byte chunk, with a 0x01 byte
   appended, is added to the accumulator, which is then multiplied by the
   clamped r modulo 2^130 - 5; the tag is (acc + s) mod 2^128. *)
let p1305 = Bigint.sub (Bigint.shift_left Bigint.one 130) (Bigint.of_int 5)

let clamp r =
  let r = Bytes.of_string r in
  List.iter (fun i -> Bytes.set r i (Char.chr (Char.code (Bytes.get r i) land 15))) [ 3; 7; 11; 15 ];
  List.iter (fun i -> Bytes.set r i (Char.chr (Char.code (Bytes.get r i) land 252))) [ 4; 8; 12 ];
  Bigint.of_bytes_le (Bytes.to_string r)

(* The accumulator mod p after the last chunk, under the clamped [r]. *)
let poly_acc ~r msg =
  let acc = ref Bigint.zero in
  let len = String.length msg in
  let i = ref 0 in
  while !i < len do
    let chunk = String.sub msg !i (min 16 (len - !i)) in
    let n = Bigint.of_bytes_le (chunk ^ "\x01") in
    acc := Bigint.mod_mul (Bigint.add !acc n) r p1305;
    i := !i + 16
  done;
  !acc

let poly1305_oracle ~key msg =
  let acc = poly_acc ~r:(clamp (String.sub key 0 16)) msg in
  let s = Bigint.of_bytes_le (String.sub key 16 16) in
  Bigint.to_bytes_le (Bigint.rem (Bigint.add acc s) (Bigint.shift_left Bigint.one 128)) 16

(* Minor words per [Aead.seal] and per [Aead.open_] of [msg]. *)
let aead_words ~key ~nonce msg =
  let sealed = Aead.seal ~key ~nonce msg in
  let seal = words_per_call 100 (fun () -> ignore (Aead.seal ~key ~nonce msg)) in
  let open_ = words_per_call 100 (fun () -> ignore (Aead.open_ ~key ~nonce sealed)) in
  (seal, open_)

(* Words of a heap string of [n] bytes, header included. *)
let string_words n = float_of_int ((n / 8) + 2)

let chacha_tests =
  let rfc_aead_key = String.init 32 (fun i -> Char.chr (0x80 + i)) in
  let rfc_aead_nonce = hex "070000004041424344454647" in
  let rfc_aad = hex "50515253c0c1c2c3c4c5c6c7" in
  let sunscreen =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip \
     for the future, sunscreen would be it."
  in
  let rfc_ct =
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d63dbea45e8ca967\
     1282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b3692ddbd7f2d778b8c9803aee3280\
     91b58fab324e4fad675945585808b4831d7bc3ff4def08e4b7a9de576d26586cec64b6116"
  in
  let gen_key = QCheck2.Gen.(string_size ~gen:char (return 32)) in
  let gen_msg =
    QCheck2.Gen.(
      let* len = oneof [ int_range 0 300; oneofl [ 15; 16; 17 ] ] in
      oneof
        [ string_size ~gen:char (return len); return (String.make len '\xff') ])
  in
  [
    Alcotest.test_case "rfc8439 2.3.2 block" `Quick (fun () ->
        check_hex "keystream"
          "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
           d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
          (Cp.xor ~key:(String.init 32 Char.chr) ~nonce:(hex "000000090000004a00000000")
             ~counter:1 (String.make 64 '\x00')));
    Alcotest.test_case "rfc8439 2.5.2 poly1305" `Quick (fun () ->
        check_hex "tag" "a8061dc1305136c6c22b8baf0c0127a9"
          (Cp.poly1305
             ~key:(hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
             "Cryptographic Forum Research Group"));
    Alcotest.test_case "rfc8439 2.8.2 aead" `Quick (fun () ->
        let sealed = Cp.seal ~key:rfc_aead_key ~nonce:rfc_aead_nonce ~aad:rfc_aad sunscreen in
        check_hex "ciphertext ‖ tag" (rfc_ct ^ "1ae10b594f09e26a7e902ecbd0600691") sealed;
        Alcotest.(check (result string string)) "opens" (Ok sunscreen)
          (Cp.open_ ~key:rfc_aead_key ~nonce:rfc_aead_nonce ~aad:rfc_aad sealed));
    qtest "poly1305 = bigint oracle" ~count:300
      QCheck2.Gen.(pair (oneof [ gen_key; return (String.make 32 '\xff') ]) gen_msg)
      (fun (key, msg) -> Cp.poly1305 ~key msg = poly1305_oracle ~key msg);
    Alcotest.test_case "poly1305 reduction edges" `Quick (fun () ->
        (* r = 2, s = 0, m = 2^128 - 1: acc = 2^130 - 2 >= p before the
           final reduction, which must leave 3. Then r = 2, s = 2^128 - 1,
           m = 2: acc + s wraps 2^128 and leaves 3. (RFC 8439 A.3 #6, #7.) *)
        let r2 = "\x02" ^ String.make 15 '\x00' and three = "\x03" ^ String.make 15 '\x00' in
        List.iter
          (fun (key, msg) ->
            Alcotest.(check string) "tag" (hex_of three) (hex_of (Cp.poly1305 ~key msg));
            Alcotest.(check string) "oracle" (hex_of three) (hex_of (poly1305_oracle ~key msg)))
          [ (r2 ^ String.make 16 '\x00', String.make 16 '\xff');
            (r2 ^ String.make 16 '\xff', r2) ]);
    Alcotest.test_case "xor = block-by-block keystream" `Quick (fun () ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        List.iter
          (fun len ->
            let msg = String.init len (fun i -> Char.chr (i land 0xff)) in
            let stream =
              String.concat ""
                (List.init ((len + 63) / 64) (fun b ->
                     Cp.xor ~key ~nonce ~counter:(7 + b) (String.make 64 '\x00')))
            in
            Alcotest.(check string) (string_of_int len)
              (Apna_util.Ct.xor msg (String.sub stream 0 len))
              (Cp.xor ~key ~nonce ~counter:7 msg))
          [ 1; 63; 64; 65; 1400 ]);
    Alcotest.test_case "any nonce byte flip fails open" `Quick (fun () ->
        let key = Aead.of_secret (String.make 32 'K') and nonce = String.make 16 'N' in
        let sealed = Aead.seal ~key ~nonce "payload" in
        for i = 0 to Aead.nonce_size - 1 do
          let n = Bytes.of_string nonce in
          Bytes.set n i (Char.chr (Char.code (Bytes.get n i) lxor 0x80));
          Alcotest.(check bool) (Printf.sprintf "byte %d" i) true
            (Result.is_error (Aead.open_ ~key ~nonce:(Bytes.to_string n) sealed))
        done);
    Alcotest.test_case "seal/open allocate their result" `Quick (fun () ->
        let key = Aead.of_secret (String.make 32 'K') and nonce = String.make 16 'N' in
        List.iter
          (fun len ->
            let seal, open_ = aead_words ~key ~nonce (String.make len 'p') in
            (* The sealed string; the plaintext plus its [Ok] block. *)
            let seal_max = string_words (len + Aead.tag_size) +. 2.
            and open_max = string_words len +. 2. +. 2. in
            if seal > seal_max || open_ > open_max then
              Alcotest.failf "%d B: seal %.1f words (max %.0f), open %.1f (max %.0f)" len
                seal seal_max open_ open_max)
          [ 0; 64; 1400 ]);
  ]

(* ------------------------------------------------------------------ *)
(* The packet MAC (Pkt_auth): hash-then-PRF, checked against a composition
   of independent parts — subkeys from the RFC-checked ChaCha20 block, h
   from the Bigint Poly1305 oracle with s = 0, the tag from one more
   block. *)

module Pkt = Apna_net.Packet

(* h = the Poly1305 polynomial of [msg] under [r], no s, mod 2^128. *)
let poly_hash_oracle ~r msg = poly1305_oracle ~key:(r ^ String.make 16 '\x00') msg

(* The first 16 bytes of the ChaCha20 block whose counter ‖ nonce is h. *)
let prf_oracle ~key h =
  String.sub
    (Cp.xor ~key ~nonce:(String.sub h 4 12) ~counter:(Int32.to_int (String.get_int32_le h 0) land 0xffffffff)
       (String.make 64 '\x00'))
    0 16

let hash_prf_bytes ~r ~key msg =
  let out = Bytes.create 16 in
  Cp.hash_prf ~key:(r ^ key) (Bytes.of_string msg) ~off:0 ~len:(String.length msg) ~out;
  Bytes.to_string out

(* Pkt_auth.mac the long way: subkeys from block 0 under the domain nonce,
   the MAC input through Packet.bytes_for_mac. *)
let pkt_mac_oracle ~auth_key pkt =
  let sub = Cp.xor ~key:auth_key ~nonce:"apna-pkt-mac" ~counter:0 (String.make 48 '\x00') in
  let h = poly_hash_oracle ~r:(String.sub sub 0 16) (Pkt.bytes_for_mac pkt) in
  String.sub (prf_oracle ~key:(String.sub sub 16 32) h) 0 8

let mac_packet ~seed ~payload_len =
  let b n i = String.init n (fun j -> Char.chr (((seed * 31) + (i * 7) + j) land 0xff)) in
  let header =
    Apna_net.Apna_header.make ~src_aid:(Apna_net.Addr.aid_of_int (64500 + seed))
      ~src_ephid:(b 16 1) ~dst_aid:(Apna_net.Addr.aid_of_int 64502) ~dst_ephid:(b 16 2) ()
  in
  Pkt.make ~header ~proto:Pkt.Data ~payload:(b payload_len 3)

let gen_packet =
  QCheck2.Gen.(
    let* seed = int_range 0 1000 and* payload_len = int_range 0 1500 in
    let* auth_key = string_size ~gen:char (return 32) in
    return (auth_key, mac_packet ~seed ~payload_len))

(* Every single-bit flip of the MAC input or the tag, applied to the wire
   bytes; a flip that leaves no valid packet (the shim's protocol tag)
   counts as rejected. Returns the flips that verified. *)
let accepted_flips verify pkt =
  let wire = Pkt.to_bytes pkt in
  let accepted = ref 0 in
  for bit = 0 to (8 * String.length wire) - 1 do
    let b = Bytes.of_string wire in
    Bytes.set b (bit / 8) (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit land 7))));
    match Pkt.of_bytes (Bytes.to_string b) with
    | Ok tampered -> if verify tampered then incr accepted
    | Error _ -> ()
  done;
  !accepted

let mod_pow b e =
  let acc = ref Bigint.one in
  for i = Bigint.num_bits e - 1 downto 0 do
    acc := Bigint.mod_mul !acc !acc p1305;
    if Bigint.bit e i then acc := Bigint.mod_mul !acc b p1305
  done;
  !acc

(* What a host holding kHA can do: it knows r, so it can set the first
   16-byte block that lies wholly in [pkt]'s payload to make its
   polynomial, and so its tag, equal to [target]'s. The block enters the
   polynomial times r^k; a solution outside [0, 2^128) changes the last
   payload byte and tries again. [pkt]'s payload must reach past that
   block. *)
let collide ~auth_key ~target (pkt : Pkt.t) =
  let sub = Cp.xor ~key:auth_key ~nonce:"apna-pkt-mac" ~counter:0 (String.make 16 '\x00') in
  let r = clamp sub in
  let goal = poly_acc ~r (Pkt.bytes_for_mac target) in
  let shim_end = Apna_net.Apna_header.size + 1 in
  let block = (shim_end + 15) / 16 in
  let weight = mod_pow r (Bigint.of_int (((Pkt.wire_size pkt + 15) / 16) - block)) in
  let inv_weight = mod_pow weight (Bigint.sub p1305 (Bigint.of_int 2)) in
  let with_block tweak x =
    let payload = Bytes.of_string pkt.payload in
    Bytes.set payload (Bytes.length payload - 1) (Char.chr tweak);
    Bytes.blit_string x 0 payload ((16 * block) - shim_end) 16;
    { pkt with payload = Bytes.to_string payload }
  in
  let rec go tweak =
    let zero = with_block tweak (String.make 16 '\x00') in
    let x =
      Bigint.mod_mul
        (Bigint.mod_add goal (Bigint.sub p1305 (poly_acc ~r (Pkt.bytes_for_mac zero))) p1305)
        inv_weight p1305
    in
    if Bigint.num_bits x <= 128 then with_block tweak (Bigint.to_bytes_le x 16) else go (tweak + 1)
  in
  go 0

(* The accountability agent of AS 64500 with one host registered, and a
   victim in AS 64501 that reports the host's packets. *)
let collision_world () =
  let module A = Apna in
  let rng = Drbg.create ~seed:"pktmac-collision" and now = 1_750_000_000 in
  let aid = Apna_net.Addr.aid_of_int and hid = Apna_net.Addr.hid_of_int in
  let as_keys = A.Keys.make_as rng ~aid:(aid 64500) in
  let victim_as = A.Keys.make_as rng ~aid:(aid 64501) in
  let h = hid 0x0a000001 in
  let kha = A.Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  let host_info = A.Host_info.create () in
  A.Host_info.register host_info h kha;
  let revoked = A.Revocation.create () and trust = A.Trust.create () in
  A.Trust.register_as trust (aid 64501) ~pub:(Ed25519.public_key victim_as.signing);
  let agent = A.Accountability.create ~keys:as_keys ~host_info ~revoked ~trust () in
  let vkeys = A.Keys.make_ephid_keys rng in
  let vephid = A.Ephid.issue_random victim_as rng ~hid:(hid 7) ~expiry:(now + 900) in
  let vcert =
    A.Cert.issue victim_as ~ephid:vephid ~expiry:(now + 900) ~kx_pub:vkeys.kx_public
      ~sig_pub:(Ed25519.public_key vkeys.sig_keypair) ~aa_ephid:vephid
  in
  let ephid () = A.Ephid.issue_random as_keys rng ~hid:h ~expiry:(now + 900) in
  let packet src payload =
    let header =
      Apna_net.Apna_header.make ~src_aid:(aid 64500) ~src_ephid:(A.Ephid.to_bytes src)
        ~dst_aid:(aid 64501) ~dst_ephid:(A.Ephid.to_bytes vephid) ()
    in
    Pkt.make ~header ~proto:Pkt.Data ~payload
  in
  let complain pkt =
    let at = float_of_int now in
    match
      A.Accountability.enqueue agent ~now ~at
        (A.Shutoff.make_request ~packet:pkt ~dst_cert:vcert ~dst_keys:vkeys)
    with
    | A.Accountability.Queued -> Ok (List.length (A.Accountability.drain agent ~now ~at))
    | Refused e -> Error (A.Error.to_string e)
    | Shed -> Alcotest.fail "shed"
  in
  (kha.A.Keys.auth, h, agent, revoked, ephid, packet, complain)

let verify_in_words p pkt scratch =
  ignore (Apna.Pkt_auth.verify_in ~scratch p pkt);
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    ignore (Apna.Pkt_auth.verify_in ~scratch p pkt)
  done;
  (Gc.minor_words () -. w0) /. 200.

let pktmac_tests =
  let r = hex "85d6be7857556d337f4452fe42d506a8" and key = String.init 32 Char.chr in
  let msg len = String.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
  [
    Alcotest.test_case "hash_prf = oracle at 0..1482 B" `Quick (fun () ->
        List.iter
          (fun len ->
            Alcotest.(check string) (string_of_int len)
              (hex_of (prf_oracle ~key (poly_hash_oracle ~r (msg len))))
              (hex_of (hash_prf_bytes ~r ~key (msg len))))
          [ 0; 15; 16; 17; 1482 ]);
    Alcotest.test_case "hash_prf fixed vector" `Quick (fun () ->
        (* r from RFC 8439 §2.5.2 and the §2.3.2 key. The message is the
           §2.5.2 one, so h is that tag minus s mod 2^128. *)
        let m = "Cryptographic Forum Research Group" in
        let le = Bigint.of_bytes_le and two128 = Bigint.shift_left Bigint.one 128 in
        let h =
          Bigint.rem
            (Bigint.sub
               (Bigint.add (le (hex "a8061dc1305136c6c22b8baf0c0127a9")) two128)
               (le (hex "0103808afb0db2fd4abff6af4149f51b")))
            two128
        in
        check_hex "h" (hex_of (Bigint.to_bytes_le h 16)) (poly_hash_oracle ~r m);
        check_hex "tag" "b51ec76b41530c0d89fd071c01d7436a" (hash_prf_bytes ~r ~key m));
    qtest "hash_prf = oracle, any r and range" ~count:200
      QCheck2.Gen.(
        triple (string_size ~gen:char (return 16)) (string_size (int_range 0 200)) (int_range 0 7))
      (fun (r, m, off) ->
        let out = Bytes.create 16 in
        Cp.hash_prf ~key:(r ^ key) (Bytes.of_string (String.make off 'x' ^ m)) ~off ~len:(String.length m) ~out;
        Bytes.to_string out = prf_oracle ~key (poly_hash_oracle ~r m));
    Alcotest.test_case "mac = oracle at 49..1482 B" `Quick (fun () ->
        let auth_key = String.make 32 'A' in
        List.iter
          (fun payload_len ->
            let pkt = mac_packet ~seed:1 ~payload_len in
            Alcotest.(check string) (string_of_int payload_len)
              (hex_of (pkt_mac_oracle ~auth_key pkt))
              (hex_of (Apna.Pkt_auth.mac ~auth_key pkt)))
          [ 0; 15; 16; 17; 1433 ]);
    qtest "seal = seal_prepared; all verify" ~count:100 gen_packet (fun (auth_key, pkt) ->
        let p = Apna.Pkt_auth.prepare ~auth_key in
        let sealed = Apna.Pkt_auth.seal ~auth_key pkt in
        Apna.Pkt_auth.seal_prepared p pkt = sealed
        && Apna.Pkt_auth.verify ~auth_key sealed
        && Apna.Pkt_auth.verify_in ~scratch:(Bytes.create 2048) p sealed
        && Apna.Pkt_auth.verify_in ~scratch:(Bytes.create 16) p sealed);
    Alcotest.test_case "every bit flip is rejected" `Quick (fun () ->
        let auth_key = String.make 32 'K' in
        let p = Apna.Pkt_auth.prepare ~auth_key and scratch = Bytes.create 2048 in
        List.iter
          (fun payload_len ->
            let pkt = Apna.Pkt_auth.seal ~auth_key (mac_packet ~seed:2 ~payload_len) in
            Alcotest.(check int) (Printf.sprintf "verify, %d B" payload_len) 0
              (accepted_flips (Apna.Pkt_auth.verify ~auth_key) pkt);
            Alcotest.(check int) (Printf.sprintf "verify_in, %d B" payload_len) 0
              (accepted_flips (Apna.Pkt_auth.verify_in ~scratch p) pkt))
          [ 0; 64; 1433 ]);
    Alcotest.test_case "verify_in allocates nothing" `Quick (fun () ->
        let auth_key = String.make 32 'K' in
        let p = Apna.Pkt_auth.prepare ~auth_key and scratch = Bytes.create 2048 in
        List.iter
          (fun payload_len ->
            let pkt = Apna.Pkt_auth.seal ~auth_key (mac_packet ~seed:3 ~payload_len) in
            Alcotest.(check (float 0.)) (string_of_int payload_len) 0.
              (verify_in_words p pkt scratch))
          [ 0; 64; 1433 ]);
    Alcotest.test_case "own tag collisions: all granted" `Quick (fun () ->
        let auth_key, h, agent, revoked, ephid, packet, complain = collision_world () in
        let e1 = ephid () and e2 = ephid () in
        let seal = Apna.Pkt_auth.seal ~auth_key in
        let p1 = seal (packet e1 (String.make 64 'a')) in
        (* Same tag from a second EphID, and from the first EphID again. *)
        let p2 = seal (collide ~auth_key ~target:p1 (packet e2 (String.make 64 'b'))) in
        let p3 = seal (collide ~auth_key ~target:p1 (packet e1 (String.make 200 'c'))) in
        List.iter
          (fun (name, p) ->
            check_hex name (hex_of p1.header.mac) p.Pkt.header.mac;
            Alcotest.(check bool) (name ^ " verifies") true (Apna.Pkt_auth.verify ~auth_key p))
          [ ("p2", p2); ("p3", p3) ];
        (* The AA dedups on the authenticated bytes, not the tag: each
           packet is its own evidence and counts toward the host's
           revocation threshold; a replay of one is still refused. *)
        let outcome = Alcotest.(result int string) in
        List.iter
          (fun (name, p) -> Alcotest.check outcome (name ^ " granted") (Ok 1) (complain p))
          [ ("p1", p1); ("p2", p2); ("p3", p3) ];
        Alcotest.check outcome "p2 replayed" (Error "rejected: duplicate evidence") (complain p2);
        Alcotest.(check int) "three grants counted" 3 (Apna.Accountability.revocations_of agent h);
        Alcotest.(check bool) "both EphIDs revoked" true
          (Apna.Revocation.is_revoked revoked e1 && Apna.Revocation.is_revoked revoked e2);
        (* Retention keys egress on source EphID ‖ tag: p1 and p2 keep
           two entries. *)
        let audit = Apna.Audit.create () in
        List.iter
          (fun (e, p) -> Apna.Audit.record_egress audit ~now:1 ~ephid:e ~digest:(Pkt.digest p))
          [ (e1, p1); (e2, p2) ];
        Alcotest.(check int) "two egress entries" 2 (Apna.Audit.egress_count audit));
  ]

let () =
  Alcotest.run "apna_crypto"
    [
      ("util", util_tests);
      ("bigint", bigint_tests);
      ("sha2", sha2_tests);
      ("kernel", kernel_tests);
      ("kdf", kdf_tests);
      ("aes", aes_tests);
      ("gcm", gcm_tests);
      ("x25519", x25519_tests);
      ("fe25519", fe_tests);
      ("ed25519", ed25519_tests);
      ("strict", ed25519_strict_tests);
      ("oracle", ed25519_oracle_tests);
      ("prepare", prepared_tests);
      ("scalar", scalar_tests);
      ("aead", aead_tests);
      ("into", into_tests);
      ("chacha", chacha_tests);
      ("pktmac", pktmac_tests);
    ]
