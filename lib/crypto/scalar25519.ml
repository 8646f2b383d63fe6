(* ref10's sc_reduce and sc_muladd on 21-bit signed limbs. Every product
   of two limbs is below 2^46, and no sum in the chains below comes near
   OCaml's 2^62. *)

(* L = 2^252 + delta, so 2^252 = -delta (mod L): a limb s_i with i >= 12
   folds into s_(i-12) .. s_(i-7) multiplied by -delta's signed 21-bit
   limbs. *)
let minus_delta = [| 666643; 470296; 654183; -997805; 136657; -683901 |]

let fold s i =
  let v = s.(i) in
  for j = 0 to 5 do
    s.(i - 12 + j) <- s.(i - 12 + j) + (v * minus_delta.(j))
  done;
  s.(i) <- 0

let carry_round s i =
  let c = (s.(i) + (1 lsl 20)) asr 21 in
  s.(i + 1) <- s.(i + 1) + c;
  s.(i) <- s.(i) - (c lsl 21)

let carry_floor s i =
  let c = s.(i) asr 21 in
  s.(i + 1) <- s.(i + 1) + c;
  s.(i) <- s.(i) - (c lsl 21)

(* [n] limbs of 21 bits from little-endian [b]; the last limb takes every
   remaining bit (29 of 64 bytes, 25 of 32). *)
let limbs_of_bytes b n =
  Array.init n (fun i ->
      let pos = 21 * i in
      let byte = pos lsr 3 in
      let v = ref 0 in
      for k = 3 downto 0 do
        v := (!v lsl 8) lor (if byte + k < String.length b then Char.code b.[byte + k] else 0)
      done;
      let v = !v lsr (pos land 7) in
      if i = n - 1 then v else v land 0x1fffff)

(* The reduction tail shared by sc_reduce and sc_muladd: 24 limbs in,
   the canonical 32-byte encoding of their value mod L out. *)
let reduce_limbs s =
  for i = 23 downto 18 do fold s i done;
  List.iter (carry_round s) [ 6; 8; 10; 12; 14; 16; 7; 9; 11; 13; 15 ];
  for i = 17 downto 12 do fold s i done;
  List.iter (carry_round s) [ 0; 2; 4; 6; 8; 10; 1; 3; 5; 7; 9; 11 ];
  fold s 12;
  for i = 0 to 11 do carry_floor s i done;
  fold s 12;
  for i = 0 to 10 do carry_floor s i done;
  let out = Bytes.create 32 in
  let acc = ref 0 and nbits = ref 0 and n = ref 0 in
  for i = 0 to 11 do
    acc := !acc lor (s.(i) lsl !nbits);
    nbits := !nbits + 21;
    while !nbits >= 8 do
      Bytes.set out !n (Char.chr (!acc land 0xff));
      incr n;
      acc := !acc lsr 8;
      nbits := !nbits - 8
    done
  done;
  Bytes.set out 31 (Char.chr (!acc land 0xff));
  Bytes.unsafe_to_string out

let reduce b =
  if String.length b <> 64 then invalid_arg "Scalar25519.reduce";
  reduce_limbs (limbs_of_bytes b 24)

let muladd a b c =
  if String.length a <> 32 || String.length b <> 32 || String.length c <> 32 then
    invalid_arg "Scalar25519.muladd";
  let a = limbs_of_bytes a 12 and b = limbs_of_bytes b 12 and c = limbs_of_bytes c 12 in
  let s = Array.make 24 0 in
  Array.blit c 0 s 0 12;
  for i = 0 to 11 do
    for j = 0 to 11 do
      s.(i + j) <- s.(i + j) + (a.(i) * b.(j))
    done
  done;
  List.iter (carry_round s)
    [ 0; 2; 4; 6; 8; 10; 12; 14; 16; 18; 20; 22; 1; 3; 5; 7; 9; 11; 13; 15; 17; 19; 21 ];
  reduce_limbs s

(* L, little-endian. *)
let order =
  "\xed\xd3\xf5\x5c\x1a\x63\x12\x58\xd6\x9c\xf7\xa2\xde\xf9\xde\x14\
   \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x10"

let is_canonical s =
  String.length s = 32
  &&
  let rec below i =
    i >= 0
    && (s.[i] < order.[i] || (s.[i] = order.[i] && below (i - 1)))
  in
  below 31
