(* Reference field arithmetic mod 2^255 - 19 for the oracle tests: the
   earlier 17-limb, 15-bit representation, where every product of two
   limbs plus accumulated carries fits a 63-bit int with a wide margin,
   every operation allocates, and exponents come from Bigint. Slow and
   obviously right; lib/crypto/fe25519.ml must agree with it. *)

let limbs = 17
let limb_bits = 15
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

let zero () = Array.make limbs 0

let one () =
  let a = zero () in
  a.(0) <- 1;
  a

let of_int n =
  if n < 0 || n > 1 lsl 45 then invalid_arg "Fe25519.of_int";
  let a = zero () in
  a.(0) <- n land limb_mask;
  a.(1) <- (n lsr limb_bits) land limb_mask;
  a.(2) <- n lsr (2 * limb_bits);
  a

let copy = Array.copy

(* Carry propagation with modular folding: overflow out of limb 16 carries
   bits >= 2^255, and 2^255 = 19 (mod p), so it folds back into limb 0
   multiplied by 19. Limbs may be large (up to ~2^40 after mul) but never
   negative. Two passes leave every limb strictly below 2^15. *)
let carry a =
  for _pass = 1 to 2 do
    let c = ref 0 in
    for i = 0 to limbs - 1 do
      let v = a.(i) + !c in
      a.(i) <- v land limb_mask;
      c := v asr limb_bits
    done;
    a.(0) <- a.(0) + (19 * !c)
  done;
  a

let add a b =
  let r = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i + Array.unsafe_get b i)
  done;
  carry r

(* p in base 2^15: limb 0 = 2^15 - 19, limbs 1..16 = 2^15 - 1. Adding 2p
   keeps every limb difference positive when b is weakly reduced. *)
let twop_limb i = if i = 0 then 2 * (limb_mask + 1 - 19) else 2 * limb_mask

let sub a b =
  let r = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i
      (Array.unsafe_get a i + twop_limb i - Array.unsafe_get b i)
  done;
  carry r
let neg a = sub (zero ()) a

let fold t =
  (* t has 2*limbs digits; digits >= limbs carry a factor 2^255 = 19. *)
  let r = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i
      (Array.unsafe_get t i + (19 * Array.unsafe_get t (i + limbs)))
  done;
  carry r

let mul a b =
  let t = Array.make (2 * limbs) 0 in
  for i = 0 to limbs - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then
      for j = 0 to limbs - 1 do
        let k = i + j in
        Array.unsafe_set t k (Array.unsafe_get t k + (ai * Array.unsafe_get b j))
      done
  done;
  fold t

(* Squaring exploits symmetry: the off-diagonal products appear twice. *)
let sq a =
  let t = Array.make (2 * limbs) 0 in
  for i = 0 to limbs - 1 do
    let ai = Array.unsafe_get a i in
    Array.unsafe_set t (2 * i) (Array.unsafe_get t (2 * i) + (ai * ai));
    let ai2 = 2 * ai in
    for j = i + 1 to limbs - 1 do
      let k = i + j in
      Array.unsafe_set t k (Array.unsafe_get t k + (ai2 * Array.unsafe_get a j))
    done
  done;
  fold t

let mul_small a n =
  if n < 0 || n > 1 lsl 20 then invalid_arg "Fe25519.mul_small";
  carry (Array.map (fun x -> x * n) a)

let of_bytes s =
  if String.length s <> 32 then invalid_arg "Fe25519.of_bytes";
  let a = zero () in
  for i = 0 to limbs - 1 do
    (* Limb i covers bits [15i, 15i+15). *)
    let bitpos = i * limb_bits in
    let byte = bitpos / 8 and off = bitpos mod 8 in
    let b k = if byte + k < 32 then Char.code s.[byte + k] else 0 in
    let v = (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16)) lsr off in
    a.(i) <- v land limb_mask
  done;
  (* Bit 255 of the input is bit 15 of the final limb's raw window and is
     dropped by the [land limb_mask] above. *)
  a

(* Full canonical reduction: after [carry], the value is < 2^255; adding 19
   overflows bit 255 exactly when the value was >= p. *)
let canonical a =
  let a = carry (copy a) in
  let t = copy a in
  t.(0) <- t.(0) + 19;
  let c = ref 0 in
  for i = 0 to limbs - 1 do
    let v = t.(i) + !c in
    t.(i) <- v land limb_mask;
    c := v asr limb_bits
  done;
  if !c = 1 then t else a

let to_bytes a =
  let a = canonical a in
  let byte i =
    (* Byte i covers bits [8i, 8i+8). *)
    let bitpos = i * 8 in
    let limb = bitpos / limb_bits and off = bitpos mod limb_bits in
    let l k = if limb + k < limbs then a.(limb + k) else 0 in
    ((l 0 lor (l 1 lsl limb_bits)) lsr off) land 0xff
  in
  String.init 32 (fun i -> Char.chr (byte i))

let is_zero a =
  let a = canonical a in
  Array.for_all (fun x -> x = 0) a

let equal a b = is_zero (sub a b)
let is_negative a = Char.code (to_bytes a).[0] land 1 = 1

let pow_bytes base e =
  let result = ref (one ()) and acc = ref (copy base) in
  for i = 0 to (String.length e * 8) - 1 do
    let byte = Char.code e.[i / 8] in
    if byte land (1 lsl (i mod 8)) <> 0 then result := mul !result !acc;
    acc := sq !acc
  done;
  !result

(* Exponents derived once from p via Bigint, encoded little-endian. *)
let p_big =
  Bigint.sub (Bigint.shift_left Bigint.one 255) (Bigint.of_int 19)

let exp_p_minus_2 = Bigint.to_bytes_le (Bigint.sub p_big (Bigint.of_int 2)) 32

let exp_sqrt =
  (* (p + 3) / 8 — used by the candidate-root method below. *)
  Bigint.to_bytes_le
    (fst (Bigint.divmod (Bigint.add p_big (Bigint.of_int 3)) (Bigint.of_int 8)))
    32

let exp_sqrt_m1 =
  Bigint.to_bytes_le
    (fst (Bigint.divmod (Bigint.sub p_big Bigint.one) (Bigint.of_int 4)))
    32

(* Inversion by the standard curve25519 addition chain for p - 2 =
   2^255 - 21: 254 squarings and 11 multiplications, ~2x cheaper than
   generic square-and-multiply on this dense exponent. Validated against
   [pow_bytes _ exp_p_minus_2] by the test suite. *)
let invert z =
  let sq_n x n =
    let r = ref x in
    for _ = 1 to n do
      r := sq !r
    done;
    !r
  in
  let z2 = sq z in
  let z9 = mul z (sq_n z2 2) in
  let z11 = mul z2 z9 in
  let z_5_0 = mul z9 (sq z11) in
  let z_10_0 = mul (sq_n z_5_0 5) z_5_0 in
  let z_20_0 = mul (sq_n z_10_0 10) z_10_0 in
  let z_40_0 = mul (sq_n z_20_0 20) z_20_0 in
  let z_50_0 = mul (sq_n z_40_0 10) z_10_0 in
  let z_100_0 = mul (sq_n z_50_0 50) z_50_0 in
  let z_200_0 = mul (sq_n z_100_0 100) z_100_0 in
  let z_250_0 = mul (sq_n z_200_0 50) z_50_0 in
  mul (sq_n z_250_0 5) z11

let generic_invert a = pow_bytes a exp_p_minus_2

let sqrt_m1 = pow_bytes (of_int 2) exp_sqrt_m1

let sqrt a =
  (* Candidate r = a^((p+3)/8); then r^2 = a, or r^2 = -a and r * sqrt(-1)
     is the root, or a is not a square. *)
  let r = pow_bytes a exp_sqrt in
  let r2 = sq r in
  if equal r2 a then Some r
  else if equal r2 (neg a) then Some (mul r sqrt_m1)
  else None
