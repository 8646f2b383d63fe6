(* ref10-style field arithmetic: 10 signed limbs in radix 2^25.5. Limb i
   has weight 2^ceil(25.5 i): the even limbs hold 26 bits, the odd limbs
   25, so a product of two odd limbs carries an extra factor 2, and a
   product whose weight reaches 2^255 folds back multiplied by 19. *)

type t = int array

let limbs = 10
let zero () = Array.make limbs 0

let one () =
  let a = zero () in
  a.(0) <- 1;
  a

let of_int n =
  if n < 0 || n >= 1 lsl 25 then invalid_arg "Fe25519.of_int";
  let a = zero () in
  a.(0) <- n;
  a

let copy = Array.copy
let copy_into r a = Array.blit a 0 r 0 limbs

let add_into r a b =
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i + Array.unsafe_get b i)
  done

let sub_into r a b =
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i - Array.unsafe_get b i)
  done

let neg_into r a =
  for i = 0 to limbs - 1 do
    Array.unsafe_set r i (-Array.unsafe_get a i)
  done

(* Swaps a and b when bit = 1, leaves them when bit = 0 (fe_cswap). *)
let cswap a b bit =
  let mask = -bit in
  for i = 0 to limbs - 1 do
    let x = mask land (Array.unsafe_get a i lxor Array.unsafe_get b i) in
    Array.unsafe_set a i (Array.unsafe_get a i lxor x);
    Array.unsafe_set b i (Array.unsafe_get b i lxor x)
  done

(* fe_mul's carry chain over the ten unreduced limb sums, storing the
   carried limbs into [h]. The sums arrive as arguments, not as an array
   or tuple, so nothing is allocated. *)
let carry_store h h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + (1 lsl 24)) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + (1 lsl 24)) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + (1 lsl 25)) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + (1 lsl 25)) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + (1 lsl 24)) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + (1 lsl 24)) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + (1 lsl 25)) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + (1 lsl 24)) asr 25 in
  let h0 = h0 + (19 * c) and h9 = h9 - (c lsl 25) in
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  Array.unsafe_set h 0 h0; Array.unsafe_set h 1 h1;
  Array.unsafe_set h 2 h2; Array.unsafe_set h 3 h3;
  Array.unsafe_set h 4 h4; Array.unsafe_set h 5 h5;
  Array.unsafe_set h 6 h6; Array.unsafe_set h 7 h7;
  Array.unsafe_set h 8 h8; Array.unsafe_set h 9 h9

(* The same chain over limbs held in an array: rounds every limb into
   [-2^25, 2^25] (even) or [-2^24, 2^24] (odd). *)
let carry_into r =
  carry_store r (Array.unsafe_get r 0) (Array.unsafe_get r 1) (Array.unsafe_get r 2)
    (Array.unsafe_get r 3) (Array.unsafe_get r 4) (Array.unsafe_get r 5)
    (Array.unsafe_get r 6) (Array.unsafe_get r 7) (Array.unsafe_get r 8)
    (Array.unsafe_get r 9)

(* fe_mul. Every h_i is a sum of ten products; with inputs bounded by
   1.65 * 2^26 per limb (a sum or difference of up to three carried
   elements) |h_i| <= 1.4 * 2^60, inside OCaml's 63-bit int. [h] may
   alias [f] or [g]: every input limb is read before the first write. *)
let mul_into h f g =
  let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1
  and f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3
  and f4 = Array.unsafe_get f 4 and f5 = Array.unsafe_get f 5
  and f6 = Array.unsafe_get f 6 and f7 = Array.unsafe_get f 7
  and f8 = Array.unsafe_get f 8 and f9 = Array.unsafe_get f 9 in
  let g0 = Array.unsafe_get g 0 and g1 = Array.unsafe_get g 1
  and g2 = Array.unsafe_get g 2 and g3 = Array.unsafe_get g 3
  and g4 = Array.unsafe_get g 4 and g5 = Array.unsafe_get g 5
  and g6 = Array.unsafe_get g 6 and g7 = Array.unsafe_get g 7
  and g8 = Array.unsafe_get g 8 and g9 = Array.unsafe_get g 9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3
  and g4_19 = 19 * g4 and g5_19 = 19 * g5 and g6_19 = 19 * g6
  and g7_19 = 19 * g7 and g8_19 = 19 * g8 and g9_19 = 19 * g9 in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5
  and f7_2 = 2 * f7 and f9_2 = 2 * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19)
    + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19)
  and h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19)
    + (f5 * g6_19) + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  and h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19)
    + (f5_2 * g7_19) + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19)
  and h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19)
    + (f5 * g8_19) + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  and h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0)
    + (f5_2 * g9_19) + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19)
  and h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1)
    + (f5 * g0) + (f6 * g9_19) + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  and h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2)
    + (f5_2 * g1) + (f6 * g0) + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  and h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3)
    + (f5 * g2) + (f6 * g1) + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19)
  and h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4)
    + (f5_2 * g3) + (f6 * g2) + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  and h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5)
    + (f5 * g4) + (f6 * g3) + (f7 * g2) + (f8 * g1) + (f9 * g0)
  in
  carry_store h h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* fe_sq and fe_sq2: the off-diagonal products appear twice, so 55
   multiplies instead of 100. [dbl] doubles the result before carrying. *)
let sq_gen h f dbl =
  let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1
  and f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3
  and f4 = Array.unsafe_get f 4 and f5 = Array.unsafe_get f 5
  and f6 = Array.unsafe_get f 6 and f7 = Array.unsafe_get f 7
  and f8 = Array.unsafe_get f 8 and f9 = Array.unsafe_get f 9 in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3
  and f4_2 = 2 * f4 and f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 in
  let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7
  and f8_19 = 19 * f8 and f9_38 = 38 * f9 in
  let h0 =
    (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19)
    + (f5 * f5_38)
  and h1 = (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19)
  and h2 =
    (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38)
    + (f6 * f6_19)
  and h3 = (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38)
  and h4 =
    (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19)
    + (f7 * f7_38)
  and h5 = (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19)
  and h6 =
    (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38)
    + (f8 * f8_19)
  and h7 = (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38)
  and h8 =
    (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4)
    + (f9 * f9_38)
  and h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5) in
  let s = if dbl then 1 else 0 in
  carry_store h (h0 lsl s) (h1 lsl s) (h2 lsl s) (h3 lsl s) (h4 lsl s) (h5 lsl s)
    (h6 lsl s) (h7 lsl s) (h8 lsl s) (h9 lsl s)

let sq_into h f = sq_gen h f false
let sq2_into h f = sq_gen h f true

(* fe_mul121666: the X25519 ladder's (A + 2) / 4 constant, as one carry
   pass over the scaled limbs. *)
let mul121666_into h f =
  for i = 0 to limbs - 1 do
    Array.unsafe_set h i (121666 * Array.unsafe_get f i)
  done;
  carry_into h

(* fe_frombytes: the low 255 bits, split at the limb boundaries, then
   carried. The value is taken mod 2^255, not mod p: an encoding of
   p + 1 decodes to 1, so strict decoders compare the re-encoding. *)
let of_bytes s =
  if String.length s <> 32 then invalid_arg "Fe25519.of_bytes";
  let h = zero () in
  let pos = ref 0 in
  for i = 0 to limbs - 1 do
    let width = if i land 1 = 0 then 26 else 25 in
    let byte = !pos lsr 3 and off = !pos land 7 in
    let v = ref 0 in
    for k = 3 downto 0 do
      if byte + k < 32 then v := (!v lsl 8) lor Char.code (String.unsafe_get s (byte + k))
      else v := !v lsl 8
    done;
    h.(i) <- (!v lsr off) land ((1 lsl width) - 1);
    pos := !pos + width
  done;
  carry_into h;
  h

(* The fully reduced value in [0, p) as non-negative limbs (fe_tobytes
   before packing). q is floor(h / p) for a carried h; the final chain
   subtracts q p and drops the 2^255 overflow. *)
let canonical_into r a =
  copy_into r a;
  carry_into r;
  let q = ((19 * r.(9)) + (1 lsl 24)) asr 25 in
  let q = ref q in
  for i = 0 to limbs - 1 do
    q := (r.(i) + !q) asr (if i land 1 = 0 then 26 else 25)
  done;
  r.(0) <- r.(0) + (19 * !q);
  for i = 0 to limbs - 1 do
    let bits = if i land 1 = 0 then 26 else 25 in
    let c = r.(i) asr bits in
    r.(i) <- r.(i) - (c lsl bits);
    if i < limbs - 1 then r.(i + 1) <- r.(i + 1) + c
  done

let to_bytes a =
  let r = zero () in
  canonical_into r a;
  let out = Bytes.create 32 in
  let acc = ref 0 and nbits = ref 0 and n = ref 0 in
  for i = 0 to limbs - 1 do
    acc := !acc lor (r.(i) lsl !nbits);
    nbits := !nbits + if i land 1 = 0 then 26 else 25;
    while !nbits >= 8 do
      Bytes.unsafe_set out !n (Char.unsafe_chr (!acc land 0xff));
      incr n;
      acc := !acc lsr 8;
      nbits := !nbits - 8
    done
  done;
  (* 255 bits: the last 7 land in byte 31. *)
  Bytes.unsafe_set out 31 (Char.unsafe_chr !acc);
  Bytes.unsafe_to_string out

let is_zero a =
  let r = zero () in
  canonical_into r a;
  Array.for_all (fun x -> x = 0) r

let is_negative a =
  let r = zero () in
  canonical_into r a;
  r.(0) land 1 = 1

let equal a b =
  let d = zero () in
  sub_into d a b;
  is_zero d

(* z^(2^250 - 1) into [out] and z^11 into [z11]: the shared prefix of the
   inversion and square-root addition chains. *)
let pow2_250_1 ~out ~z11 z =
  let t0 = zero () and t1 = zero () and t2 = zero () in
  let sq_n r n =
    for _ = 1 to n do
      sq_into r r
    done
  in
  sq_into t0 z;                (* z^2 *)
  sq_into t1 t0;
  sq_into t1 t1;               (* z^8 *)
  mul_into t1 z t1;            (* z^9 *)
  mul_into z11 t0 t1;          (* z^11 *)
  sq_into t0 z11;              (* z^22 *)
  mul_into t0 t1 t0;           (* z^(2^5 - 1) *)
  sq_into t1 t0; sq_n t1 4;
  mul_into t0 t1 t0;           (* z^(2^10 - 1) *)
  sq_into t1 t0; sq_n t1 9;
  mul_into t1 t1 t0;           (* z^(2^20 - 1) *)
  sq_into t2 t1; sq_n t2 19;
  mul_into t1 t2 t1;           (* z^(2^40 - 1) *)
  sq_n t1 10;
  mul_into t0 t1 t0;           (* z^(2^50 - 1) *)
  sq_into t1 t0; sq_n t1 49;
  mul_into t1 t1 t0;           (* z^(2^100 - 1) *)
  sq_into t2 t1; sq_n t2 99;
  mul_into t1 t2 t1;           (* z^(2^200 - 1) *)
  sq_n t1 50;
  mul_into out t1 t0           (* z^(2^250 - 1) *)

(* z^(p - 2) = z^(2^255 - 21): 254 squarings and 11 multiplications. *)
let invert_into r z =
  let t = zero () and z11 = zero () in
  pow2_250_1 ~out:t ~z11 z;
  for _ = 1 to 5 do
    sq_into t t
  done;
  mul_into r t z11

(* z^((p - 5) / 8) = z^(2^252 - 3), the exponent of the square-root
   candidate. *)
let pow22523_into r z =
  let t = zero () and z11 = zero () in
  pow2_250_1 ~out:t ~z11 z;
  sq_into t t;
  sq_into t t;
  mul_into r t z

let mul a b =
  let r = zero () in
  mul_into r a b;
  r

let add a b =
  let r = zero () in
  add_into r a b;
  carry_into r;
  r

let sub a b =
  let r = zero () in
  sub_into r a b;
  carry_into r;
  r

let neg a = sub (zero ()) a

let invert a =
  let r = zero () in
  invert_into r a;
  r

(* sqrt(-1) = 2^((p - 1) / 4) = (2^((p - 5) / 8))^2 * 2. *)
let sqrt_m1 =
  let two = of_int 2 in
  let r = zero () in
  pow22523_into r two;
  sq_into r r;
  mul_into r r two;
  r

(* x = sqrt(u / v) without a separate inversion: the candidate
   u v^3 (u v^7)^((p - 5) / 8) squares to +-u/v; a -u/v root is fixed up
   by sqrt(-1). *)
let sqrt_ratio_into x ~u ~v =
  let v3 = zero () and t = zero () in
  sq_into v3 v;
  mul_into v3 v3 v;             (* v^3 *)
  sq_into t v3;
  mul_into t t v;
  mul_into t t u;               (* u v^7 *)
  pow22523_into t t;
  mul_into t t v3;
  mul_into x t u;               (* u v^3 (u v^7)^((p - 5) / 8) *)
  sq_into t x;
  mul_into t t v;               (* v x^2 *)
  if equal t u then true
  else begin
    add_into t t u;
    if is_zero t then begin
      mul_into x x sqrt_m1;
      true
    end
    else false
  end
