(* Reference Ed25519 and X25519 for the oracle tests, on Fe25519_ref:
   the earlier bit-serial double-and-add verify, a 64 x 15 extended-point
   base table, Bigint scalars mod L and a ladder that allocates every
   rung. Its decoding is lax (y >= p and small-order points pass), which
   the strictness tests rely on only to show what the library rejects. *)

open Apna_crypto

(* Twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19),
   points in extended homogeneous coordinates (X : Y : Z : T), XY = ZT.
   The unified addition formulas below are complete for this curve, so
   doubling reuses addition — slower than dedicated doubling but removes an
   entire class of formula-transcription bugs. *)

module Fe = Fe25519_ref

let d_const =
  (* d = -121665 / 121666 mod p *)
  Fe.mul (Fe.neg (Fe.of_int 121665)) (Fe.invert (Fe.of_int 121666))

let d2_const = Fe.add d_const d_const

type point = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

let identity () = { x = Fe.zero (); y = Fe.one (); z = Fe.one (); t = Fe.zero () }

let add p q =
  let a = Fe.mul (Fe.sub p.y p.x) (Fe.sub q.y q.x) in
  let b = Fe.mul (Fe.add p.y p.x) (Fe.add q.y q.x) in
  let c = Fe.mul (Fe.mul p.t d2_const) q.t in
  let d = Fe.mul_small (Fe.mul p.z q.z) 2 in
  let e = Fe.sub b a in
  let f = Fe.sub d c in
  let g = Fe.add d c in
  let h = Fe.add b a in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

(* Dedicated doubling (dbl-2008-hwcd, a = -1): cheaper than the unified
   addition and used on every rung of the double-and-add ladders. *)
let double p =
  let a = Fe.sq p.x in
  let b = Fe.sq p.y in
  let c = Fe.mul_small (Fe.sq p.z) 2 in
  let d = Fe.neg a in
  let xy2 = Fe.sq (Fe.add p.x p.y) in
  let e = Fe.sub (Fe.sub xy2 a) b in
  let g = Fe.add d b in
  let f = Fe.sub g c in
  let h = Fe.sub d b in
  { x = Fe.mul e f; y = Fe.mul g h; z = Fe.mul f g; t = Fe.mul e h }

let compress p =
  let zinv = Fe.invert p.z in
  let x = Fe.mul p.x zinv and y = Fe.mul p.y zinv in
  let b = Bytes.of_string (Fe.to_bytes y) in
  if Fe.is_negative x then
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  Bytes.unsafe_to_string b

let decompress s =
  if String.length s <> 32 then None
  else begin
    let sign = Char.code s.[31] lsr 7 in
    let y = Fe.of_bytes s in
    (* x^2 = (y^2 - 1) / (d y^2 + 1) *)
    let y2 = Fe.sq y in
    let u = Fe.sub y2 (Fe.one ()) in
    let v = Fe.add (Fe.mul d_const y2) (Fe.one ()) in
    match Fe.sqrt (Fe.mul u (Fe.invert v)) with
    | None -> None
    | Some x ->
        if Fe.is_zero x && sign = 1 then None
        else begin
          let x = if Fe.is_negative x <> (sign = 1) then Fe.neg x else x in
          Some { x; y; z = Fe.one (); t = Fe.mul x y }
        end
  end

let point_equal p q =
  (* (X1/Z1 = X2/Z2) and (Y1/Z1 = Y2/Z2), cross-multiplied. *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z)
  && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

let scalar_mul scalar p =
  (* Little-endian double-and-add over a 32-byte scalar. *)
  let acc = ref (identity ()) and base = ref p in
  for i = 0 to 255 do
    if Char.code scalar.[i / 8] land (1 lsl (i mod 8)) <> 0 then
      acc := add !acc !base;
    base := double !base
  done;
  !acc

let base_point =
  (* B = (x, 4/5) with x even. *)
  let y = Fe.mul (Fe.of_int 4) (Fe.invert (Fe.of_int 5)) in
  let b = Bytes.of_string (Fe.to_bytes y) in
  match decompress (Bytes.unsafe_to_string b) with
  | Some p -> p
  | None -> assert false

(* 4-bit fixed-window table for the base point, precomputed once:
   window.(i).(d-1) = d * 2^(4i) * B, so a base multiplication costs at
   most 64 additions and no doublings. *)
let base_window =
  lazy
    (let windows = 64 and digits = 15 in
     let tbl = Array.make_matrix windows digits base_point in
     let unit = ref base_point in
     for i = 0 to windows - 1 do
       tbl.(i).(0) <- !unit;
       for d = 1 to digits - 1 do
         tbl.(i).(d) <- add tbl.(i).(d - 1) !unit
       done;
       for _ = 1 to 4 do
         unit := double !unit
       done
     done;
     tbl)

let scalar_mul_base scalar =
  let tbl = Lazy.force base_window in
  let acc = ref (identity ()) in
  for i = 0 to 63 do
    let byte = Char.code scalar.[i / 2] in
    let digit = if i land 1 = 0 then byte land 0xf else byte lsr 4 in
    if digit > 0 then acc := add !acc tbl.(i).(digit - 1)
  done;
  !acc

(* Scalar arithmetic modulo the group order
   L = 2^252 + 27742317777372353535851937790883648493. *)
let l_order =
  Bigint.add
    (Bigint.shift_left Bigint.one 252)
    (Bigint.of_decimal "27742317777372353535851937790883648493")

let reduce_mod_l bytes = Bigint.rem (Bigint.of_bytes_le bytes) l_order
let scalar_bytes n = Bigint.to_bytes_le n 32

type keypair = { seed : string; secret_scalar : string; prefix : string; pub : string }

let clamp_scalar h =
  let b = Bytes.of_string (String.sub h 0 32) in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 63 lor 64));
  Bytes.unsafe_to_string b

let keypair_of_seed seed =
  if String.length seed <> 32 then invalid_arg "Ed25519.keypair_of_seed";
  let h = Sha512.digest seed in
  let secret_scalar = clamp_scalar h in
  let prefix = String.sub h 32 32 in
  let pub = compress (scalar_mul_base secret_scalar) in
  { seed; secret_scalar; prefix; pub }

let public_key kp = kp.pub

let sign kp msg =
  let r = reduce_mod_l (Sha512.digest_list [ kp.prefix; msg ]) in
  let r_bytes = scalar_bytes r in
  let r_point = compress (scalar_mul_base r_bytes) in
  let k = reduce_mod_l (Sha512.digest_list [ r_point; kp.pub; msg ]) in
  let a = Bigint.of_bytes_le kp.secret_scalar in
  let s = Bigint.rem (Bigint.add r (Bigint.mul k a)) l_order in
  r_point ^ scalar_bytes s

let verify ~pub ~msg ~signature =
  if String.length signature <> 64 || String.length pub <> 32 then false
  else begin
    let r_bytes = String.sub signature 0 32 in
    let s_bytes = String.sub signature 32 32 in
    let s = Bigint.of_bytes_le s_bytes in
    if Bigint.compare s l_order >= 0 then false
    else
      match (decompress pub, decompress r_bytes) with
      | Some a, Some r ->
          let k = scalar_bytes (reduce_mod_l (Sha512.digest_list [ r_bytes; pub; msg ])) in
          (* s B = R + k A *)
          let lhs = scalar_mul_base (scalar_bytes s) in
          let rhs = add r (scalar_mul k a) in
          point_equal lhs rhs
      | _ -> false
  end

let x25519_clamp scalar =
  let b = Bytes.of_string scalar in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bytes.unsafe_to_string b

(* RFC 7748 Montgomery ladder on the u-coordinate. Branching on scalar bits
   is acceptable here: see the side-channel note in {!Fe25519}. *)
let x25519 ~scalar ~point =
  if String.length scalar <> 32 || String.length point <> 32 then
    invalid_arg "Curve25519_ref.x25519: key size";
  let k = x25519_clamp scalar in
  let x1 = Fe.of_bytes point in
  let x2 = ref (Fe.one ()) and z2 = ref (Fe.zero ()) in
  let x3 = ref (Fe.copy x1) and z3 = ref (Fe.one ()) in
  let swap = ref 0 in
  for t = 254 downto 0 do
    let kt = (Char.code k.[t / 8] lsr (t mod 8)) land 1 in
    if !swap lxor kt = 1 then begin
      let tx = !x2 and tz = !z2 in
      x2 := !x3;
      z2 := !z3;
      x3 := tx;
      z3 := tz
    end;
    swap := kt;
    let a = Fe.add !x2 !z2 in
    let aa = Fe.sq a in
    let b = Fe.sub !x2 !z2 in
    let bb = Fe.sq b in
    let e = Fe.sub aa bb in
    let c = Fe.add !x3 !z3 in
    let d = Fe.sub !x3 !z3 in
    let da = Fe.mul d a in
    let cb = Fe.mul c b in
    let sum = Fe.add da cb in
    let diff = Fe.sub da cb in
    x3 := Fe.sq sum;
    z3 := Fe.mul x1 (Fe.sq diff);
    x2 := Fe.mul aa bb;
    z2 := Fe.mul e (Fe.add aa (Fe.mul_small e 121665))
  done;
  if !swap = 1 then begin
    x2 := !x3;
    z2 := !z3
  end;
  Fe.to_bytes (Fe.mul !x2 (Fe.invert !z2))
