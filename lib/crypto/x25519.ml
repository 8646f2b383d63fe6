module Fe = Fe25519

let key_size = 32

let clamp scalar =
  let b = Bytes.of_string scalar in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bytes.unsafe_to_string b

(* RFC 7748 Montgomery ladder on the u-coordinate, as ref10's
   crypto_scalarmult: every rung reuses the same seven field elements.
   The swap is masked rather than branched, but nothing here is
   constant-time: see the side-channel note in {!Fe25519}. *)
let scalar_mult ~scalar ~point =
  if String.length scalar <> 32 || String.length point <> 32 then
    invalid_arg "X25519.scalar_mult: key size";
  let k = clamp scalar in
  let x1 = Fe.of_bytes point in
  let x2 = Fe.one () and z2 = Fe.zero () and x3 = Fe.copy x1 and z3 = Fe.one () in
  let tmp0 = Fe.zero () and tmp1 = Fe.zero () in
  let swap = ref 0 in
  for pos = 254 downto 0 do
    let b = (Char.code k.[pos lsr 3] lsr (pos land 7)) land 1 in
    Fe.cswap x2 x3 (!swap lxor b);
    Fe.cswap z2 z3 (!swap lxor b);
    swap := b;
    Fe.sub_into tmp0 x3 z3;        (* D = x3 - z3 *)
    Fe.sub_into tmp1 x2 z2;        (* B = x2 - z2 *)
    Fe.add_into x2 x2 z2;          (* A = x2 + z2 *)
    Fe.add_into z2 x3 z3;          (* C = x3 + z3 *)
    Fe.mul_into z3 tmp0 x2;        (* DA *)
    Fe.mul_into z2 z2 tmp1;        (* CB *)
    Fe.sq_into tmp0 tmp1;          (* BB *)
    Fe.sq_into tmp1 x2;            (* AA *)
    Fe.add_into x3 z3 z2;          (* DA + CB *)
    Fe.sub_into z2 z3 z2;          (* DA - CB *)
    Fe.mul_into x2 tmp1 tmp0;      (* x2 = AA BB *)
    Fe.sub_into tmp1 tmp1 tmp0;    (* E = AA - BB *)
    Fe.sq_into z2 z2;
    Fe.mul121666_into z3 tmp1;
    Fe.sq_into x3 x3;              (* x3 = (DA + CB)^2 *)
    Fe.add_into tmp0 tmp0 z3;      (* BB + 121666 E = AA + 121665 E *)
    Fe.mul_into z3 x1 z2;          (* z3 = x1 (DA - CB)^2 *)
    Fe.mul_into z2 tmp1 tmp0       (* z2 = E (AA + 121665 E) *)
  done;
  Fe.cswap x2 x3 !swap;
  Fe.cswap z2 z3 !swap;
  Fe.invert_into z2 z2;
  Fe.mul_into x2 x2 z2;
  Fe.to_bytes x2

(* The fixed base point u = 9 corresponds to the Ed25519 base point, so
   k * 9 is the Montgomery u-coordinate of kB: a fixed-base table walk
   instead of a 255-rung ladder (libsodium does the same). The clamped
   scalar is a non-zero multiple of 8 below 8L, so kB is never the
   identity. *)
let public_of_secret sk =
  if String.length sk <> 32 then invalid_arg "X25519.public_of_secret: key size";
  Edwards25519.montgomery_u (Edwards25519.scalar_mul_base (clamp sk))

let shared_secret ~secret ~peer =
  let out = scalar_mult ~scalar:secret ~point:peer in
  if String.for_all (fun c -> c = '\000') out then
    Error "x25519: low-order peer point"
  else Ok out

let generate rng =
  let sk = Drbg.generate rng 32 in
  (sk, public_of_secret sk)
