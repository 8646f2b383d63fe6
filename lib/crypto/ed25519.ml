(* Ed25519 (RFC 8032) over {!Edwards25519} points and {!Scalar25519}
   scalars. *)

module Ge = Edwards25519

let public_key_size = 32
let signature_size = 64

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
  let pub = Ge.encode (Ge.scalar_mul_base secret_scalar) in
  { seed; secret_scalar; prefix; pub }

let generate rng = keypair_of_seed (Drbg.generate rng 32)
let public_key kp = kp.pub
let seed kp = kp.seed

let sign kp msg =
  let r = Scalar25519.reduce (Sha512.digest_list [ kp.prefix; msg ]) in
  let r_point = Ge.encode (Ge.scalar_mul_base r) in
  let k = Scalar25519.reduce (Sha512.digest_list [ r_point; kp.pub; msg ]) in
  r_point ^ Scalar25519.muladd k kp.secret_scalar r

(* A public key A must decode strictly and must not lie in the small-order
   subgroup. *)
let decode_key pub =
  match Ge.decode pub with
  | Some a when not (Ge.is_small_order a) -> Some a
  | _ -> None

(* Cofactorless verification, sB = R + kA, checked as R = sB - kA. R must
   decode strictly and must not be of small order; s must be below L.
   [equation k s r] decides whether sB - kA = R. *)
let check_signature ~pub ~msg ~signature equation =
  String.length signature = 64
  &&
  let r_bytes = String.sub signature 0 32 and s = String.sub signature 32 32 in
  Scalar25519.is_canonical s
  &&
  match Ge.decode r_bytes with
  | Some r when not (Ge.is_small_order r) ->
      equation (Scalar25519.reduce (Sha512.digest_list [ r_bytes; pub; msg ])) s r
  | _ -> false

(* One joint double-scalar multiplication. *)
let verify ~pub ~msg ~signature =
  match decode_key pub with
  | Some a ->
      check_signature ~pub ~msg ~signature (fun k s r ->
          Ge.equal (Ge.double_scalar_mul k (Ge.neg a) s) r)
  | None -> false

(* A trust-anchor key, decoded and checked once, with a comb for -A. Eight
   rows keep the table at ~2,460 words per key, a quarter of a 32-row
   comb, for 24 more doublings per walk (DESIGN.md, "Curve arithmetic"). *)
type prepared = { pub_bytes : string; neg_a : Ge.comb }

let prepared_rows = 8

let prepare pub =
  Option.map
    (fun a -> { pub_bytes = pub; neg_a = Ge.comb_table ~rows:prepared_rows (Ge.neg a) })
    (decode_key pub)

(* sB and k(-A) as two comb walks, in place of one doubling chain. *)
let verify_prepared key ~msg ~signature =
  check_signature ~pub:key.pub_bytes ~msg ~signature (fun k s r ->
      Ge.equal (Ge.add (Ge.scalar_mul_base s) (Ge.comb_mul key.neg_a k)) r)
