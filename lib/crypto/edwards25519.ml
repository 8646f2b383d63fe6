(* Twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19),
   with ref10's point forms and formulas (ge_*.c). One record serves as
   ge_p2 (X : Y : Z, t unused), ge_p3 (X : Y : Z : T, XY = ZT) and
   ge_p1p1 ((X : Z), (Y : T)), the unreduced output of an addition or
   doubling. Every step below writes into a caller-owned record that is
   distinct from its inputs, with [t0] as field scratch, and allocates
   nothing. *)

module Fe = Fe25519

type point = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

(* ge_precomp: an affine point as (y + x, y - x, 2dxy), for mixed
   addition. *)
type precomp = { yplusx : Fe.t; yminusx : Fe.t; xy2d : Fe.t }

(* ge_cached: (Y + X, Y - X, Z, 2dT), for general addition. *)
type cached = { ypx : Fe.t; ymx : Fe.t; cz : Fe.t; t2d : Fe.t }

let create () = { x = Fe.zero (); y = Fe.zero (); z = Fe.zero (); t = Fe.zero () }
let identity () = { x = Fe.zero (); y = Fe.one (); z = Fe.one (); t = Fe.zero () }

let create_cached () =
  { ypx = Fe.zero (); ymx = Fe.zero (); cz = Fe.zero (); t2d = Fe.zero () }

(* d = -121665 / 121666 *)
let d = Fe.mul (Fe.neg (Fe.of_int 121665)) (Fe.invert (Fe.of_int 121666))
let d2 = Fe.add d d

(* ge_p2_dbl: r (p1p1) <- 2p, reading p.x, p.y and p.z only. *)
let dbl r p t0 =
  Fe.sq_into r.x p.x;
  Fe.sq_into r.z p.y;
  Fe.sq2_into r.t p.z;
  Fe.add_into r.y p.x p.y;
  Fe.sq_into t0 r.y;
  Fe.add_into r.y r.z r.x;
  Fe.sub_into r.z r.z r.x;
  Fe.sub_into r.x t0 r.y;
  Fe.sub_into r.t r.t r.z

(* ge_p1p1_to_p2 and ge_p1p1_to_p3. *)
let to_p2 r p =
  Fe.mul_into r.x p.x p.t;
  Fe.mul_into r.y p.y p.z;
  Fe.mul_into r.z p.z p.t

let to_p3 r p =
  to_p2 r p;
  Fe.mul_into r.t p.x p.y

let to_cached c p =
  Fe.add_into c.ypx p.y p.x;
  Fe.sub_into c.ymx p.y p.x;
  Fe.copy_into c.cz p.z;
  Fe.mul_into c.t2d p.t d2

(* ge_add (sub = false) and ge_sub (sub = true): r (p1p1) <- p (p3) +- q. *)
let add r p q ~sub t0 =
  Fe.add_into r.x p.y p.x;
  Fe.sub_into r.y p.y p.x;
  Fe.mul_into r.z r.x (if sub then q.ymx else q.ypx);
  Fe.mul_into r.y r.y (if sub then q.ypx else q.ymx);
  Fe.mul_into r.t q.t2d p.t;
  Fe.mul_into r.x p.z q.cz;
  Fe.add_into t0 r.x r.x;
  Fe.sub_into r.x r.z r.y;
  Fe.add_into r.y r.z r.y;
  if sub then begin
    Fe.sub_into r.z t0 r.t;
    Fe.add_into r.t t0 r.t
  end
  else begin
    Fe.add_into r.z t0 r.t;
    Fe.sub_into r.t t0 r.t
  end

(* ge_madd and ge_msub: r (p1p1) <- p (p3) +- q (precomp). *)
let madd r p q ~sub t0 =
  Fe.add_into r.x p.y p.x;
  Fe.sub_into r.y p.y p.x;
  Fe.mul_into r.z r.x (if sub then q.yminusx else q.yplusx);
  Fe.mul_into r.y r.y (if sub then q.yplusx else q.yminusx);
  Fe.mul_into r.t q.xy2d p.t;
  Fe.add_into t0 p.z p.z;
  Fe.sub_into r.x r.z r.y;
  Fe.add_into r.y r.z r.y;
  if sub then begin
    Fe.sub_into r.z t0 r.t;
    Fe.add_into r.t t0 r.t
  end
  else begin
    Fe.add_into r.z t0 r.t;
    Fe.sub_into r.t t0 r.t
  end

let encode p =
  let zinv = Fe.invert p.z in
  let x = Fe.mul p.x zinv and y = Fe.mul p.y zinv in
  let b = Bytes.of_string (Fe.to_bytes y) in
  if Fe.is_negative x then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  Bytes.unsafe_to_string b

(* RFC 8032 §5.1.3, strictly: y must be below p, and x = 0 must not come
   with the sign bit set. x^2 = (y^2 - 1) / (d y^2 + 1). *)
let decode s =
  if String.length s <> 32 then None
  else begin
    let sign = Char.code s.[31] lsr 7 in
    let y = Fe.of_bytes s in
    let unsigned =
      String.mapi (fun i c -> if i = 31 then Char.chr (Char.code c land 0x7f) else c) s
    in
    if Fe.to_bytes y <> unsigned then None
    else begin
      let u = Fe.zero () and v = Fe.zero () and x = Fe.zero () in
      Fe.sq_into u y;
      Fe.mul_into v u d;
      let one = Fe.one () in
      Fe.sub_into u u one;
      Fe.add_into v v one;
      if not (Fe.sqrt_ratio_into x ~u ~v) then None
      else if Fe.is_zero x && sign = 1 then None
      else begin
        if Fe.is_negative x <> (sign = 1) then Fe.neg_into x x;
        let t = Fe.zero () in
        Fe.mul_into t x y;
        Some { x; y; z = one; t }
      end
    end
  end

let neg p =
  let r = { x = Fe.zero (); y = Fe.copy p.y; z = Fe.copy p.z; t = Fe.zero () } in
  Fe.neg_into r.x p.x;
  Fe.neg_into r.t p.t;
  r

(* (X1/Z1 = X2/Z2) and (Y1/Z1 = Y2/Z2), cross-multiplied; reads x, y, z
   only, so either side may be a p2. *)
let equal p q =
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z) && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

(* 8p is the identity exactly when p lies in the torsion subgroup of
   order 1, 2, 4 or 8. *)
let is_small_order p =
  let r = create () and s = create () and t0 = Fe.zero () in
  dbl r p t0;
  to_p2 s r;
  dbl r s t0;
  to_p2 s r;
  dbl r s t0;
  to_p2 s r;
  Fe.is_zero s.x && Fe.equal s.y s.z

(* The Montgomery u-coordinate (Z + Y) / (Z - Y) of p, encoded: the
   birational map from edwards25519 to curve25519. *)
let montgomery_u p =
  let n = Fe.zero () and dn = Fe.zero () in
  Fe.add_into n p.z p.y;
  Fe.sub_into dn p.z p.y;
  Fe.invert_into dn dn;
  Fe.mul_into n n dn;
  Fe.to_bytes n

(* Allocating p3 + p3, for building the tables below. *)
let add_p3 p q =
  let c = create_cached () and r = create () and out = create () in
  to_cached c q;
  add r p c ~sub:false (Fe.zero ());
  to_p3 out r;
  out

let dbl_p3 p =
  let r = create () and out = create () in
  dbl r p (Fe.zero ());
  to_p3 out r;
  out

let precomp_of p =
  let zinv = Fe.invert p.z in
  let x = Fe.mul p.x zinv and y = Fe.mul p.y zinv in
  { yplusx = Fe.add y x; yminusx = Fe.sub y x; xy2d = Fe.mul (Fe.mul x y) d2 }

let base =
  (* B = (x, 4/5) with x even. *)
  match decode (Fe.to_bytes (Fe.mul (Fe.of_int 4) (Fe.invert (Fe.of_int 5)))) with
  | Some p -> p
  | None -> assert false

(* ref10's fixed-base table: row i holds (j + 1) 256^i B for j = 0..7,
   in precomp form. 32 x 8 points of three 10-limb elements, ~75 KB. *)
let base_table =
  lazy
    (let row = ref base in
     Array.init 32 (fun _ ->
         let unit = !row in
         let mults = Array.make 8 unit in
         for j = 1 to 7 do
           mults.(j) <- add_p3 mults.(j - 1) unit
         done;
         for _ = 1 to 8 do
           row := dbl_p3 !row
         done;
         Array.map precomp_of mults))

(* B, 3B, 5B, ..., 15B in precomp form: the fixed operand of
   {!double_scalar_mul}. *)
let base_odd =
  lazy
    (let b2 = dbl_p3 base in
     let mults = Array.make 8 base in
     for j = 1 to 7 do
       mults.(j) <- add_p3 mults.(j - 1) b2
     done;
     Array.map precomp_of mults)

(* ge_scalarmult_base: a = sum e_i 16^i with signed digits e_i in
   [-8, 8], so aB = sum over odd i + 16 * (sum over even i), one mixed
   addition per non-zero digit and four doublings in all. Requires
   a[31] <= 127. *)
let scalar_mul_base a =
  if String.length a <> 32 || Char.code a.[31] > 127 then
    invalid_arg "Edwards25519.scalar_mul_base";
  let tbl = Lazy.force base_table in
  let e = Array.make 64 0 in
  for i = 0 to 31 do
    let byte = Char.code a.[i] in
    e.(2 * i) <- byte land 15;
    e.((2 * i) + 1) <- byte lsr 4
  done;
  let carry = ref 0 in
  for i = 0 to 62 do
    let v = e.(i) + !carry in
    carry := (v + 8) asr 4;
    e.(i) <- v - (!carry lsl 4)
  done;
  e.(63) <- e.(63) + !carry;
  let h = identity () and r = create () and s = create () and t0 = Fe.zero () in
  let madd_digit i =
    let digit = e.(i) in
    if digit <> 0 then begin
      let row = tbl.(i / 2) in
      madd r h row.(abs digit - 1) ~sub:(digit < 0) t0;
      to_p3 h r
    end
  in
  for k = 0 to 31 do
    madd_digit ((2 * k) + 1)
  done;
  dbl r h t0;
  to_p2 s r;
  dbl r s t0;
  to_p2 s r;
  dbl r s t0;
  to_p2 s r;
  dbl r s t0;
  to_p3 h r;
  for k = 0 to 31 do
    madd_digit (2 * k)
  done;
  h

(* ref10's slide: a width-5 signed-digit recoding with odd digits in
   [-15, 15] and at least four zeros after each non-zero digit. *)
let slide a =
  let r = Array.init 256 (fun i -> (Char.code a.[i lsr 3] lsr (i land 7)) land 1) in
  for i = 0 to 255 do
    if r.(i) <> 0 then begin
      let b = ref 1 and stop = ref false in
      while (not !stop) && !b <= 6 && i + !b < 256 do
        let rb = r.(i + !b) lsl !b in
        if rb <> 0 then begin
          if r.(i) + rb <= 15 then begin
            r.(i) <- r.(i) + rb;
            r.(i + !b) <- 0
          end
          else if r.(i) - rb >= -15 then begin
            r.(i) <- r.(i) - rb;
            let k = ref (i + !b) in
            while !k < 256 && r.(!k) <> 0 do
              r.(!k) <- 0;
              incr k
            done;
            if !k < 256 then r.(!k) <- 1
          end
          else stop := true
        end;
        incr b
      done
    end
  done;
  r

(* ge_double_scalarmult_vartime: aA + bB by Straus-Shamir over the two
   slid scalars, sharing one chain of doublings. A's odd multiples are
   built per call (eight cached points), B's come from a table. *)
let double_scalar_mul a pa b =
  let aslide = slide a and bslide = slide b in
  let bi = Lazy.force base_odd in
  let t = create () and u = create () and r = create () and t0 = Fe.zero () in
  let ai = Array.init 8 (fun _ -> create_cached ()) in
  to_cached ai.(0) pa;
  dbl t pa t0;
  let a2 = create () in
  to_p3 a2 t;
  for j = 1 to 7 do
    add t a2 ai.(j - 1) ~sub:false t0;
    to_p3 u t;
    to_cached ai.(j) u
  done;
  Fe.copy_into r.x (Fe.zero ());
  Fe.copy_into r.y (Fe.one ());
  Fe.copy_into r.z (Fe.one ());
  let top = ref 255 in
  while !top >= 0 && aslide.(!top) = 0 && bslide.(!top) = 0 do
    decr top
  done;
  for i = !top downto 0 do
    dbl t r t0;
    let da = aslide.(i) and db = bslide.(i) in
    if da <> 0 then begin
      to_p3 u t;
      add t u ai.(abs da / 2) ~sub:(da < 0) t0
    end;
    if db <> 0 then begin
      to_p3 u t;
      madd t u bi.(abs db / 2) ~sub:(db < 0) t0
    end;
    to_p2 r t
  done;
  r
