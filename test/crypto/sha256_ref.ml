(* Reference SHA-256 for the kernel oracle tests: the readable
   compression loop, written straight from FIPS 180-4 §6.2.2 with
   bounds-checked reads and a mask on every rotation, and a one-shot
   digest built on it. Slow and obviously right; lib/crypto/sha256.ml
   must agree with it bit for bit. *)

let mask = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* [compress h block off] folds the 64 bytes at [block.(off)] into the
   8 chaining words [h]. *)
let compress h block off =
  let w = Array.make 64 0 in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code (Bytes.get block (off + (4 * t))) lsl 24)
      lor (Char.code (Bytes.get block (off + (4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.get block (off + (4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.get block (off + (4 * t) + 3))
  done;
  for t = 16 to 63 do
    let s0 =
      let x = w.(t - 15) in
      rotr x 7 lxor rotr x 18 lxor (x lsr 3)
    in
    let s1 =
      let x = w.(t - 2) in
      rotr x 17 lxor rotr x 19 lxor (x lsr 10)
    in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + Apna_crypto.Sha2_constants.sha256_k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* Big-endian digest of chaining words [h] after padding [tail] — the
   message bytes not yet compressed — given [total] message bytes in all.
   Starting from [h] rather than the IV lets a test pick any chaining
   state. *)
let finish h ~tail ~total =
  let h = Array.copy h in
  let padded_len = ((String.length tail + 8) / 64 + 1) * 64 in
  let b = Bytes.make padded_len '\000' in
  Bytes.blit_string tail 0 b 0 (String.length tail);
  Bytes.set b (String.length tail) '\x80';
  Bytes.set_int64_be b (padded_len - 8) (Int64.of_int (total * 8));
  for i = 0 to (padded_len / 64) - 1 do
    compress h b (64 * i)
  done;
  String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

let digest msg =
  let full = String.length msg / 64 * 64 in
  let h = Array.copy Apna_crypto.Sha2_constants.sha256_h in
  let b = Bytes.of_string msg in
  for i = 0 to (full / 64) - 1 do
    compress h b (64 * i)
  done;
  finish h ~tail:(String.sub msg full (String.length msg - full)) ~total:(String.length msg)
