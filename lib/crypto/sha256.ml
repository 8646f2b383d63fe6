(* SHA-256 over native ints holding 32-bit words. On a 64-bit platform
   every sum of a few 32-bit quantities fits in an int, and the low 32
   bits of a sum depend only on the low 32 bits of its terms, so only
   values that are read back as words (the schedule, a and e, the
   chaining state) are masked; the Σ/σ terms feeding a sum never are. *)

let digest_size = 32
let block_size = 64
let mask = 0xffffffff

(* Module-local: without flambda a cross-module array is reloaded through
   the other module's symbol on every round. *)
let k = Sha2_constants.sha256_k

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
  mutable finalized : bool;
  sched : int array; (* 64-entry message schedule, owned by this context *)
}

let init () =
  {
    h = Array.copy Sha2_constants.sha256_h;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    finalized = false;
    sched = Array.make 64 0;
  }

(* The compression function. [w] has 64 entries and [h] 8, so array
   accesses are unchecked; the 16 word loads from [block] keep one bounds
   check each. Rotations work on the doubled word [xx = x lor (x lsl 32)]:
   for a 32-bit [x] and [n < 32], the low 32 bits of [xx lsr n] are
   [rotr x n]. Ch and Maj need no mask because their inputs are 32-bit
   clean. Unrolling the rounds was measured slower (register spills under
   ocamlopt without flambda). *)
let compress w h block off =
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  let k = k in
  for t = 0 to 63 do
    let ee = !e lor (!e lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let aa = !a lor (!a lsl 32) in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

let reset ctx =
  Array.blit Sha2_constants.sha256_h 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0;
  ctx.finalized <- false

let midstate block =
  if String.length block <> block_size then invalid_arg "Sha256.midstate: block size";
  let h = Array.copy Sha2_constants.sha256_h in
  compress (Array.make 64 0) h (Bytes.unsafe_of_string block) 0;
  h

(* Masking keeps the kernel's 32-bit-clean precondition whatever words a
   caller hands in. *)
let resume ctx m =
  if Array.length m <> 8 then invalid_arg "Sha256.resume: 8 words";
  for i = 0 to 7 do
    Array.unsafe_set ctx.h i (Array.unsafe_get m i land mask)
  done;
  ctx.buf_len <- 0;
  ctx.total <- block_size;
  ctx.finalized <- false

let feed_bytes ctx b ~off ~len =
  if ctx.finalized then invalid_arg "Sha256.feed: finalized context";
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes: range";
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let need = min (block_size - ctx.buf_len) len in
    Bytes.blit b off ctx.buf ctx.buf_len need;
    ctx.buf_len <- ctx.buf_len + need;
    pos := off + need;
    if ctx.buf_len = block_size then begin
      compress ctx.sched ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= block_size do
    compress ctx.sched ctx.h b !pos;
    pos := !pos + block_size
  done;
  if stop - !pos > 0 then begin
    Bytes.blit b !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let feed ctx s =
  (* The context only reads the buffer, so the unsafe view is sound. *)
  feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Padding and length trailer built in the context's own block buffer —
   no allocation, which is what lets an HMAC prepared key run a full
   MAC without touching the minor heap. *)
let finalize_into ctx out ~off =
  if ctx.finalized then invalid_arg "Sha256.finalize: finalized context";
  if off < 0 || off + digest_size > Bytes.length out then
    invalid_arg "Sha256.finalize_into: range";
  ctx.finalized <- true;
  let bit_len = ctx.total * 8 in
  let bl = ctx.buf_len in
  Bytes.set ctx.buf bl '\x80';
  if bl + 1 > block_size - 8 then begin
    Bytes.fill ctx.buf (bl + 1) (block_size - bl - 1) '\000';
    compress ctx.sched ctx.h ctx.buf 0;
    Bytes.fill ctx.buf 0 (block_size - 8) '\000'
  end
  else Bytes.fill ctx.buf (bl + 1) (block_size - 8 - (bl + 1)) '\000';
  Bytes.set_int64_be ctx.buf (block_size - 8) (Int64.of_int bit_len);
  compress ctx.sched ctx.h ctx.buf 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (off + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out ~off:0;
  Bytes.unsafe_to_string out

let digest s =
  let c = init () in
  feed c s;
  finalize c

let digest_list parts =
  let c = init () in
  List.iter (feed c) parts;
  finalize c
