(* RFC 8439 ChaCha20, Poly1305 and their AEAD composition.

   Everything runs on OCaml ints: ChaCha20 on 32-bit words, Poly1305 on
   five 26-bit limbs (the poly1305-donna-32 layout), whose products and
   five-term sums stay below 2^58 in a 63-bit int. No table is read and no
   branch or index depends on key, nonce or data: every branch and index
   below is a length or a position. *)

let m32 = 0xffffffff
let m26 = 0x3ffffff

let[@inline] get32 s off = Int32.to_int (String.get_int32_le s off) land m32
let[@inline] set32 b off x = Bytes.set_int32_le b off (Int32.of_int x)

(* The little-endian word at [s.[off]], its bytes at and past [stop]
   read as zero. *)
let[@inline] get32_upto s off stop =
  if off + 4 <= stop then get32 s off
  else begin
    let w = ref 0 in
    for i = stop - 1 downto off do
      w := (!w lsl 8) lor Char.code s.[i]
    done;
    !w
  end

(* ChaCha20's state words are unboxed int64s that hold the 32-bit word in
   their top half: an addition then wraps mod 2^32 with no mask, and
   ocamlopt keeps int64 refs that never escape untagged in registers. *)
let[@inline] high w = Int64.shift_left (Int64.of_int w) 32
let[@inline] rotl v n =
  Int64.logor (Int64.shift_left v n)
    (Int64.logand (Int64.shift_right_logical v (32 - n)) 0xffffffff00000000L)

(* The output word: final state plus input state, back to a 32-bit int. *)
let[@inline] word x input = Int64.to_int (Int64.shift_right_logical (Int64.add x input) 32)

(* One ChaCha20 block (§2.3) for the 32 key bytes of [key] at [koff], the
   12 nonce bytes of [nonce] at [noff] and the block [counter]. Its 16
   keystream words go to [k], after [k]'s own four arguments. This
   function is always inlined and every [k] is a top-level function, so
   the state lives in registers and stack slots and nothing is
   allocated. *)
let[@inline] block key koff nonce noff counter k a b c d =
  let c0 = high 0x61707865 and c1 = high 0x3320646e and c2 = high 0x79622d32
  and c3 = high 0x6b206574 in
  let k0 = high (get32 key koff) and k1 = high (get32 key (koff + 4))
  and k2 = high (get32 key (koff + 8)) and k3 = high (get32 key (koff + 12))
  and k4 = high (get32 key (koff + 16)) and k5 = high (get32 key (koff + 20))
  and k6 = high (get32 key (koff + 24)) and k7 = high (get32 key (koff + 28)) in
  let n0 = high (get32 nonce noff) and n1 = high (get32 nonce (noff + 4))
  and n2 = high (get32 nonce (noff + 8)) and ctr = high (counter land m32) in
  let x0 = ref c0 and x1 = ref c1 and x2 = ref c2 and x3 = ref c3
  and x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3
  and x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7
  and x12 = ref ctr and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
  for _ = 1 to 10 do
    (* Column round: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15). *)
    x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 16;
    x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 12;
    x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 8;
    x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 7;
    x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 16;
    x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 12;
    x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 8;
    x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 7;
    x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 16;
    x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 12;
    x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 8;
    x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 7;
    x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 16;
    x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 12;
    x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 8;
    x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 7;
    (* Diagonal round: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14). *)
    x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 16;
    x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 12;
    x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 8;
    x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 7;
    x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 16;
    x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 12;
    x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 8;
    x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 7;
    x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 16;
    x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 12;
    x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 8;
    x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 7;
    x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 16;
    x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 12;
    x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 8;
    x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 7
  done;
  k a b c d
    (word !x0 c0) (word !x1 c1) (word !x2 c2) (word !x3 c3)
    (word !x4 k0) (word !x5 k1) (word !x6 k2) (word !x7 k3)
    (word !x8 k4) (word !x9 k5) (word !x10 k6) (word !x11 k7)
    (word !x12 ctr) (word !x13 n0) (word !x14 n1) (word !x15 n2)

(* dst.[off + i] <- src.[off + i] lxor keystream byte i, for the bytes
   i < n of the keystream word [w] at block byte [j]. *)
let[@inline] xor_word src dst off n j w =
  if j + 4 <= n then set32 dst (off + j) (get32 src (off + j) lxor w)
  else
    for i = j to n - 1 do
      Bytes.set dst (off + i)
        (Char.unsafe_chr (Char.code src.[off + i] lxor ((w lsr (8 * (i - j))) land 0xff)))
    done

(* The first [n] <= 64 bytes of one keystream block, xored in at [off]. *)
let[@inline] xor_block src dst off n x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11
    x12 x13 x14 x15 =
  xor_word src dst off n 0 x0; xor_word src dst off n 4 x1;
  xor_word src dst off n 8 x2; xor_word src dst off n 12 x3;
  xor_word src dst off n 16 x4; xor_word src dst off n 20 x5;
  xor_word src dst off n 24 x6; xor_word src dst off n 28 x7;
  xor_word src dst off n 32 x8; xor_word src dst off n 36 x9;
  xor_word src dst off n 40 x10; xor_word src dst off n 44 x11;
  xor_word src dst off n 48 x12; xor_word src dst off n 52 x13;
  xor_word src dst off n 56 x14; xor_word src dst off n 60 x15

(* §2.4: dst[0..len) <- src[0..len) xor the keystream from block [counter]
   on. *)
let xor_stream key nonce noff counter src dst len =
  for b = 0 to ((len + 63) / 64) - 1 do
    let off = 64 * b in
    block key 0 nonce noff (counter + b) xor_block src dst off (Int.min 64 (len - off))
  done

(* Word [p / 4] of nonce[0..noff) ‖ aad; [noff] is a multiple of 4. *)
let[@inline] aad_word nonce noff aad p =
  if p < noff then get32 nonce p else get32_upto aad (p - noff) (String.length aad)

(* [b] where [mask] is all ones, [a] where it is zero. *)
let[@inline] select mask a b = (a land lnot mask) lor (b land mask)

(* Poly1305 (§2.5) under the one-time key r ‖ s = k0..k7 (r is clamped
   here). With [raw], the message is src[off..off+len) and a final partial
   block ends in a 0x01 byte (§2.5.1). Otherwise it is the §2.8 AEAD input
   pad16(nonce[0..noff) ‖ aad) ‖ pad16(src[off..off+len)) ‖ le64 (noff +
   |aad|) ‖ le64 len. The tag's place is dst[doff..doff+16): [write] stores
   it there and returns 0; otherwise the result is 0 iff the tag already
   there equals it, accumulated over all four words with no early exit. *)
let poly ~raw ~write nonce noff aad src off len dst doff k0 k1 k2 k3 k4 k5 k6 k7 =
  let s = Bytes.unsafe_to_string src and stop = off + len in
  let r0 = k0 land 0x3ffffff
  and r1 = ((k0 lsr 26) lor (k1 lsl 6)) land 0x3ffff03
  and r2 = ((k1 lsr 20) lor (k2 lsl 12)) land 0x3ffc0ff
  and r3 = ((k2 lsr 14) lor (k3 lsl 18)) land 0x3f03fff
  and r4 = (k3 lsr 8) land 0x00fffff in
  let s1 = r1 * 5 and s2 = r2 * 5 and s3 = r3 * 5 and s4 = r4 * 5 in
  let alen = noff + String.length aad in
  let a_blocks = if raw then 0 else (alen + 15) / 16 in
  let m_blocks = (len + 15) / 16 in
  let h0 = ref 0 and h1 = ref 0 and h2 = ref 0 and h3 = ref 0 and h4 = ref 0 in
  let w0 = ref 0 and w1 = ref 0 and w2 = ref 0 and w3 = ref 0 in
  let hibit = ref (1 lsl 24) in
  for b = 0 to a_blocks + m_blocks + (if raw then 0 else 1) - 1 do
    if b < a_blocks then begin
      let p = 16 * b in
      w0 := aad_word nonce noff aad p; w1 := aad_word nonce noff aad (p + 4);
      w2 := aad_word nonce noff aad (p + 8); w3 := aad_word nonce noff aad (p + 12)
    end
    else if b < a_blocks + m_blocks then begin
      let p = off + (16 * (b - a_blocks)) in
      w0 := get32_upto s p stop; w1 := get32_upto s (p + 4) stop;
      w2 := get32_upto s (p + 8) stop; w3 := get32_upto s (p + 12) stop;
      let q = stop - p in
      if raw && q < 16 then begin
        let one = 1 lsl (8 * (q land 3)) in
        (match q lsr 2 with
        | 0 -> w0 := !w0 lor one
        | 1 -> w1 := !w1 lor one
        | 2 -> w2 := !w2 lor one
        | _ -> w3 := !w3 lor one);
        hibit := 0
      end
    end
    else begin
      w0 := alen land m32; w1 := alen lsr 32;
      w2 := len land m32; w3 := len lsr 32
    end;
    (* h <- (h + block) * r mod 2^130 - 5, partially reduced. *)
    h0 := !h0 + (!w0 land m26);
    h1 := !h1 + (((!w0 lsr 26) lor (!w1 lsl 6)) land m26);
    h2 := !h2 + (((!w1 lsr 20) lor (!w2 lsl 12)) land m26);
    h3 := !h3 + (((!w2 lsr 14) lor (!w3 lsl 18)) land m26);
    h4 := !h4 + ((!w3 lsr 8) lor !hibit);
    let d0 = (!h0 * r0) + (!h1 * s4) + (!h2 * s3) + (!h3 * s2) + (!h4 * s1)
    and d1 = (!h0 * r1) + (!h1 * r0) + (!h2 * s4) + (!h3 * s3) + (!h4 * s2)
    and d2 = (!h0 * r2) + (!h1 * r1) + (!h2 * r0) + (!h3 * s4) + (!h4 * s3)
    and d3 = (!h0 * r3) + (!h1 * r2) + (!h2 * r1) + (!h3 * r0) + (!h4 * s4)
    and d4 = (!h0 * r4) + (!h1 * r3) + (!h2 * r2) + (!h3 * r1) + (!h4 * r0) in
    let d1 = d1 + (d0 lsr 26) in
    let d2 = d2 + (d1 lsr 26) in
    let d3 = d3 + (d2 lsr 26) in
    let d4 = d4 + (d3 lsr 26) in
    let c0 = (d0 land m26) + ((d4 lsr 26) * 5) in
    h0 := c0 land m26;
    h1 := (d1 land m26) + (c0 lsr 26);
    h2 := d2 land m26;
    h3 := d3 land m26;
    h4 := d4 land m26
  done;
  (* Full carry, then h mod p: g = h + 5 - 2^130 is non-negative exactly
     when h >= p, and a mask, not a branch, picks g then. *)
  let h1 = !h1 land m26 and c = !h1 lsr 26 in
  let h2 = !h2 + c in
  let h3 = !h3 + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = !h4 + (h3 lsr 26) and h3 = h3 land m26 in
  let h0 = !h0 + ((h4 lsr 26) * 5) and h4 = h4 land m26 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land m26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land m26 in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land m26 in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land m26 in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land m26 in
  let take_g = lnot (g4 asr 62) in
  let h0 = select take_g h0 g0 and h1 = select take_g h1 g1
  and h2 = select take_g h2 g2 and h3 = select take_g h3 g3
  and h4 = select take_g h4 (g4 land m26) in
  (* tag = (h + s) mod 2^128, carried word by word. *)
  let f0 = h0 + ((h1 lsl 26) land m32) + k4 in
  let f1 = (h1 lsr 6) + ((h2 lsl 20) land m32) + k5 + (f0 lsr 32) in
  let f2 = (h2 lsr 12) + ((h3 lsl 14) land m32) + k6 + (f1 lsr 32) in
  let f3 = (h3 lsr 18) + ((h4 lsl 8) land m32) + k7 + (f2 lsr 32) in
  let t0 = f0 land m32 and t1 = f1 land m32 and t2 = f2 land m32
  and t3 = f3 land m32 in
  if write then begin
    set32 dst doff t0; set32 dst (doff + 4) t1;
    set32 dst (doff + 8) t2; set32 dst (doff + 12) t3;
    0
  end
  else
    let d = Bytes.unsafe_to_string dst in
    (t0 lxor get32 d doff) lor (t1 lxor get32 d (doff + 4))
    lor (t2 lxor get32 d (doff + 8)) lor (t3 lxor get32 d (doff + 12))

(* Block 0 of the message's keystream is the Poly1305 key (§2.6): its
   first eight words go straight to [poly]. *)
let tag_write nonce aad buf len x0 x1 x2 x3 x4 x5 x6 x7 _ _ _ _ _ _ _ _ =
  poly ~raw:false ~write:true nonce (String.length nonce - 12) aad buf 0 len buf len
    x0 x1 x2 x3 x4 x5 x6 x7

let tag_diff nonce aad buf len x0 x1 x2 x3 x4 x5 x6 x7 _ _ _ _ _ _ _ _ =
  poly ~raw:false ~write:false nonce (String.length nonce - 12) aad buf 0 len buf len
    x0 x1 x2 x3 x4 x5 x6 x7

let tag_size = 16

let check_key key =
  if String.length key <> 32 then invalid_arg "Chacha20_poly1305: key size"

let nonce_offset nonce =
  let n = String.length nonce in
  if n < 12 || (n - 12) land 3 <> 0 then invalid_arg "Chacha20_poly1305: nonce size";
  n - 12

let xor ~key ~nonce ~counter src =
  check_key key;
  let noff = nonce_offset nonce in
  let len = String.length src in
  let dst = Bytes.create len in
  xor_stream key nonce noff counter src dst len;
  Bytes.unsafe_to_string dst

let poly1305 ~key msg =
  check_key key;
  let tag = Bytes.create tag_size in
  ignore
    (poly ~raw:true ~write:true "" 0 "" (Bytes.unsafe_of_string msg) 0 (String.length msg)
       tag 0 (get32 key 0) (get32 key 4) (get32 key 8) (get32 key 12) (get32 key 16)
       (get32 key 20) (get32 key 24) (get32 key 28));
  Bytes.unsafe_to_string tag

(* Keystream words 0..3 of one block, stored at out[0..16). *)
let store4 out _ _ _ x0 x1 x2 x3 _ _ _ _ _ _ _ _ _ _ _ _ =
  set32 out 0 x0; set32 out 4 x1; set32 out 8 x2; set32 out 12 x3

let hash_prf_key_size = 48

let hash_prf ~key src ~off ~len ~out =
  if String.length key <> hash_prf_key_size then invalid_arg "Chacha20_poly1305: key size";
  if off < 0 || len < 0 || off > Bytes.length src - len || Bytes.length out < 16 then
    invalid_arg "Chacha20_poly1305.hash_prf: range";
  (* h = the polynomial under r = key[0..16) with s = 0, written to
     out[0..16); then h is the counter ‖ nonce of the block under
     key[16..48), read before the block overwrites it. *)
  ignore
    (poly ~raw:true ~write:true "" 0 "" src off len out 0 (get32 key 0) (get32 key 4)
       (get32 key 8) (get32 key 12) 0 0 0 0);
  let h = Bytes.unsafe_to_string out in
  block key 16 h 4 (get32 h 0) store4 out 0 0 0

let seal ~key ~nonce ~aad plaintext =
  check_key key;
  let noff = nonce_offset nonce in
  let len = String.length plaintext in
  let out = Bytes.create (len + tag_size) in
  xor_stream key nonce noff 1 plaintext out len;
  ignore (block key 0 nonce noff 0 tag_write nonce aad out len);
  Bytes.unsafe_to_string out

let open_ ~key ~nonce ~aad sealed =
  check_key key;
  let noff = nonce_offset nonce in
  let len = String.length sealed - tag_size in
  if len < 0 then Error "aead: too short"
  else if block key 0 nonce noff 0 tag_diff nonce aad (Bytes.unsafe_of_string sealed) len <> 0
  then Error "aead: authentication failure"
  else begin
    let out = Bytes.create len in
    xor_stream key nonce noff 1 sealed out len;
    Ok (Bytes.unsafe_to_string out)
  end
