(* Byte-oriented AES. The S-box is derived at module initialization from its
   definition — multiplicative inverse in GF(2^8) followed by the affine
   transform — rather than transcribed, and is validated by the FIPS-197
   known-answer tests in the test suite. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else b lsl 1

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gf_mul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.init 256 (fun i ->
      let b = inv.(i) in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

(* Encryption T-tables: Te_i[x] combines SubBytes and MixColumns for one
   byte position, the classic software-AES formulation. Each entry packs a
   column as a 32-bit word. *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (gf_mul 2 s lsl 24) lor (s lsl 16) lor (s lsl 8) lor gf_mul 3 s)

let te1 = Array.map (fun w -> ((w lsr 8) lor (w lsl 24)) land 0xffffffff) te0
let te2 = Array.map (fun w -> ((w lsr 8) lor (w lsl 24)) land 0xffffffff) te1
let te3 = Array.map (fun w -> ((w lsr 8) lor (w lsl 24)) land 0xffffffff) te2

type key = { round_keys : int array array; rounds : int; key_bytes : int }

let key_size k = k.key_bytes

(* Key expansion over 32-bit words packed as b0<<24 | b1<<16 | b2<<8 | b3. *)
let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand: %d-byte key" n)
  in
  let rounds = nk + 6 in
  let nwords = 4 * (rounds + 1) in
  let w = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code raw.[4 * i] lsl 24)
      lor (Char.code raw.[(4 * i) + 1] lsl 16)
      lor (Char.code raw.[(4 * i) + 2] lsl 8)
      lor Char.code raw.[(4 * i) + 3]
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xff) lsl 24)
    lor (sbox.((x lsr 16) land 0xff) lsl 16)
    lor (sbox.((x lsr 8) land 0xff) lsl 8)
    lor sbox.(x land 0xff)
  in
  let rot_word x = ((x lsl 8) land 0xffffffff) lor (x lsr 24) in
  let rcon = ref 1 in
  for i = nk to nwords - 1 do
    let temp = ref w.(i - 1) in
    if i mod nk = 0 then begin
      temp := sub_word (rot_word !temp) lxor (!rcon lsl 24);
      rcon := xtime !rcon
    end
    else if nk = 8 && i mod nk = 4 then temp := sub_word !temp;
    w.(i) <- w.(i - nk) lxor !temp
  done;
  let round_keys =
    Array.init (rounds + 1) (fun r -> Array.sub w (4 * r) 4)
  in
  { round_keys; rounds; key_bytes = String.length raw }

(* State: 16-byte array, state.(r + 4*c) = row r, column c. Input bytes map
   column-major per FIPS 197. *)

let load block =
  let st = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      st.(r + (4 * c)) <- Char.code block.[(4 * c) + r]
    done
  done;
  st

let store st =
  String.init 16 (fun i ->
      let c = i / 4 and r = i mod 4 in
      Char.chr st.(r + (4 * c)))

let add_round_key st rk =
  for c = 0 to 3 do
    let word = rk.(c) in
    st.(4 * c) <- st.(4 * c) lxor ((word lsr 24) land 0xff);
    st.(1 + (4 * c)) <- st.(1 + (4 * c)) lxor ((word lsr 16) land 0xff);
    st.(2 + (4 * c)) <- st.(2 + (4 * c)) lxor ((word lsr 8) land 0xff);
    st.(3 + (4 * c)) <- st.(3 + (4 * c)) lxor (word land 0xff)
  done

let inv_sub_bytes st = Array.iteri (fun i b -> st.(i) <- inv_sbox.(b)) st

let shift_row st r k =
  (* Rotate row r left by k positions. *)
  let row = Array.init 4 (fun c -> st.(r + (4 * c))) in
  for c = 0 to 3 do
    st.(r + (4 * c)) <- row.((c + k) mod 4)
  done

let inv_shift_rows st =
  shift_row st 1 3;
  shift_row st 2 2;
  shift_row st 3 1

let inv_mix_column st c =
  let s0 = st.(4 * c) and s1 = st.(1 + (4 * c)) in
  let s2 = st.(2 + (4 * c)) and s3 = st.(3 + (4 * c)) in
  st.(4 * c) <- gf_mul 14 s0 lxor gf_mul 11 s1 lxor gf_mul 13 s2 lxor gf_mul 9 s3;
  st.(1 + (4 * c)) <- gf_mul 9 s0 lxor gf_mul 14 s1 lxor gf_mul 11 s2 lxor gf_mul 13 s3;
  st.(2 + (4 * c)) <- gf_mul 13 s0 lxor gf_mul 9 s1 lxor gf_mul 14 s2 lxor gf_mul 11 s3;
  st.(3 + (4 * c)) <- gf_mul 11 s0 lxor gf_mul 13 s1 lxor gf_mul 9 s2 lxor gf_mul 14 s3

(* Encryption works on four column words with the T-tables; two word
   buffers are threaded through the rounds without per-round allocation.
   All 16 source bytes are read into the column words before anything is
   written, so [src] and [dst] may overlap exactly (in-place encryption,
   which CBC-MAC exploits for its accumulator). *)
let encrypt_block_into k ~src ~src_off ~dst ~dst_off =
  if src_off < 0 || src_off + 16 > Bytes.length src then
    invalid_arg "Aes.encrypt_block_into: src range";
  if dst_off < 0 || dst_off + 16 > Bytes.length dst then
    invalid_arg "Aes.encrypt_block_into: dst range";
  let word i =
    (Char.code (Bytes.unsafe_get src (src_off + (4 * i))) lsl 24)
    lor (Char.code (Bytes.unsafe_get src (src_off + (4 * i) + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get src (src_off + (4 * i) + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get src (src_off + (4 * i) + 3))
  in
  let rk0 = k.round_keys.(0) in
  let c0 = ref (word 0 lxor rk0.(0)) and c1 = ref (word 1 lxor rk0.(1)) in
  let c2 = ref (word 2 lxor rk0.(2)) and c3 = ref (word 3 lxor rk0.(3)) in
  for r = 1 to k.rounds - 1 do
    let rk = Array.unsafe_get k.round_keys r in
    let t0 =
      Array.unsafe_get te0 (!c0 lsr 24)
      lxor Array.unsafe_get te1 ((!c1 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((!c2 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (!c3 land 0xff)
      lxor Array.unsafe_get rk 0
    and t1 =
      Array.unsafe_get te0 (!c1 lsr 24)
      lxor Array.unsafe_get te1 ((!c2 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((!c3 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (!c0 land 0xff)
      lxor Array.unsafe_get rk 1
    and t2 =
      Array.unsafe_get te0 (!c2 lsr 24)
      lxor Array.unsafe_get te1 ((!c3 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((!c0 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (!c1 land 0xff)
      lxor Array.unsafe_get rk 2
    and t3 =
      Array.unsafe_get te0 (!c3 lsr 24)
      lxor Array.unsafe_get te1 ((!c0 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((!c1 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (!c2 land 0xff)
      lxor Array.unsafe_get rk 3
    in
    c0 := t0;
    c1 := t1;
    c2 := t2;
    c3 := t3
  done;
  let rk = k.round_keys.(k.rounds) in
  let s = sbox in
  let final a b c d w =
    (Array.unsafe_get s (a lsr 24) lsl 24)
    lor (Array.unsafe_get s ((b lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get s ((c lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get s (d land 0xff)
    lxor w
  in
  let o0 = final !c0 !c1 !c2 !c3 rk.(0) and o1 = final !c1 !c2 !c3 !c0 rk.(1) in
  let o2 = final !c2 !c3 !c0 !c1 rk.(2) and o3 = final !c3 !c0 !c1 !c2 rk.(3) in
  let put i w =
    Bytes.unsafe_set dst (dst_off + (4 * i)) (Char.unsafe_chr ((w lsr 24) land 0xff));
    Bytes.unsafe_set dst (dst_off + (4 * i) + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
    Bytes.unsafe_set dst (dst_off + (4 * i) + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
    Bytes.unsafe_set dst (dst_off + (4 * i) + 3) (Char.unsafe_chr (w land 0xff))
  in
  put 0 o0;
  put 1 o1;
  put 2 o2;
  put 3 o3

let encrypt_block k block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: block size";
  let out = Bytes.create 16 in
  encrypt_block_into k ~src:(Bytes.unsafe_of_string block) ~src_off:0 ~dst:out
    ~dst_off:0;
  Bytes.unsafe_to_string out

let decrypt_block k block =
  if String.length block <> 16 then invalid_arg "Aes.decrypt_block: block size";
  let st = load block in
  add_round_key st k.round_keys.(k.rounds);
  for r = k.rounds - 1 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st k.round_keys.(r);
    for c = 0 to 3 do
      inv_mix_column st c
    done
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st k.round_keys.(0);
  store st

module Ctr = struct
  (* Big-endian increment of bytes 15..12 with carry; the carry out of
     byte 12 is dropped, so the counter wraps inside its low 32 bits and
     the 12-byte prefix never changes. *)
  let rec bump ctr i =
    if i >= 12 then begin
      let v = (Char.code (Bytes.unsafe_get ctr i) + 1) land 0xff in
      Bytes.unsafe_set ctr i (Char.unsafe_chr v);
      if v = 0 then bump ctr (i - 1)
    end

  (* One 32-byte scratch per call: the counter block in bytes 0..15, its
     encryption in 16..31. Each keystream block is xored straight into
     the output, a whole block as two 64-bit words. *)
  let crypt ~key ~nonce data =
    if String.length nonce <> 16 then invalid_arg "Aes.Ctr: nonce size";
    let len = String.length data in
    let out = Bytes.create len in
    let scratch = Bytes.create 32 in
    Bytes.blit_string nonce 0 scratch 0 16;
    let pos = ref 0 in
    while !pos + 16 <= len do
      let i = !pos in
      encrypt_block_into key ~src:scratch ~src_off:0 ~dst:scratch ~dst_off:16;
      bump scratch 15;
      Bytes.set_int64_le out i
        (Int64.logxor (String.get_int64_le data i) (Bytes.get_int64_le scratch 16));
      Bytes.set_int64_le out (i + 8)
        (Int64.logxor (String.get_int64_le data (i + 8)) (Bytes.get_int64_le scratch 24));
      pos := i + 16
    done;
    if !pos < len then begin
      encrypt_block_into key ~src:scratch ~src_off:0 ~dst:scratch ~dst_off:16;
      for i = !pos to len - 1 do
        Bytes.unsafe_set out i
          (Char.unsafe_chr
             (Char.code (String.unsafe_get data i)
             lxor Char.code (Bytes.unsafe_get scratch (16 + i - !pos))))
      done
    end;
    Bytes.unsafe_to_string out

  let keystream ~key ~nonce len = crypt ~key ~nonce (String.make len '\000')
end

module Cbc_mac = struct
  (* [out.(out_off..+16)] doubles as the CBC accumulator: xor the next
     block in, encrypt in place (sound per [encrypt_block_into]). *)
  let mac_into ~key ~src ~off ~len ~out ~out_off =
    if len = 0 || len mod 16 <> 0 then
      invalid_arg "Aes.Cbc_mac: input must be a non-empty multiple of 16";
    if off < 0 || off + len > Bytes.length src then
      invalid_arg "Aes.Cbc_mac.mac_into: src range";
    if out_off < 0 || out_off + 16 > Bytes.length out then
      invalid_arg "Aes.Cbc_mac.mac_into: out range";
    Bytes.fill out out_off 16 '\000';
    for b = 0 to (len / 16) - 1 do
      for j = 0 to 15 do
        Bytes.unsafe_set out (out_off + j)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get out (out_off + j))
             lxor Char.code (Bytes.unsafe_get src (off + (16 * b) + j))))
      done;
      encrypt_block_into key ~src:out ~src_off:out_off ~dst:out ~dst_off:out_off
    done

  let mac ~key data =
    let out = Bytes.create 16 in
    mac_into ~key
      ~src:(Bytes.unsafe_of_string data)
      ~off:0 ~len:(String.length data) ~out ~out_off:0;
    Bytes.unsafe_to_string out
end
