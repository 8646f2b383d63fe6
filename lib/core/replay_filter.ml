type t = {
  bits : int;
  hashes : int;
  rotate_every_s : float;
  mutable current : Bytes.t;
  mutable previous : Bytes.t;
  mutable last_rotation : float;
}

let create ?(bits_log2 = 20) ?(hashes = 4) ?(rotate_every_s = 10.0) () =
  if bits_log2 < 3 || bits_log2 > 32 then invalid_arg "Replay_filter: bits_log2";
  if hashes < 1 || hashes > 16 then invalid_arg "Replay_filter: hashes";
  let bytes = 1 lsl (bits_log2 - 3) in
  {
    bits = 1 lsl bits_log2;
    hashes;
    rotate_every_s;
    current = Bytes.make bytes '\000';
    previous = Bytes.make bytes '\000';
    last_rotation = 0.0;
  }

type verdict = Fresh | Replayed

let rotate t ~now =
  let elapsed = now -. t.last_rotation in
  if elapsed >= 2.0 *. t.rotate_every_s then begin
    (* Two or more periods elapsed with no rotation: every recorded bit is
       older than one period, so both generations are stale. A single swap
       here would leave arbitrarily old bits alive in [previous] and
       produce false Replayed verdicts after an idle gap. *)
    Bytes.fill t.current 0 (Bytes.length t.current) '\000';
    Bytes.fill t.previous 0 (Bytes.length t.previous) '\000';
    t.last_rotation <- now;
  end
  else if elapsed >= t.rotate_every_s then begin
    (* Swap and clear: the old current becomes previous, keeping detection
       coverage over at least one full period. *)
    let old_previous = t.previous in
    t.previous <- t.current;
    Bytes.fill old_previous 0 (Bytes.length old_previous) '\000';
    t.current <- old_previous;
    t.last_rotation <- now;
  end

(* Double hashing over a SipHash-free stand-in: two independent 64-bit
   mixes of the key provide h1 + i*h2, the standard Kirsch-Mitzenmacher
   construction. *)
let mix64 seed s =
  let h = ref (Int64.of_int seed) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  let z = !h in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bit_positions t key =
  let h1 = Int64.to_int (mix64 0xcafe key) land max_int in
  let h2 = (Int64.to_int (mix64 0xbeef key) land max_int) lor 1 in
  Array.init t.hashes (fun i -> (h1 + (i * h2)) land (t.bits - 1))

let test_bit buf pos = Char.code (Bytes.get buf (pos lsr 3)) land (1 lsl (pos land 7)) <> 0

let set_bit buf pos =
  Bytes.set buf (pos lsr 3)
    (Char.chr (Char.code (Bytes.get buf (pos lsr 3)) lor (1 lsl (pos land 7))))

let check_and_insert t ~now key =
  rotate t ~now;
  let positions = bit_positions t key in
  let in_current = Array.for_all (test_bit t.current) positions in
  let in_previous = Array.for_all (test_bit t.previous) positions in
  if in_current || in_previous then Replayed
  else begin
    Array.iter (set_bit t.current) positions;
    Fresh
  end

let memory_bytes t = 2 * (t.bits / 8)
