(* Fixed-slot byte-buffer pool for burst processing. All slots are
   allocated once at creation; the steady-state checkout/reset cycle
   allocates nothing. A checkout beyond the slot count falls back to a
   fresh allocation (counted in [overflows]) so correctness never depends
   on the caller sizing the pool exactly. *)

type t = {
  slots : Bytes.t array;
  slot_bytes : int;
  mutable next : int; (* first free slot *)
  mutable overflows : int;
}

let create ~slots ~slot_bytes =
  if slots < 1 then invalid_arg "Arena.create: slots";
  if slot_bytes < 1 then invalid_arg "Arena.create: slot_bytes";
  {
    slots = Array.init slots (fun _ -> Bytes.create slot_bytes);
    slot_bytes;
    next = 0;
    overflows = 0;
  }

let slots t = Array.length t.slots
let slot_bytes t = t.slot_bytes
let overflows t = t.overflows

let checkout t =
  if t.next < Array.length t.slots then begin
    let b = t.slots.(t.next) in
    t.next <- t.next + 1;
    b
  end
  else begin
    t.overflows <- t.overflows + 1;
    Bytes.create t.slot_bytes
  end

let reset t = t.next <- 0
