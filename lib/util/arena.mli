(** Fixed-slot [Bytes] pool for burst processing (DESIGN.md, "Batched
    fast path").

    All slots are preallocated; a burst loop calls {!reset} once per
    burst and {!checkout} once per packet, so the steady-state cycle
    allocates nothing. Slot contents are NOT cleared between bursts —
    callers own a slot only until the next {!reset} and must treat its
    initial contents as garbage. *)

type t

val create : slots:int -> slot_bytes:int -> t
(** [create ~slots ~slot_bytes] preallocates [slots] buffers of
    [slot_bytes] each. @raise Invalid_argument if either is [< 1]. *)

val checkout : t -> Bytes.t
(** The next free slot. Valid until the next {!reset}. When the pool is
    exhausted a fresh buffer is allocated instead (counted in
    {!overflows}) so a caller processing an oversized burst stays
    correct, merely slower. *)

val reset : t -> unit
(** Return every slot to the pool. Previously checked-out buffers must
    no longer be used (the next burst will overwrite them). *)

val slots : t -> int
val slot_bytes : t -> int

val overflows : t -> int
(** Checkouts that missed the pool and allocated, since [create] — the
    gauge of a mis-sized arena. *)
