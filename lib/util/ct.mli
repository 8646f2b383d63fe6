(** Constant-time byte-string operations.

    Cryptographic comparisons must not leak the position of the first
    mismatching byte through timing; these helpers accumulate differences
    without early exit. *)

val equal : string -> string -> bool
(** [equal a b] is [true] iff [a] and [b] have the same length and contents,
    evaluated without data-dependent branching on the contents. *)

val equal_bytes : string -> Bytes.t -> off:int -> bool
(** [equal_bytes a b ~off] compares all of [a] against the bytes of [b]
    at [off], constant-time in the contents and without allocating —
    the burst fast path's tag check against a reusable digest buffer.
    [false] when the range does not fit. *)

val xor : string -> string -> string
(** [xor a b] is the byte-wise xor of two equal-length strings.
    @raise Invalid_argument if lengths differ. *)
