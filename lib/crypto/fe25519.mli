(** Field arithmetic modulo p = 2^255 - 19, shared by X25519 and Ed25519.

    Elements are mutable arrays of 10 signed limbs in radix 2^25.5 (ref10's
    [fe]): limb i has weight 2^ceil(25.5 i), 26 bits for even i and 25 for
    odd i. The [*_into r ...] functions write their result into the
    caller-owned [r] and allocate nothing; [r] may alias any input.

    Limb bounds. {!mul_into}, {!sq_into}, {!sq2_into}, {!mul121666_into}
    and {!of_bytes} leave an element {e carried}: every limb within
    about 2^25 (even) or 2^24 (odd). {!add_into}, {!sub_into} and
    {!neg_into} do not carry, so their output is a sum of the inputs'
    limbs. A multiplication input may be a sum or difference of up to
    three carried elements (limbs up to 1.65 * 2^26): ref10 bounds every
    partial product sum by 1.4 * 2^60, which OCaml's 63-bit int holds with
    room to spare. The allocating {!add}, {!sub} and {!neg} carry.

    This code runs inside a network simulator; it is not hardened against
    timing side channels (callers branch on secret scalar bits, and OCaml
    gives no constant-time guarantees). *)

type t

val zero : unit -> t
(** A fresh element, zero; also the scratch for the [_into] functions. *)

val one : unit -> t

val of_int : int -> t
(** [of_int n] for [0 <= n < 2^25]. *)

val copy : t -> t
val copy_into : t -> t -> unit

val of_bytes : string -> t
(** [of_bytes s] decodes 32 little-endian bytes mod 2^255 (the top bit is
    ignored). A value in [p, 2^255) is accepted and reduced; strict
    decoders must compare {!to_bytes} of the result with their input. *)

val to_bytes : t -> string
(** Canonical 32-byte little-endian encoding of the value reduced mod p. *)

val add_into : t -> t -> t -> unit
val sub_into : t -> t -> t -> unit
val neg_into : t -> t -> unit
val mul_into : t -> t -> t -> unit
val sq_into : t -> t -> unit

val sq2_into : t -> t -> unit
(** [sq2_into r a] is [r <- 2 a^2]. *)

val mul121666_into : t -> t -> unit
(** [mul121666_into r a] is [r <- 121666 a], the X25519 ladder constant. *)

val cswap : t -> t -> int -> unit
(** [cswap a b bit] swaps the contents of [a] and [b] when [bit = 1]. *)

val invert_into : t -> t -> unit
(** Addition-chain inversion: [a^(p-2)], 254 squarings and 11 products. *)

val batch_invert_into : t array -> unit
(** [batch_invert_into a] replaces every element of [a] by its inverse
    with one {!invert_into} and three multiplications per element
    (Montgomery's trick). The elements must be non-zero and distinct
    arrays. *)

val pow22523_into : t -> t -> unit
(** [a^((p-5)/8)], the square-root exponent. *)

val sqrt_ratio_into : t -> u:t -> v:t -> bool
(** [sqrt_ratio_into x ~u ~v] sets [x] to a square root of [u/v] and
    returns [true], or returns [false] when [u/v] is not a square. One
    exponentiation, no inversion. [x] must be distinct from [u] and [v]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val invert : t -> t

val is_zero : t -> bool
val equal : t -> t -> bool

val is_negative : t -> bool
(** Least significant bit of the canonical encoding (RFC 8032 sign). *)
