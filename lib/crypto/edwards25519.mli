(** The edwards25519 group (RFC 8032 §5.1) on {!Fe25519}: ref10's point
    forms, a fixed-base table for [aB] and a variable-time joint [aA + bB],
    shared by {!Ed25519} and {!X25519}.

    Scalars are 32-byte little-endian strings. Everything here is variable
    time; see the side-channel note in {!Fe25519}. *)

type point

val decode : string -> point option
(** Strict RFC 8032 §5.1.3 decoding: [None] unless the input is 32 bytes,
    y < p, the point is on the curve, and x = 0 does not come with the sign
    bit set. *)

val encode : point -> string

val base : point

val neg : point -> point

val equal : point -> point -> bool

val is_small_order : point -> bool
(** [true] when 8P is the identity (three doublings and a test). *)

val scalar_mul_base : string -> point
(** [scalar_mul_base a] is [aB] by the 4-bit-window fixed-base table and
    mixed additions; requires [a.[31] <= '\127']. *)

val double_scalar_mul : string -> point -> string -> point
(** [double_scalar_mul a pa b] is [a pa + b B] by Straus-Shamir over
    width-5 signed digits. Both scalars must be below 2^255. The result
    carries no T coordinate: use it with {!encode} or {!equal} only. *)

val montgomery_u : point -> string
(** The curve25519 u-coordinate [(1 + y) / (1 - y)] of a point other than
    the identity, encoded as X25519 does. *)
