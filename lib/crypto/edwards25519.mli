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

val add : point -> point -> point

type comb
(** A fixed-base comb over one point [P]: [rows] rows of eight affine
    multiples, row [i] holding [(j + 1) 16^(g i) P] with [g = 64 / rows].
    A row costs eight points of three field elements (~305 words). *)

val comb_table : rows:int -> point -> comb
(** [comb_table ~rows p] builds the comb with one batched field
    inversion; [rows] must divide 64.
    @raise Invalid_argument otherwise. *)

val comb_mul : comb -> string -> point
(** [comb_mul c a] is [aP] for the comb's [P]: one mixed addition per
    non-zero signed 4-bit digit of [a] and [4 (64 / rows - 1)] doublings.
    Requires [a.[31] <= '\127']. *)

val scalar_mul_base : string -> point
(** [scalar_mul_base a] is [aB]: {!comb_mul} on B's 32-row comb (four
    doublings); requires [a.[31] <= '\127']. *)

val double_scalar_mul : string -> point -> string -> point
(** [double_scalar_mul a pa b] is [a pa + b B] by Straus-Shamir over
    width-5 signed digits. Both scalars must be below 2^255. The result
    carries no T coordinate: use it with {!encode} or {!equal} only. *)

val montgomery_u : point -> string
(** The curve25519 u-coordinate [(1 + y) / (1 - y)] of a point other than
    the identity, encoded as X25519 does. *)
