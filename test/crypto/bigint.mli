(** Arbitrary-precision natural numbers: the test oracle.

    A small, dependency-free bignum, slow and allocating, that the crypto
    tests check the limb arithmetic against: Ed25519 scalars modulo the
    group order, field exponents, and the SHA-2 round constants from prime
    roots. Values are immutable and always non-negative; subtraction of a
    larger value from a smaller one is a programming error and raises
    [Invalid_argument]. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in an OCaml [int]. *)

val of_decimal : string -> t
(** [of_decimal s] parses a decimal literal (digits only).
    @raise Invalid_argument on a non-digit. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val rem : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit : t -> int -> bool
val num_bits : t -> int

val mod_add : t -> t -> t -> t
val mod_mul : t -> t -> t -> t
(** [mod_mul a b m] is [(a * b) mod m]. *)

val of_bytes_le : string -> t
val of_bytes_be : string -> t

val to_bytes_le : t -> int -> string
(** [to_bytes_le n width] is the [width]-byte little-endian encoding.
    @raise Invalid_argument if [n] does not fit. *)

val to_bytes_be : t -> int -> string
val pp : Format.formatter -> t -> unit
