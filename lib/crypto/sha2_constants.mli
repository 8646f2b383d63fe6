(** SHA-2 initial hash values and round constants (FIPS 180-4), written
    out as literals; a test re-derives them from the square and cube roots
    of the first primes. *)

val sha256_h : int array
val sha256_k : int array
val sha512_h : int64 array
val sha512_k : int64 array
