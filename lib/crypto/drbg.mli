(** HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 instantiation).

    All randomness in the repository flows through explicit [Drbg.t] handles
    so that every protocol run, test, and benchmark is deterministic and
    reproducible from a seed. *)

type t

val create : seed:string -> t
(** [create ~seed] instantiates the generator from entropy [seed]. *)

val generate : t -> int -> string
(** [generate t n] produces [n] pseudo-random bytes and advances the state. *)

val uniform : t -> int -> int
(** [uniform t n] is an unbiased integer in [\[0, n)], [n >= 1]. *)

val split : t -> string -> t
(** [split t label] derives an independent generator, e.g. one per host. *)
