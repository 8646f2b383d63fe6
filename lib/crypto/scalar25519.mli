(** Scalars modulo the edwards25519 group order
    L = 2^252 + 27742317777372353535851937790883648493, on 21-bit limbs
    (ref10's [sc_reduce] and [sc_muladd]). Scalars are 32-byte
    little-endian strings; outputs are canonical (below L). *)

val reduce : string -> string
(** [reduce b] is the 64-byte little-endian [b] mod L. *)

val muladd : string -> string -> string -> string
(** [muladd a b c] is [(a b + c) mod L]. *)

val is_canonical : string -> bool
(** [is_canonical s] holds when [s] is 32 bytes encoding a value below L. *)
