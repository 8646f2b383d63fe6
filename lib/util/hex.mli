(** Hexadecimal encoding and decoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hexadecimal rendering of [s]. *)

val decode : string -> (string, string) result
(** [decode h] parses a hexadecimal string (case-insensitive, even length)
    back into raw bytes. Returns [Error _] on odd length or non-hex input. *)

val pp : Format.formatter -> string -> unit
(** [pp ppf s] prints [s] as hex on [ppf]. *)
