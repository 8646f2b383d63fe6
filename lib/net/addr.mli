(** Network identifiers.

    An {e AID} names an AS (4 bytes, like an AS number); a {e HID} names a
    host within one AS (4 bytes, like an IPv4 address — paper §III-B,
    §VII-D). A host is fully addressed by an [AID:EphID] tuple; HIDs never
    appear on the wire outside the issuing AS. *)

type aid
type hid

val aid_of_int : int -> aid
(** @raise Invalid_argument unless [0 <= n < 2^32]. *)

val aid_to_int : aid -> int
val aid_equal : aid -> aid -> bool
val pp_aid : Format.formatter -> aid -> unit

val hid_of_int : int -> hid
val hid_to_int : hid -> int
val hid_equal : hid -> hid -> bool
val pp_hid : Format.formatter -> hid -> unit

val aid_to_bytes : aid -> string
(** 4 bytes, big-endian. *)

val aid_of_bytes : string -> (aid, string) result
val hid_to_bytes : hid -> string
val hid_of_bytes : string -> (hid, string) result

module Aid_map : Map.S with type key = aid
module Hid_tbl : Hashtbl.S with type key = hid
module Aid_tbl : Hashtbl.S with type key = aid
