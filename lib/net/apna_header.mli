(** The APNA network header (paper Fig. 7).

    {v
      Source AID     4 bytes
      Source EphID  16 bytes
      Dest EphID    16 bytes
      Dest AID       4 bytes
      MAC            8 bytes
      total         48 bytes
    v}

    The MAC is computed by the source host over the header (with the MAC
    field zeroed) and the payload, keyed with the host–AS shared key kHA;
    it is what lets the source AS attribute every packet (§IV-D2). *)

type t = {
  src_aid : Addr.aid;
  src_ephid : string;  (** 16 opaque bytes; only the source AS can parse. *)
  dst_aid : Addr.aid;
  dst_ephid : string;
  mac : string;  (** 8 bytes. *)
}

val size : int
(** 48. *)

val ephid_size : int
(** 16. *)

val mac_size : int
(** 8. *)

val make :
  src_aid:Addr.aid -> src_ephid:string -> dst_aid:Addr.aid ->
  dst_ephid:string -> ?mac:string -> unit -> t
(** [make ()] builds a header; [mac] defaults to zeros (filled in when the
    packet is authenticated). @raise Invalid_argument on bad field sizes. *)

val with_mac : t -> string -> t
val to_bytes : t -> string
val of_bytes : string -> (t, string) result

val bytes_for_mac : t -> string
(** Header serialization with the MAC field zeroed — the MAC input prefix. *)

val write_for_mac : t -> Bytes.t -> off:int -> unit
(** [write_for_mac t buf ~off] writes exactly what {!bytes_for_mac}
    returns at [buf.(off)], without allocating — the in-place header
    encode of the burst fast path.
    @raise Invalid_argument if [size] bytes do not fit at [off]. *)

val pp : Format.formatter -> t -> unit
