(** An APNA packet: header, upper-layer protocol tag, payload.

    The protocol tag plays the role of Fig. 9's "Protocol = UL" field: it
    tells the receiving entity how to interpret the payload. It travels as a
    one-byte shim between header and payload and is covered by the packet
    MAC. *)

type proto =
  | Data  (** encrypted session data *)
  | Control  (** bootstrap / EphID issuance / shutoff / DNS messages *)
  | Icmp  (** network feedback (§VIII-B) *)

type t = { header : Apna_header.t; proto : proto; payload : string }

val make : header:Apna_header.t -> proto:proto -> payload:string -> t

val wire_size : t -> int
(** Bytes on the wire: header + shim + payload. *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result

val digest : t -> string
(** Source EphID ‖ MAC (24 bytes): the key under which an AS's retention
    log records a packet's egress and its broker attributes it. The MAC
    alone does not name one packet: a host holding its host–AS key can
    give packets of two of its EphIDs the same tag (DESIGN.md, "Packet
    MAC"). *)

val bytes_for_mac : t -> string
(** Serialization with a zeroed MAC field — the input the source host and
    its AS agree to authenticate (§IV-D2). *)

val write_for_mac : t -> Bytes.t -> int
(** [write_for_mac t buf] assembles {!bytes_for_mac} in place at the
    start of [buf] and returns the length written ([wire_size t]) —
    what the burst pipeline feeds the packet MAC without allocating.
    @raise Invalid_argument if [buf] is too small. *)

val pp : Format.formatter -> t -> unit
