(** HMAC (RFC 2104) over SHA-256 and SHA-512. *)

module type HASH = sig
  val digest_size : int
  val block_size : int
  val digest : string -> string
  val digest_list : string list -> string
end

module Make (H : HASH) : sig
  val mac : key:string -> string -> string
  (** [mac ~key msg] is the full-length HMAC tag. *)

  val mac_list : key:string -> string list -> string
  (** Tag over the concatenation of the parts, without concatenating. *)

  val verify : key:string -> tag:string -> string -> bool
  (** Constant-time tag check; accepts truncated tags of >= 8 bytes. *)
end

module Sha256 : sig
  val mac : key:string -> string -> string
  val mac_list : key:string -> string list -> string
  val verify : key:string -> tag:string -> string -> bool

  type prepared
  (** A key with the SHA-256 midstates after its ipad and opad blocks
      precomputed and a reusable hash context attached: repeated MACs
      under the same key skip the per-call key padding and the two pad
      compressions, and allocate nothing ({!mac_into}). A prepared key
      is mutable state — one MAC at a time per value. *)

  val prepare : key:string -> prepared

  val mac_into :
    prepared -> src:Bytes.t -> off:int -> len:int -> out:Bytes.t ->
    out_off:int -> unit
  (** [mac_into p ~src ~off ~len ~out ~out_off] writes the 32-byte tag
      over [src.(off..off+len)] at [out.(out_off)], allocation-free.
      Equal to [mac ~key (Bytes.sub_string src off len)]. *)

  val mac_list_prepared : prepared -> string list -> string
  (** [mac_list] under a prepared key; allocates only the result. *)
end

module Sha512 : sig
  val mac : key:string -> string -> string
  val mac_list : key:string -> string list -> string
  val verify : key:string -> tag:string -> string -> bool
end
