(** AES-128/AES-256 block cipher (FIPS 197) with the CTR and CBC-MAC modes
    used by the EphID construction (paper §V-A1, Fig. 6).

    This is the software stand-in for the Intel AES-NI instructions used by
    the paper's prototype: identical cipher, identical modes, so EphID tokens
    are bit-compatible with the paper's construction. *)

type key
(** An expanded key schedule. *)

val expand : string -> key
(** [expand k] expands a 16-byte (AES-128) or 32-byte (AES-256) key.
    @raise Invalid_argument on other lengths. *)

val key_size : key -> int
(** Size in bytes of the original key (16 or 32). *)

val encrypt_block : key -> string -> string
(** [encrypt_block k block] enciphers one 16-byte block. *)

val encrypt_block_into :
  key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit
(** Allocation-free {!encrypt_block} over buffer ranges; the expanded
    schedule in [key] is reused across calls, which is how the burst
    pipeline amortizes key setup. [src] and [dst] may be the same
    buffer at the same offset (in-place). *)

val decrypt_block : key -> string -> string

module Ctr : sig
  val crypt : key:key -> nonce:string -> string -> string
  (** [crypt ~key ~nonce data] en/de-ciphers [data] (any length) in counter
      mode. [nonce] is the initial 16-byte counter block; the final 4 bytes
      increment big-endian per block and wrap to zero without carrying
      into byte 11. Encryption and decryption coincide. Allocates only
      the result and one 32-byte scratch. *)

  val keystream : key:key -> nonce:string -> int -> string
  (** [keystream ~key ~nonce len] is [crypt] over [len] zero bytes. *)
end

module Cbc_mac : sig
  val mac : key:key -> string -> string
  (** [mac ~key data] is the 16-byte CBC-MAC tag. [data] must be a non-empty
      multiple of 16 bytes: CBC-MAC is only secure for fixed-length inputs,
      which is how the EphID construction uses it (fixed 16-byte input). *)

  val mac_into :
    key:key -> src:Bytes.t -> off:int -> len:int -> out:Bytes.t ->
    out_off:int -> unit
  (** Allocation-free {!mac} over a buffer range, writing the 16-byte tag
      at [out.(out_off)]. [out] doubles as the accumulator, so it must not
      overlap [src.(off..off+len)]. *)
end
