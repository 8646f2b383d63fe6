(** SHA-256 (FIPS 180-4). *)

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes — relevant for HMAC key padding. *)

type ctx
(** Incremental hashing context (mutable). *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val feed_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit
(** Like {!feed} over a [Bytes] range, without copying the range out
    first — the burst fast path hashes arena buffers through this.
    @raise Invalid_argument on an out-of-bounds range. *)

val finalize : ctx -> string
(** [finalize c] pads, returns the 32-byte digest, and invalidates [c]. *)

val finalize_into : ctx -> Bytes.t -> off:int -> unit
(** [finalize_into c out ~off] writes the 32-byte digest at [out.(off)]
    and invalidates [c] — allocation-free, padding is built in the
    context's own block buffer. *)

val reset : ctx -> unit
(** Return [c] to the freshly-initialized state so it can hash again;
    the reusable-context cycle is [reset]/[feed]/[finalize_into]. *)

val midstate : string -> int array
(** [midstate block] is the 8-word chaining value after hashing the one
    64-byte [block] — what HMAC stores for its ipad and opad blocks.
    @raise Invalid_argument unless [block] is 64 bytes. *)

val resume : ctx -> int array -> unit
(** [resume c m] puts [c] where it would be after hashing the block whose
    {!midstate} is [m]: 64 bytes counted, ready for the rest of the
    message. Allocation-free, so [resume]/[feed_bytes]/[finalize_into]
    is the reusable-context cycle that skips the first block.
    @raise Invalid_argument unless [m] has 8 words. *)

val digest : string -> string
val digest_list : string list -> string
(** [digest_list parts] hashes the concatenation of [parts] without building
    the concatenated string. *)
