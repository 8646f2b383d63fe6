(** In-network replay detection (paper §VIII-D, flagged there as future
    work: "ideally replayed packets should be filtered near the replay
    location, but this requires routers to perform replay detection ...
    without affecting forwarding performance").

    A border router cannot keep per-flow windows; instead this filter uses
    two alternating Bloom-filter generations keyed by the packet's unique
    host MAC. A packet is a replay if its key is present in either
    generation; insertions go to the current generation, and generations
    rotate every [rotate_every_s] seconds, bounding both memory and the
    detection horizon (one to two rotation periods).

    False positives (fresh packets flagged as replays) occur at the usual
    Bloom rate ~ (1 - e^{-kn/m})^k; the benchmarks measure it. False
    negatives are impossible within the horizon. *)

type t

val create :
  ?bits_log2:int -> ?hashes:int -> ?rotate_every_s:float -> unit -> t
(** Defaults: 2^20 bits (128 KiB) per generation, 4 hash functions,
    rotate every 10 s. *)

type verdict = Fresh | Replayed

val check_and_insert : t -> now:float -> string -> verdict
(** [check_and_insert t ~now key] — [key] is the packet's 8-byte MAC
    (unique per authenticated packet). Rotates generations as needed. *)

val memory_bytes : t -> int
