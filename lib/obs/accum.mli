(** Online statistical accumulators shared by the simulator and the
    observability layer: counters, mean/variance accumulators (Welford),
    and fixed-bucket histograms with percentile estimates. [Apna_obs]
    builds the metrics registry on them; benches and simulations use
    them directly. *)

module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

module Hist : sig
  type t

  val create : ?buckets:int -> lo:float -> hi:float -> unit -> t
  (** Linear-bucket histogram over [\[lo, hi\]]; out-of-range samples clamp
      to the edge buckets. *)

  val add : t -> float -> unit
  val count : t -> int

  val sum : t -> float
  (** Sum of the raw (unclamped) samples. *)

  val mean : t -> float
  (** Mean of the raw samples; [nan] when empty. *)

  val lo : t -> float
  val hi : t -> float

  val clamped_lo : t -> int
  (** Samples that fell strictly below [lo] and were clamped into the
      first bucket. They still count toward [count]/[sum]/[mean], but the
      percentile estimate can't see below [lo]. *)

  val clamped_hi : t -> int
  (** Samples strictly above [hi], clamped into the last bucket. A
      nonzero value means the high percentiles are understated — the
      histogram is saturated and its range should be widened. *)

  val clamped : t -> int
  (** [clamped_lo + clamped_hi]. *)

  val percentile : t -> float -> float
  (** [percentile t 0.99] estimates the p99 by linear interpolation within
      the bucket. Returns [nan] when empty. *)
end

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
end
