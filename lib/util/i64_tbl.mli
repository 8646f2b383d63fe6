(** Hash tables keyed by [int64]: connection ids and correlation ids. *)

include Hashtbl.S with type key = int64
