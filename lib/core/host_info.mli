(** The per-AS [host_info] database (paper Fig. 2/4): what every
    infrastructure entity of an AS (routers, MS, AA) knows about each
    bootstrapped host — its HID and the shared kHA keys — so it can
    authenticate the host's packets. *)

type entry = {
  kha : Keys.host_as;
  mutable revoked : bool;  (** HID revoked (identity-minting defence, §VI-A). *)
}

type t

val create : ?expected_hosts:int -> unit -> t
(** The database is sharded by HID hash into 256 buckets so a
    paper-scale population (§V-A3: 1.27 M hosts) never pays a single
    monolithic Hashtbl resize; [expected_hosts] pre-sizes each shard. *)

val shard_count : t -> int

val register : t -> Apna_net.Addr.hid -> Keys.host_as -> unit

val find : t -> Apna_net.Addr.hid -> (entry, Error.t) result
(** [Error Unknown_host] when absent, [Error (Revoked _)] when revoked. *)

val mem_valid : t -> Apna_net.Addr.hid -> bool
val revoke_hid : t -> Apna_net.Addr.hid -> unit
val count : t -> int

val generation : t -> int
(** Monotone counter bumped whenever an existing binding changes:
    {!revoke_hid} on a known HID, or {!register} replacing one (re-key).
    First-time registrations don't bump — an unknown HID can never have
    produced a cached validation. See {!Revocation.generation}. *)
