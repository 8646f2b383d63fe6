(** AS-level topology and inter-domain routing.

    Transit ASes in APNA only forward on the destination AID (§IV-D3);
    routing is modelled as shortest-path (hop count) over an undirected AS
    graph, recomputed lazily after mutations. *)

type t

val create : unit -> t
val add_as : t -> Addr.aid -> unit

val connect : t -> Addr.aid -> Addr.aid -> Link.t -> unit
(** Adds both ASes if needed; replaces any existing link between them. *)

val link : t -> Addr.aid -> Addr.aid -> Link.t option

type wire
(** The connection between two ASes, found once: {!current} is always the
    link {!connect} last installed between them. *)

val wire : t -> Addr.aid -> Addr.aid -> wire option
val current : wire -> Link.t

val next_hop : t -> src:Addr.aid -> dst:Addr.aid -> Addr.aid option
(** [next_hop t ~src ~dst] is the neighbor to forward to, [None] when
    unreachable or already at the destination. *)

val path : t -> src:Addr.aid -> dst:Addr.aid -> Addr.aid list option
(** Full path including both endpoints. *)

val path_delay : t -> src:Addr.aid -> dst:Addr.aid -> bytes:int -> float option
(** End-to-end transit delay along the path for one frame. *)
