(** APNA gateway: legacy IPv4 hosts on APNA without touching their network
    stack (paper §VII-D).

    A gateway is an APNA host plus a packet translator. Legacy IPv4
    packets entering on the LAN side are tunnelled — GRE-encapsulated, as
    in the paper's deployment story (Fig. 9) — through encrypted APNA
    sessions; each IPv4 flow gets its own source EphID.

    Client side: the gateway resolves the server's name through DNS (the
    record carries both the AID:EphID certificate and the server's public
    IPv4 address) and maps the destination address of outgoing IPv4
    packets to the APNA destination.

    Server side: {!expose} publishes a receive-only EphID; inbound
    sessions are assigned {e virtual endpoints} — private addresses drawn
    from 10.200.0.0/16 — so distinct remote flows stay distinguishable to
    the legacy server, exactly the paper's virtual-endpoint construction. *)

type t

val create : name:string -> rng:Apna_crypto.Drbg.t -> t

val host : t -> Host.t
(** The underlying APNA host: attach it with {!As_node.add_host} and
    bootstrap it like any other host. *)

val on_ipv4_output : t -> (string -> unit) -> unit
(** Installs the LAN-side output: raw IPv4 packets the gateway emits
    toward its legacy hosts. *)

val resolve : t -> name:string -> ?dns:Cert.t -> (unit -> unit) -> unit
(** DNS lookup of [name]; on success the record's IPv4 → AID:EphID mapping
    is installed (the paper's "gateway inspects the DNS reply"). *)

val ipv4_input : t -> string -> unit
(** A raw IPv4 packet from a legacy host on the LAN side. Unroutable
    packets (no mapping) are dropped with a log message. *)

val expose :
  t -> name:string -> server_ip:Apna_net.Addr.hid -> ?dns:Cert.t ->
  (unit -> unit) -> unit
(** Server side: publish a receive-only EphID under [name] with the
    server's public [server_ip] in the record, and start translating
    inbound sessions to the legacy server. *)

val active_flows : t -> int
val virtual_endpoints : t -> int
