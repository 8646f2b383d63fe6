(** The small worlds every scenario runs on, and the steps their workloads
    are made of.

    The paper shows its claims on one picture: a few ASes in a line, hosts
    that bootstrap (Fig. 2), obtain EphIDs (Fig. 3) and connect (§IV-D),
    sometimes with link faults, shutoff or a misbehavior campaign added.
    [apnad], the benches, the examples and the tests all build that
    picture with these functions. Each one runs the network where a step
    needs the reply, and fails loudly when the protocol does not deliver
    one. *)

(** {2 Building a world} *)

val line :
  seed:string ->
  ?dns:int * string ->
  ?retention:int ->
  ?aa_limits:Accountability.limits ->
  ?link:(unit -> Apna_net.Link.t) ->
  int list ->
  Network.t
(** [line ~seed [a; b; c]] creates a network, adds the ASes in list order
    and links each one to the next. [dns = (asn, zone)] runs the DNS
    service for [zone] in AS [asn]; [retention] turns on the §VIII-H audit
    log of that one AS; [aa_limits] is every AS's admission policy; [link]
    builds each inter-AS link in turn (default: fault-free, 10 Gbps,
    5 ms). *)

val host :
  ?granularity:Granularity.t ->
  Network.t ->
  as_number:int ->
  name:string ->
  credential:string ->
  Host.t
(** Adds a host to the AS and bootstraps it (Fig. 2); raises [Failure]
    if bootstrapping fails. *)

val endpoint :
  ?lifetime:Lifetime.t -> ?receive_only:bool -> Network.t -> Host.t -> Host.endpoint
(** Requests an EphID for the host and runs the network until it lands;
    raises [Failure] if none is issued. *)

val connect :
  ?data0:string -> ?expect_accept:bool -> Network.t -> Host.t -> remote:Cert.t ->
  Session.t
(** Connects the host to [remote], runs the network and returns the
    session. *)

(** {2 Workload steps} *)

val pace : Network.t -> n:int -> span:float -> (int -> unit) -> unit
(** [pace net ~n ~span f] schedules [f i] for [i = 0 .. n-1] at
    [span * i / n] simulated seconds from now: [n] sends spread evenly
    over [span]. *)

(** {2 Misbehavior injection}

    The attack steps of a misbehavior campaign ([Apna_workload.Campaign]),
    each run at the moment of its event. [sent] counts what actually went out. *)

val auto_shutoff : Host.t -> pool:Apna_net.Packet.t list ref -> built:int ref -> unit
(** The victim's defence: every frame the host decrypts is kept in [pool]
    (what a replaying attacker has seen accepted) and becomes evidence for
    a shutoff request against its sender (§IV-E); [built] counts the
    requests sent. *)

val flow :
  Network.t ->
  Host.t ->
  remote:Cert.t ->
  volume:int ->
  gap:(int -> float) ->
  frame:(int -> string) ->
  sent:int ref ->
  unit
(** A session to [remote] carrying [volume] frames: [frame 0] as 0-RTT
    data, then [frame k] sent [gap k] simulated seconds from now. *)

val replay :
  As_node.t -> pool:Apna_net.Packet.t list -> cursor:int ref -> volume:int ->
  sent:int ref -> unit
(** Re-submits [volume] frames from [pool] at the AS's border router,
    round-robin from [cursor]; nothing when the pool is empty. *)

val bruteforce : Network.t -> As_node.t -> dst:int -> volume:int -> sent:int ref -> unit
(** Submits [volume] data packets with random 16-byte source and
    destination EphIDs towards AS [dst] at the AS's border router. *)
