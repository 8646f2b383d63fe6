(** Packet flight recorder: typed lifecycle events in a bounded ring.

    This is the one trace sink. A record answers "what happened to this
    packet": it records one step of a packet's journey — submitted by a
    host, accepted or dropped at a border router, placed on (or lost on)
    an inter-AS link, delivered, encapsulated by a gateway, named in a
    shutoff. Records sharing a key are assembled into an end-to-end causal
    timeline by {!Journey}, summarized per stage by {!stage_summary} and
    exported by {!Chrome_trace}.

    Most records are instants ([dur = 0.0]). A timed record also answers
    "how long did stage S take": the caller takes {!start} before the
    stage and passes it as [~since] when recording.

    The key is the FNV-1a 64-bit hash of the packet MAC ({!key_of_string}),
    so every stage of one packet shares it. A control-plane
    retransmission reuses the original packet bytes (same MAC), so all
    attempts of one request land in one journey.

    A sink starts disabled and recording is bounded-memory:
    instrumentation sites guard with [if Event.enabled Event.default then
    ...], one mutable load and a branch while the recorder is off — no
    hashing, no allocation, no clock read. *)

type fate =
  | Delivered  (** frame scheduled for on-time delivery *)
  | Lost  (** frame dropped by injected link loss *)
  | Duplicated  (** a second injected copy of the frame *)
  | Reordered  (** delivered copy carrying injected reorder jitter *)
  | Queue_drop  (** tail-dropped by a bounded link sender queue *)

type egress_outcome =
  | Egress_ok
  | Egress_drop of string  (** {!Error.kind_label} of the drop reason *)

type ingress_outcome =
  | Ingress_deliver  (** destination is local: handed to delivery *)
  | Ingress_forward of int  (** transit: forwarded to this AS number *)
  | Ingress_drop of string  (** {!Error.kind_label} of the drop reason *)

type kind =
  | Host_send of { aid : int; host : string }
      (** A host sealed and submitted the packet to its AS. *)
  | Br_egress of { aid : int; outcome : egress_outcome }
      (** Fig. 4 egress pipeline verdict at the source border router. *)
  | Link_transit of { src : int; dst : int; fate : fate }
      (** One crossing of the [src -> dst] link (for the host access hop
          under injected faults, [src = dst] = the AS number). *)
  | Br_ingress of { aid : int; outcome : ingress_outcome }
      (** Ingress pipeline verdict (deliver / forward / drop). *)
  | Deliver of { aid : int; hid : int }
      (** Packet handed to a local host or infrastructure service. *)
  | Gw_encap of { gateway : string }
      (** Legacy IPv4 packet encapsulated into an APNA tunnel; keyed on
          the IPv4 bytes so encap and decap of one frame share a key. *)
  | Gw_decap of { gateway : string }
      (** Tunnel payload decapsulated back to IPv4. *)
  | Shutoff of { aid : int }
      (** A shutoff was executed against this packet (keyed on the
          evidence packet's MAC, joining the offending journey). *)
  | Migrate of { aid : int; host : string; reason : string }
      (** A host rebound a live session onto a fresh EphID (keyed on the
          connection id, so all migrations of one session share a
          timeline); [reason] is "renewal-margin" for proactive renewal or
          the ICMP reason label for reactive recovery. Timed: [dur] is the
          round trip from the fresh EphID's request to its issuance. *)
  | Broker_decision of { aid : int; granted : bool; query : string }
      (** The privacy broker granted or refused a linkage request (keyed
          on the request correlation id); [query] is the query label
          ("deanonymize", "bindings-of", "attribute-packet"). *)
  | Alert_state of { rule : string; series : string; state : string }
      (** An {!Alert} rule instance changed state ("pending", "firing",
          "resolved"); keyed on the rule name so one rule's transitions
          form a timeline. *)

type record = { key : int64; time : float; dur : float; seq : int; kind : kind }
(** [time] is the sink clock when the record was appended (simulated
    seconds inside a simulation); a timed record covers
    [[time - dur, time]], an instant has [dur = 0.0]. [seq] is the global
    record order, for deterministic reconstruction. *)

type sink

val create_sink : ?capacity:int -> ?enabled:bool -> unit -> sink
(** Ring capacity defaults to 16384 events; [enabled] to false. *)

val default : sink
(** Process-wide sink the built-in instrumentation records into. *)

val set_enabled : sink -> bool -> unit
val enabled : sink -> bool

val set_clock : sink -> (unit -> float) -> unit
(** Clock stamped onto records. Only consulted while enabled;
    [Network.create] points the default sink at simulated time. *)

val start : sink -> float
(** Start time for a timed record: the clock while enabled, [0.0] without
    reading the clock while disabled. *)

val record : sink -> key:int64 -> ?since:float -> kind -> unit
(** Append one event; with [~since] (a {!start} reading) it is a timed
    record of duration [clock () - since]. No-op while disabled — but
    callers on hot paths should guard with {!enabled} so the [kind] is
    never even built. *)

val key_of_string : string -> int64
(** FNV-1a 64-bit hash, for deriving keys from packet MACs or names. *)

val recorded : sink -> int
(** Total events ever recorded (may exceed capacity). *)

val capacity : sink -> int

val evicted : sink -> int
(** [max 0 (recorded - capacity)]: events overwritten by ring wraparound.
    When nonzero, assembled journeys may be missing their oldest hops. *)

val to_list : sink -> record list
(** Retained events, oldest first (at most [capacity]). *)

val by_key : sink -> int64 -> record list
(** Retained events for one key, in record order — a packet's journey. *)

val clear : sink -> unit

(** {2 Rendering helpers} *)

val fate_label : fate -> string

val stage_label : kind -> string
(** Stage name. The packet path uses the packet-cost ledger's layer
    names: ["host.send"], ["border_router.egress"], ["link.transit"],
    ["border_router.ingress"], ["as_node.deliver"]; the rest are
    ["gw.encap"], ["gw.decap"], ["shutoff"], ["host.session.migrate"],
    ["broker.decide"] and ["alert"]. *)

val stage_summary : sink -> (string * int * float) list
(** Per-stage (name, record count, mean [dur]) over retained records,
    sorted by name. When {!evicted} is nonzero it covers only the newest
    [capacity] records. *)

val where : kind -> string
(** Location tag: ["AS64500"], ["AS64500->AS64501"], ["gw:lan-a"]. *)

val describe : kind -> string
(** One human line: outcome plus location, for waterfalls and exports. *)
