(** The privacy broker — the {e only} sanctioned path from an EphID back
    to a host identity.

    APNA's bargain (paper §III, §VIII-H) is accountability {e through the
    AS}: the AS alone can link EphID → HID → subscriber, and that linkage
    is supposed to happen only for lawful, targeted requests. This module
    makes the bargain operational. Direct calls to [Audit.bindings_of] /
    [Audit.find_sender] are forbidden outside this module ([make check]
    greps for violators); every linkage instead arrives here as a typed,
    MAC-authenticated request from a registered requester, is charged
    against that requester's {!Budget}, and lands — grant or refusal — in
    the hash-chained {!Journal}.

    Authorization matrix: the AA may deanonymize EphIDs and attribute
    packets (its shutoff duties); law enforcement may additionally pull a
    subscriber's full binding history; a peer AS may only attribute
    packets it can already exhibit ("did this leave your network?"). *)

type role = Accountability_agent | Law_enforcement | Peer_as

(** Typed linkage queries, with a stable wire encoding so requests can
    travel the data plane to the broker's service EphID (reserved HID 5). *)
module Request : sig
  type query =
    | Deanonymize of Apna.Ephid.t
        (** EphID → (HID, expiry, subscriber credential). *)
    | Bindings_of of Apna_net.Addr.hid
        (** Every (time, EphID) the retention log holds for a subscriber. *)
    | Attribute_packet of string
        (** Packet digest ({!Apna_net.Packet.digest}) → (time, EphID,
            HID, credential) from the egress retention stream. *)

  type t = {
    corr : int64;
    requester : string;
    query : query;
    mac : string;  (** HMAC-SHA256 under the requester's shared key *)
  }

  val query_label : query -> string
  (** ["deanonymize"] / ["bindings-of"] / ["attribute-packet"] — used in
      metrics labels and journal lines. *)

  val sign : key:string -> corr:int64 -> requester:string -> query:query -> t
  val verify : key:string -> t -> bool
  val to_bytes : t -> string

  val of_bytes : string -> (t, Apna.Error.t) result
  (** Total: malformed bytes are [Error (Malformed _)], never an
      exception. *)
end

module Response : sig
  type grant =
    | Identity of {
        hid : Apna_net.Addr.hid;
        expiry : int;
        credential : string option;
      }
    | Bindings of (int * Apna.Ephid.t) list
    | Attribution of {
        at : int;
        ephid : Apna.Ephid.t;
        hid : Apna_net.Addr.hid;
        credential : string option;
      }

  type t =
    | Granted of { corr : int64; cost : int; remaining : int; grant : grant }
    | Refused of { corr : int64; reason : Apna.Error.t; remaining : int }

  val to_bytes : t -> string
  val of_bytes : string -> (t, Apna.Error.t) result
end

val allowed : role -> Request.query -> bool

type t

val create :
  keys:Apna.Keys.as_keys ->
  ?audit:Apna.Audit.t ->
  ?credential_of:(Apna_net.Addr.hid -> string option) ->
  ?budget:Budget.t ->
  unit ->
  t
(** A broker for the AS holding [keys]. Without [audit] (retention
    disabled) only [Deanonymize] can be served — the stateless EphID
    decryption needs no log. [credential_of] resolves HID → subscriber
    credential for grant payloads (defaults to none). *)

val register_requester :
  ?capacity:int -> ?refill:int -> t -> id:string -> role:role -> key:string ->
  now:int -> unit
(** Registers a requester principal: its role, its request-MAC key and
    its budget account (full at registration). *)

val handle : t -> now:int -> Request.t -> Response.t
(** The full pipeline: authenticate (known requester, valid MAC) →
    authorize (role admits the query) → charge the budget → execute.
    Failed queries are still charged — probing is not free — and every
    decision is journaled and counted before the response returns. *)

val journal : t -> Journal.t
val budget : t -> Budget.t

val verify_journal : t -> (unit, string) result

val grants : t -> int
val refusals : t -> int

val attach : t -> Apna.As_node.t -> unit
(** Wires the broker into a live AS: installs {!handle_bytes} as the
    node's broker-HID dispatch handler and hooks the AA's decision sink so
    shutoff grants/refusals share this journal. *)

val for_node : ?budget:Budget.t -> Apna.As_node.t -> t
(** Convenience: builds a broker from the node's own keys, retention log
    and registry (credential lookup), then {!attach}es it. *)
