(** Data-retention audit log (paper §VIII-H and conclusion: "ISPs can
    comply with data retention laws by storing customer to EphID bindings
    as well as the packets").

    An AS that enables retention records two append-only streams:
    - issuance: (time, EphID → HID) — the binding only it can produce;
    - egress: (time, EphID, packet digest) — evidence a specific packet
      left its network. The border router records
      {!Apna_net.Packet.digest} (source EphID ‖ MAC).

    Both support the lawful, targeted queries of §VIII-H — and nothing
    more: payloads are end-to-end encrypted, so retention never includes
    plaintext, and PFS means even full retention plus later key compromise
    does not decrypt past sessions. Entries expire after the configured
    retention window. *)

type t

val create : ?retain_s:int -> ?owner:string -> unit -> t
(** [retain_s] defaults to 7 days. [owner] labels the
    [apna_audit_{issuance,egress}_entries] gauges (the AS node passes its
    AID) so retained-entry counts stay attributable per log. *)

val record_issuance : t -> now:int -> ephid:Ephid.t -> hid:Apna_net.Addr.hid -> unit
val record_egress : t -> now:int -> ephid:Ephid.t -> digest:string -> unit

val bindings_of : t -> Apna_net.Addr.hid -> (int * Ephid.t) list
(** All EphIDs issued to a subscriber in the window, oldest first —
    answering "what identifiers did customer X hold?".

    Linkage discipline: the {e only} sanctioned caller is the privacy
    broker ([Apna_broker.Broker]), which authenticates the requester,
    charges its budget and journals the disclosure. [make check] runs a
    grep gate that fails the build on any other caller. *)

val find_sender : t -> digest:string -> (int * Ephid.t) option
(** Attribution of a retained packet digest: when it left and under which
    EphID — answering "did this packet leave your network, and who sent
    it?" (combined with {!bindings_of}/EphID decryption, the subscriber).
    Same linkage discipline as {!bindings_of}: broker-only. *)

val last_query_cost : t -> int
(** Entries examined by the most recent [bindings_of]/[find_sender] call —
    a count-based (not timing-based) probe the perf regression tests use
    to prove queries stay proportional to the answer, not the stream. *)

val gc : t -> now:int -> int
(** Drops entries older than the retention window; returns the count.
    Buckets carry their own length and oldest timestamp and gc pops an
    expiry heap, so a sweep touches only buckets that can contain expired
    entries — never the whole log. *)

val last_gc_cost : t -> int
(** Heap candidates examined plus bucket entries rebuilt by the most
    recent {!gc} — the count-based probe proving sweeps scale with what
    expired, not with what is retained. *)

val issuance_count : t -> int
val egress_count : t -> int
