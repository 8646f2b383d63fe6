(** Deterministic misbehavior-campaign generator.

    Turns a configurable fraction of a {!Trace} population malicious and
    emits a schedule of misbehavior bursts whose activation times follow
    the trace's diurnal curve (a botnet ramps with the busy hour it hides
    in). The schedule is a pure function of [(seed, config)] — byte-
    identical across runs — so an attack experiment replays exactly, and a
    forensic question ("which packets should have died, and where?") has a
    ground-truth answer. *)

(** How a shutoff-spam request is malformed. [Forged] passes admission but
    fails signature verification (attacker-paid Ed25519 work for the AA);
    [Duplicate_evidence] replays a once-valid request (dies in the dedup
    set); [Expired_evidence] quotes a source EphID outside its validity
    window (dies at the freshness check). *)
type spam_kind = Forged | Duplicate_evidence | Expired_evidence

type behavior =
  | Unwanted_traffic
      (** data-plane flood at a victim host, provoking shutoff requests *)
  | Replay_flood
      (** captured-packet replay against the session replay filters *)
  | Ephid_bruteforce
      (** random EphID guesses at the border router (Fig. 4 rejects) *)
  | Shutoff_spam of spam_kind
      (** requests aimed at the accountability agent itself *)

type event = {
  at : float;  (** activation time, seconds into the trace window *)
  host : int;  (** trace host index *)
  behavior : behavior;
  volume : int;  (** packets (or requests) in this burst *)
}

(** Behavior mix weights (normalized internally). *)
type mix = {
  unwanted : float;
  replay : float;
  bruteforce : float;
  spam : float;
}

type config = {
  trace : Trace.config;  (** population, diurnal shape, window *)
  fraction : float;  (** fraction of hosts malicious, e.g. [0.01] *)
  events_per_host : float;  (** mean misbehavior bursts per bot *)
  volume_mean : float;  (** mean packets per burst *)
  mix : mix;
}

val default : trace:Trace.config -> fraction:float -> config
(** 2 bursts per bot of ~6 packets under {!default_mix}. *)

val malicious_count : config -> int
(** Bot population: [round (fraction · hosts)], at least 1 when the
    fraction is positive. *)

val generate : seed:string -> config -> event list
(** The campaign schedule, sorted by activation time (ties broken on
    host, behavior, volume — a total order, so the output is canonical).
    Same [seed] and [config] → identical list. *)

val schedule_to_string : event list -> string
(** Canonical one-line-per-event serialization — what the determinism
    property test compares byte-for-byte. *)

val count_by_behavior : event list -> (string * int) list
