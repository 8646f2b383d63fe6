(** Per-requester privacy budgets — the metering half of the broker.

    Deanonymization is not free: every requester (the AA, a law-enforcement
    principal, a peer AS) holds a token-bucket account whose balance is
    spent by queries and refilled once per epoch. A requester that drains
    its account is refused — loudly, with a typed error and a journal
    entry — until the next refill. The design follows differential-privacy
    accounting practice (PySyft-style data-scientist budgets): visibility
    into identities is a consumable, not a capability. *)

type t

type outcome =
  | Charged of { cost : int; remaining : int }
  | Exhausted of { cost : int; remaining : int; retry_after_s : int }
      (** The charge was refused; [remaining] is the unchanged balance.
          [retry_after_s] is the seconds until refills cover [cost], or
          [-1] when no refill ever will (refill rate 0, or cost above
          capacity). *)

val create : ?epoch_s:int -> ?capacity:int -> ?refill:int -> unit -> t
(** A budget ledger. [epoch_s] (default 3600) is the refill period;
    [capacity] (default 100) and [refill] (default 25) are the defaults
    new accounts inherit unless {!register} overrides them. *)

val register : ?capacity:int -> ?refill:int -> t -> id:string -> now:int -> unit
(** Opens (or resets) the account for [id] with a full balance. *)

val known : t -> string -> bool

val remaining : t -> id:string -> now:int -> int
(** Current balance after lazy refill; 0 for unknown accounts. *)

val balance : t -> id:string -> int
(** The balance as the last charge or refill left it, with no refill
    applied; 0 for unknown accounts. *)

val charge : t -> id:string -> now:int -> cost:int -> outcome
(** Refills lazily (min(capacity, balance + refill × elapsed epochs)),
    then debits [cost] if covered. Unknown accounts are always
    [Exhausted] with [retry_after_s = -1]. *)

val accounts : t -> now:int -> (string * int * int) list
(** [(id, remaining, capacity)] for every account, sorted by id. *)
