(** Per-packet authentication (paper §IV-D2).

    Every packet a host sends carries an 8-byte MAC computed with the
    kHA authentication key shared between host and AS. This is the link
    between a packet and its sender: border routers verify it on egress,
    and the accountability agent re-verifies it when judging shutoff
    evidence.

    The MAC is a nonce-free hash-then-PRF (DESIGN.md, "Packet MAC"): one
    ChaCha20 block under the auth key and the fixed nonce
    ["apna-pkt-mac"] derives r and a PRF key; the tag is the first 8
    bytes of {!Apna_crypto.Chacha20_poly1305.hash_prf} over the packet
    with its MAC field zeroed. *)

val mac : auth_key:string -> Apna_net.Packet.t -> string
(** The 8-byte tag over the packet with its MAC field zeroed. Derives the
    subkeys on every call. *)

val seal : auth_key:string -> Apna_net.Packet.t -> Apna_net.Packet.t
(** Returns the packet with its header MAC filled in. *)

val verify : auth_key:string -> Apna_net.Packet.t -> bool

type prepared
(** An auth key prepared for repeated use: the two subkeys are derived
    once, and the output buffer and the MAC-input buffer are reused, so
    each {!verify_in} is allocation-free. A prepared key holds mutable
    state — one MAC in flight per value. *)

val prepare : auth_key:string -> prepared

val seal_prepared : prepared -> Apna_net.Packet.t -> Apna_net.Packet.t
(** {!seal} under a prepared key, byte-identical — how a host seals
    every packet it sends. The MAC input is assembled in the key's own
    buffer. *)

val verify_in : scratch:Bytes.t -> prepared -> Apna_net.Packet.t -> bool
(** [verify_in ~scratch v pkt] is {!verify} with the MAC input assembled
    in [scratch] — the border router passes an arena slot. Falls back to
    the key's own buffer when [scratch] is smaller than the packet's wire
    size. *)
