(** Strengthened shutoff via path attestations (paper §VIII-C).

    §IV-E authorizes only the destination to request a shutoff, because
    only the destination provably received the packet. The paper notes
    that combining APNA with path-validation proposals (Passport, ICING,
    OPT) extends authorization to on-path ASes. This module implements
    that combination in the OPT style:

    - any two ASes share a pairwise symmetric key derived from their
      (RPKI-registered) X25519 keys — the DRKey idea, no per-pair setup;
    - the source AS's border router stamps outgoing packets with one
      attestation per on-path AS: MAC(k_{S,i}, packet-MAC ‖ AID_i);
    - an on-path AS keeps the attestation of a packet it carried and can
      later present it to the source's accountability agent, which
      re-derives k_{S,i} and verifies — proof the claimant really carried
      the packet, so its shutoff request is accepted
      ({!Accountability.enqueue} remains the destination path;
      {!verify_claim} is the on-path extension). *)

type attestation = { aid : Apna_net.Addr.aid; mac : string }
(** One on-path AS's proof; [mac] is 16 bytes. *)

val pairwise_key : Keys.as_keys -> peer_dh_pub:string -> (string, Error.t) result
(** [pairwise_key keys ~peer_dh_pub] is the symmetric key this AS shares
    with the AS owning [peer_dh_pub] — both sides derive the same value. *)

val attest :
  src_keys:Keys.as_keys ->
  path:(Apna_net.Addr.aid * string) list ->
  Apna_net.Packet.t ->
  (attestation list, Error.t) result
(** [attest ~src_keys ~path pkt] builds one attestation per [(aid,
    dh_pub)] on the path — run by the source border router at egress.
    Derives each pairwise key; production routers cache them, see
    {!attest_cached}. *)

val attest_cached :
  keys:(Apna_net.Addr.aid * string) list ->
  Apna_net.Packet.t ->
  attestation list
(** [attest_cached ~keys pkt] stamps with precomputed pairwise keys
    ([(aid, pairwise_key)] pairs) — the steady-state per-packet path. *)

val verify_claim :
  src_keys:Keys.as_keys ->
  claimant:Apna_net.Addr.aid ->
  claimant_dh_pub:string ->
  attestation:attestation ->
  Apna_net.Packet.t ->
  (unit, Error.t) result
(** Source-AS side: check that [claimant] holds a genuine attestation for
    this packet, i.e. was on its forwarding path. *)

val to_bytes : attestation list -> string
val of_bytes : string -> (attestation list, Error.t) result
