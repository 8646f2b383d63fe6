open Apna_net

let mac ~auth_key pkt =
  String.sub
    (Apna_crypto.Hmac.Sha256.mac ~key:auth_key (Packet.bytes_for_mac pkt))
    0 Apna_header.mac_size

let seal ~auth_key (pkt : Packet.t) =
  { pkt with header = Apna_header.with_mac pkt.header (mac ~auth_key pkt) }

let verify ~auth_key (pkt : Packet.t) =
  Apna_util.Ct.equal pkt.header.mac (mac ~auth_key pkt)

(* A key prepared for repeated use: HMAC midstates computed once, digest
   buffer reused. One in-flight MAC per value (the prepared HMAC context
   is mutable), which the border router's single-domain burst loop and a
   host's send path both respect. *)
type prepared = { hmac : Apna_crypto.Hmac.Sha256.prepared; digest : Bytes.t }

let prepare ~auth_key =
  { hmac = Apna_crypto.Hmac.Sha256.prepare ~key:auth_key; digest = Bytes.create 32 }

let mac_prepared p pkt =
  String.sub
    (Apna_crypto.Hmac.Sha256.mac_list_prepared p.hmac [ Packet.bytes_for_mac pkt ])
    0 Apna_header.mac_size

let seal_prepared p (pkt : Packet.t) =
  { pkt with header = Apna_header.with_mac pkt.header (mac_prepared p pkt) }

let verify_in ~scratch p (pkt : Packet.t) =
  if Bytes.length scratch < Packet.wire_size pkt then
    (* Packet larger than the arena slot: take the allocating path
       rather than constrain the MTU here. *)
    Apna_util.Ct.equal pkt.header.mac (mac_prepared p pkt)
  else begin
    let len = Packet.write_for_mac pkt scratch in
    Apna_crypto.Hmac.Sha256.mac_into p.hmac ~src:scratch ~off:0 ~len
      ~out:p.digest ~out_off:0;
    Apna_util.Ct.equal_bytes pkt.header.mac p.digest ~off:0
  end
