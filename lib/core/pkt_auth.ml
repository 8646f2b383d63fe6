open Apna_net
module C = Apna_crypto.Chacha20_poly1305

(* Hash-then-PRF (DESIGN.md, "Packet MAC"): the first 48 bytes of the
   ChaCha20 block under kHA's auth key and this fixed nonce are the
   [hash_prf] key, r ‖ PRF key; the tag is the first 8 bytes of its
   output over the MAC input. *)
let domain = "apna-pkt-mac"

(* A key prepared for repeated use: the subkeys, the 16-byte output and
   the buffer [seal_prepared] assembles the MAC input in, grown on demand
   (a border router, which passes its own scratch, never grows it). One
   in-flight MAC per value, which the border router's single-domain burst
   loop and a host's send path both respect. *)
type prepared = { key : string; out : Bytes.t; mutable input : Bytes.t }

let prepare ~auth_key =
  {
    key = C.xor ~key:auth_key ~nonce:domain ~counter:0 (String.make C.hash_prf_key_size '\000');
    out = Bytes.create 16;
    input = Bytes.empty;
  }

(* The tag of buf[0..len) in p.out[0..mac_size). *)
let[@inline] tag_into p buf len = C.hash_prf ~key:p.key buf ~off:0 ~len ~out:p.out

let mac_prepared p pkt =
  if Bytes.length p.input < Packet.wire_size pkt then
    p.input <- Bytes.create (Packet.wire_size pkt);
  tag_into p p.input (Packet.write_for_mac pkt p.input);
  Bytes.sub_string p.out 0 Apna_header.mac_size

let mac ~auth_key pkt = mac_prepared (prepare ~auth_key) pkt

let seal_prepared p (pkt : Packet.t) =
  { pkt with header = Apna_header.with_mac pkt.header (mac_prepared p pkt) }

let seal ~auth_key pkt = seal_prepared (prepare ~auth_key) pkt

let verify ~auth_key (pkt : Packet.t) =
  Apna_util.Ct.equal pkt.header.mac (mac ~auth_key pkt)

let verify_in ~scratch p (pkt : Packet.t) =
  if Bytes.length scratch < Packet.wire_size pkt then
    (* Packet larger than the arena slot: take the allocating path
       rather than constrain the MTU here. *)
    Apna_util.Ct.equal pkt.header.mac (mac_prepared p pkt)
  else begin
    tag_into p scratch (Packet.write_for_mac pkt scratch);
    Apna_util.Ct.equal_bytes pkt.header.mac p.out ~off:0
  end
