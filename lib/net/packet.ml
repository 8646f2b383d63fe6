type proto = Data | Control | Icmp

let proto_to_int = function Data -> 0 | Control -> 1 | Icmp -> 2

let proto_of_int = function
  | 0 -> Ok Data
  | 1 -> Ok Control
  | 2 -> Ok Icmp
  | n -> Error (Printf.sprintf "packet: unknown protocol %d" n)

let pp_proto ppf p =
  Format.pp_print_string ppf
    (match p with Data -> "data" | Control -> "control" | Icmp -> "icmp")

type t = { header : Apna_header.t; proto : proto; payload : string }

let make ~header ~proto ~payload = { header; proto; payload }
let wire_size t = Apna_header.size + 1 + String.length t.payload

let encode header_bytes t =
  let w = Apna_util.Rw.Writer.create ~capacity:(wire_size t) () in
  Apna_util.Rw.Writer.bytes w header_bytes;
  Apna_util.Rw.Writer.u8 w (proto_to_int t.proto);
  Apna_util.Rw.Writer.bytes w t.payload;
  Apna_util.Rw.Writer.contents w

let to_bytes t = encode (Apna_header.to_bytes t.header) t
let digest t = t.header.src_ephid ^ t.header.mac
let bytes_for_mac t = encode (Apna_header.bytes_for_mac t.header) t

(* [bytes_for_mac] assembled in place: header with zeroed MAC, protocol
   shim, payload. Returns the length written (= [wire_size t]). *)
let write_for_mac t buf =
  let len = wire_size t in
  if len > Bytes.length buf then invalid_arg "Packet.write_for_mac: buffer";
  Apna_header.write_for_mac t.header buf ~off:0;
  Bytes.unsafe_set buf Apna_header.size (Char.unsafe_chr (proto_to_int t.proto));
  Bytes.blit_string t.payload 0 buf (Apna_header.size + 1)
    (String.length t.payload);
  len

let of_bytes s =
  let open Apna_util.Rw in
  if String.length s < Apna_header.size + 1 then Error "packet: truncated"
  else begin
    let* header = Apna_header.of_bytes (String.sub s 0 Apna_header.size) in
    let r = Reader.of_string (String.sub s Apna_header.size (String.length s - Apna_header.size)) in
    let* proto_int = Reader.u8 r in
    let* proto = proto_of_int proto_int in
    Ok { header; proto; payload = Reader.rest r }
  end

let pp ppf t =
  Format.fprintf ppf "[%a %a %dB]" pp_proto t.proto Apna_header.pp t.header
    (String.length t.payload)
