type t = {
  src_aid : Addr.aid;
  src_ephid : string;
  dst_aid : Addr.aid;
  dst_ephid : string;
  mac : string;
}

let ephid_size = 16
let mac_size = 8
let size = 4 + ephid_size + ephid_size + 4 + mac_size

let check_len label expected s =
  if String.length s <> expected then
    invalid_arg (Printf.sprintf "Apna_header: %s must be %d bytes" label expected)

(* Strings are immutable, so one zero MAC serves every fresh header. *)
let zero_mac = String.make mac_size '\000'

let make ~src_aid ~src_ephid ~dst_aid ~dst_ephid ?(mac = zero_mac) () =
  check_len "src_ephid" ephid_size src_ephid;
  check_len "dst_ephid" ephid_size dst_ephid;
  check_len "mac" mac_size mac;
  { src_aid; src_ephid; dst_aid; dst_ephid; mac }

let with_mac t mac =
  check_len "mac" mac_size mac;
  { t with mac }

let encode t ~mac =
  let w = Apna_util.Rw.Writer.create ~capacity:size () in
  Apna_util.Rw.Writer.bytes w (Addr.aid_to_bytes t.src_aid);
  Apna_util.Rw.Writer.bytes w t.src_ephid;
  Apna_util.Rw.Writer.bytes w t.dst_ephid;
  Apna_util.Rw.Writer.bytes w (Addr.aid_to_bytes t.dst_aid);
  Apna_util.Rw.Writer.bytes w mac;
  Apna_util.Rw.Writer.contents w

let to_bytes t = encode t ~mac:t.mac
let bytes_for_mac t = encode t ~mac:zero_mac

(* In-place encode with a zeroed MAC field: byte-identical to
   [bytes_for_mac] but written into a caller buffer without allocating —
   the first [size] bytes of the burst pipeline's MAC input. *)
(* Top level (not a local closure capturing [buf]): the burst fast path
   calls this per packet and must not allocate. *)
let put_u32 buf at v =
  Bytes.unsafe_set buf (at + 0) (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set buf (at + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set buf (at + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (at + 3) (Char.unsafe_chr (v land 0xff))

let write_for_mac t buf ~off =
  if off < 0 || off + size > Bytes.length buf then
    invalid_arg "Apna_header.write_for_mac: range";
  put_u32 buf off (Addr.aid_to_int t.src_aid);
  Bytes.blit_string t.src_ephid 0 buf (off + 4) ephid_size;
  Bytes.blit_string t.dst_ephid 0 buf (off + 4 + ephid_size) ephid_size;
  put_u32 buf (off + 4 + (2 * ephid_size)) (Addr.aid_to_int t.dst_aid);
  Bytes.fill buf (off + 4 + (2 * ephid_size) + 4) mac_size '\000'

let of_bytes s =
  let open Apna_util.Rw in
  let r = Reader.of_string s in
  let* src_aid_bytes = Reader.bytes r 4 in
  let* src_aid = Addr.aid_of_bytes src_aid_bytes in
  let* src_ephid = Reader.bytes r ephid_size in
  let* dst_ephid = Reader.bytes r ephid_size in
  let* dst_aid_bytes = Reader.bytes r 4 in
  let* dst_aid = Addr.aid_of_bytes dst_aid_bytes in
  let* mac = Reader.bytes r mac_size in
  let* () = Reader.expect_end r in
  Ok { src_aid; src_ephid; dst_aid; dst_ephid; mac }

let pp ppf t =
  Format.fprintf ppf "%a:%s -> %a:%s" Addr.pp_aid t.src_aid
    (Apna_util.Hex.encode (String.sub t.src_ephid 0 4))
    Addr.pp_aid t.dst_aid
    (Apna_util.Hex.encode (String.sub t.dst_ephid 0 4))
