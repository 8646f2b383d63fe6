type aid = int
type hid = int

let check_u32 label n =
  if n < 0 || n > 0xffffffff then invalid_arg (label ^ ": not a u32");
  n

let aid_of_int n = check_u32 "Addr.aid_of_int" n
let aid_to_int n = n
let aid_equal = Int.equal
let pp_aid ppf a = Format.fprintf ppf "AS%d" a
let hid_of_int n = check_u32 "Addr.hid_of_int" n
let hid_to_int n = n
let hid_equal = Int.equal

let pp_hid ppf h =
  (* Render like a dotted quad, matching the IPv4-as-HID deployment. *)
  Format.fprintf ppf "%d.%d.%d.%d" ((h lsr 24) land 0xff) ((h lsr 16) land 0xff)
    ((h lsr 8) land 0xff) (h land 0xff)

let u32_to_bytes n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let u32_of_bytes label s =
  if String.length s <> 4 then Error (label ^ ": need 4 bytes")
  else
    Ok
      ((Char.code s.[0] lsl 24) lor (Char.code s.[1] lsl 16)
      lor (Char.code s.[2] lsl 8) lor Char.code s.[3])

let aid_to_bytes = u32_to_bytes
let aid_of_bytes = u32_of_bytes "aid"
let hid_to_bytes = u32_to_bytes
let hid_of_bytes = u32_of_bytes "hid"

module Aid_map = Map.Make (Int)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Hid_tbl = Int_tbl
module Aid_tbl = Int_tbl
