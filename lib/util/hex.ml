let hex_digit n = "0123456789abcdef".[n]

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) (hex_digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (hex_digit (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode h =
  let n = String.length h in
  if n mod 2 <> 0 then Error "hex: odd length"
  else
    let out = Bytes.create (n / 2) in
    let rec loop i =
      if i >= n / 2 then Ok (Bytes.unsafe_to_string out)
      else
        match (nibble h.[2 * i], nibble h.[(2 * i) + 1]) with
        | Some hi, Some lo ->
            Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
            loop (i + 1)
        | _ -> Error (Printf.sprintf "hex: invalid digit at %d" (2 * i))
    in
    loop 0

let pp ppf s = Format.pp_print_string ppf (encode s)
