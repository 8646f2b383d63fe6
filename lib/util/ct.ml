let equal a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let equal_bytes a b ~off =
  if off < 0 || off + String.length a > Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code (Bytes.get b (off + i)))
    done;
    !acc = 0
  end

let xor a b =
  if String.length a <> String.length b then invalid_arg "Ct.xor: length";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))
