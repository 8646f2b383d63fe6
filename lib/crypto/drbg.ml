type t = { mutable k : string; mutable v : string }

let update t provided =
  t.k <- Hmac.Sha256.mac_list ~key:t.k [ t.v; "\x00"; provided ];
  t.v <- Hmac.Sha256.mac ~key:t.k t.v;
  if provided <> "" then begin
    t.k <- Hmac.Sha256.mac_list ~key:t.k [ t.v; "\x01"; provided ];
    t.v <- Hmac.Sha256.mac ~key:t.k t.v
  end

let create ~seed =
  let t = { k = String.make 32 '\000'; v = String.make 32 '\001' } in
  update t seed;
  t

let generate t n =
  let out = Buffer.create n in
  while Buffer.length out < n do
    t.v <- Hmac.Sha256.mac ~key:t.k t.v;
    Buffer.add_string out t.v
  done;
  update t "";
  Buffer.sub out 0 n

let uniform t n =
  if n < 1 then invalid_arg "Drbg.uniform";
  if n = 1 then 0
  else begin
    (* Rejection sampling over 8 random bytes (62 usable bits). *)
    let limit = max_int - (max_int mod n) in
    let rec draw () =
      let b = generate t 8 in
      let v = Int64.to_int (String.get_int64_le b 0) land max_int in
      if v < limit then v mod n else draw ()
    in
    draw ()
  end

let split t label =
  let seed = generate t 32 in
  create ~seed:(seed ^ label)
