open Apna_crypto

type t = {
  conn_id : int64;
  initiator : bool;
  mutable local_cert : Cert.t;
  mutable local_keys : Keys.ephid_keys;
  mutable remote_cert : Cert.t;
  mutable key : Aead.key;
  mutable send_seq : int64;
  mutable replay : Replay_window.t;
  window : int;
  mutable established : bool;
  (* One-deep grace window: frames sealed under the key that preceded the
     last rekey still open while both ends converge on the new key. *)
  mutable prev : (Aead.key * Replay_window.t) option;
}

let conn_id t = t.conn_id
let remote_cert t = t.remote_cert
let local_cert t = t.local_cert
let established t = t.established

(* kEaEb: ECDH over the EphID-bound X25519 keys, expanded with an
   order-independent transcript of the two EphIDs and the connection id,
   so both ends derive the same key and every connection has its own.
   That per-connection key is what makes the nonce safe: the AEAD's
   12-byte RFC 8439 nonce is direction ‖ sequence number (see [nonce]),
   and a (key, nonce) pair never repeats because a key is bound to one
   (EphID pair, connection) and a sequence number is never reused under
   it. A rekey resets the sequence, so it must change the key: [rekey]
   and [rekey_local] refuse a certificate whose EphID the session already
   uses on that side. *)
let derive_key ~conn_id ~(local_keys : Keys.ephid_keys) ~(local_cert : Cert.t)
    ~(remote_cert : Cert.t) =
  match
    X25519.shared_secret ~secret:local_keys.kx_secret ~peer:remote_cert.kx_pub
  with
  | Error e -> Error (Error.Crypto e)
  | Ok shared ->
      let a = Ephid.to_bytes local_cert.ephid
      and b = Ephid.to_bytes remote_cert.ephid in
      let lo, hi = if String.compare a b <= 0 then (a, b) else (b, a) in
      let id = Bytes.create 8 in
      Bytes.set_int64_be id 0 conn_id;
      let info = String.concat "" [ "apna:session:v2"; lo; hi; Bytes.unsafe_to_string id ] in
      Ok (Aead.of_secret (Hkdf.derive ~info ~len:32 shared))

let create ~conn_id ~initiator ~local_cert ~local_keys ~remote_cert
    ?(window = 64) ?(await_accept = false) () =
  match derive_key ~conn_id ~local_keys ~local_cert ~remote_cert with
  | Error e -> Error e
  | Ok key ->
      Ok
        {
          conn_id;
          initiator;
          local_cert;
          local_keys;
          remote_cert;
          key;
          send_seq = 0L;
          replay = Replay_window.create ~size:window ();
          window;
          established = not await_accept;
          prev = None;
        }

let rekey t ~remote_cert =
  if Ephid.equal remote_cert.Cert.ephid t.remote_cert.ephid then
    Error (Error.Rejected "rekey: the peer's EphID is unchanged")
  else
    match
      derive_key ~conn_id:t.conn_id ~local_keys:t.local_keys
        ~local_cert:t.local_cert ~remote_cert
    with
    | Error e -> Error e
    | Ok key ->
        t.prev <- Some (t.key, t.replay);
        t.remote_cert <- remote_cert;
        t.key <- key;
        t.send_seq <- 0L;
        t.replay <- Replay_window.create ~size:t.window ();
        t.established <- true;
        Ok ()

let rekey_local t ~local_cert ~local_keys =
  if Ephid.equal local_cert.Cert.ephid t.local_cert.ephid then
    Error (Error.Rejected "rekey: the local EphID is unchanged")
  else
    match
      derive_key ~conn_id:t.conn_id ~local_keys ~local_cert
        ~remote_cert:t.remote_cert
    with
    | Error e -> Error e
    | Ok key ->
        t.prev <- Some (t.key, t.replay);
        t.local_cert <- local_cert;
        t.local_keys <- local_keys;
        t.key <- key;
        t.send_seq <- 0L;
        t.replay <- Replay_window.create ~size:t.window ();
        Ok ()

(* Sequence numbers live in [0, 2^56): the bits above carry the direction
   in the nonce. *)
let seq_limit = Int64.shift_left 1L 56

let nonce ~dir seq =
  (* Four zero bytes (Aead's authenticated prefix), then the 12-byte RFC
     8439 nonce: four zero bytes ‖ direction bit in the top byte ‖ the 56
     bits of seq. Unique per (key, direction, sequence number); the key
     already differs per connection. *)
  let b = Bytes.make Aead.nonce_size '\000' in
  Bytes.set_int64_be b 8
    (Int64.logor (Int64.shift_left (if dir then 1L else 0L) 56) seq);
  Bytes.unsafe_to_string b

let seal t data =
  let seq = t.send_seq in
  if seq >= seq_limit then invalid_arg "Session.seal: sequence space exhausted";
  t.send_seq <- Int64.add seq 1L;
  let n = nonce ~dir:t.initiator seq in
  (seq, Aead.seal ~key:t.key ~nonce:n data)

let open_sealed t ~seq ~sealed =
  let checked replay data =
    (* Authenticate first, then replay-check: only genuine packets may
       advance the window (§VIII-D). *)
    if Replay_window.check_and_update replay seq then Ok data
    else Error (Error.Rejected "replayed or stale sequence number")
  in
  (* The wire seq is unauthenticated input: one outside [0, 2^56) would
     set the direction bit and open our own frames as the peer's. *)
  if seq < 0L || seq >= seq_limit then Error (Error.Rejected "sequence number out of range")
  else
    let n = nonce ~dir:(not t.initiator) seq in
    match Aead.open_ ~key:t.key ~nonce:n sealed with
    | Ok data -> checked t.replay data
    | Error e -> (
        (* Grace window: a frame sealed just before a rekey may still be in
           flight — try the previous key with its own replay window. *)
        match t.prev with
        | None -> Error (Error.Crypto e)
        | Some (key, replay) -> (
            match Aead.open_ ~key ~nonce:n sealed with
            | Ok data -> checked replay data
            | Error _ -> Error (Error.Crypto e)))

module Frame = struct
  type f =
    | Init of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Accept of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Data of { conn_id : int64; seq : int64; sealed : string }
    | Fin of { conn_id : int64; seq : int64; sealed : string }
    | Rekey of { conn_id : int64; cert : Cert.t; seq : int64; sealed : string }
    | Rekey_ack of { conn_id : int64; seq : int64; sealed : string }

  (* kind ‖ conn_id ‖ cert ‖ seq ‖ sealed, written once into a buffer of
     the frame's exact size. *)
  let encode kind conn_id cert seq sealed =
    let c = String.length cert and n = String.length sealed in
    let b = Bytes.create (17 + c + n) in
    Bytes.set_uint8 b 0 kind;
    Bytes.set_int64_be b 1 conn_id;
    Bytes.blit_string cert 0 b 9 c;
    Bytes.set_int64_be b (9 + c) seq;
    Bytes.blit_string sealed 0 b (17 + c) n;
    Bytes.unsafe_to_string b

  let to_bytes = function
    | Init { conn_id; cert; seq; sealed } -> encode 0 conn_id (Cert.to_bytes cert) seq sealed
    | Accept { conn_id; cert; seq; sealed } -> encode 1 conn_id (Cert.to_bytes cert) seq sealed
    | Data { conn_id; seq; sealed } -> encode 2 conn_id "" seq sealed
    | Fin { conn_id; seq; sealed } -> encode 3 conn_id "" seq sealed
    | Rekey { conn_id; cert; seq; sealed } -> encode 4 conn_id (Cert.to_bytes cert) seq sealed
    | Rekey_ack { conn_id; seq; sealed } -> encode 5 conn_id "" seq sealed

  let has_cert s =
    String.length s > 0 && match s.[0] with '\000' | '\001' | '\004' -> true | _ -> false

  (* The decoder reads fields in place: kind, conn_id, [cert], seq, then
     the sealed rest, with the errors a field-by-field reader gives. *)
  let malformed e = Error (Error.Malformed ("frame: " ^ e))

  let plain s k =
    let n = String.length s in
    if n < 17 then malformed "short read"
    else Ok (k (String.get_int64_be s 1) (String.get_int64_be s 9) (String.sub s 17 (n - 17)))

  let with_cert s k =
    let n = String.length s in
    if n < 9 + Cert.size then malformed "short read"
    else
      match Cert.of_bytes (String.sub s 9 Cert.size) with
      | Error e -> malformed (Error.to_string e)
      | Ok cert ->
          let m = 9 + Cert.size in
          if n < m + 8 then malformed "short read"
          else
            Ok
              (k (String.get_int64_be s 1) cert (String.get_int64_be s m)
                 (String.sub s (m + 8) (n - m - 8)))

  let of_bytes s =
    if String.length s = 0 then malformed "short read"
    else
      match Char.code s.[0] with
      | 0 -> with_cert s (fun conn_id cert seq sealed -> Init { conn_id; cert; seq; sealed })
      | 1 -> with_cert s (fun conn_id cert seq sealed -> Accept { conn_id; cert; seq; sealed })
      | 2 -> plain s (fun conn_id seq sealed -> Data { conn_id; seq; sealed })
      | 3 -> plain s (fun conn_id seq sealed -> Fin { conn_id; seq; sealed })
      | 4 -> with_cert s (fun conn_id cert seq sealed -> Rekey { conn_id; cert; seq; sealed })
      | 5 -> plain s (fun conn_id seq sealed -> Rekey_ack { conn_id; seq; sealed })
      | n -> malformed (Printf.sprintf "unknown frame type %d" n)
end
