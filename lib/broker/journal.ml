open Apna_crypto
module M = Apna_obs.Metrics

type entry = { seq : int; at : int; mutable payload : string; hash : string }

type t = {
  cap : int;
  entries : entry Queue.t;  (* oldest at the front *)
  mutable appended : int;
  mutable anchor : string;  (* hash preceding the oldest retained entry *)
  mutable head : string;  (* hash of the newest entry; anchor when empty *)
}

let genesis = Sha256.digest "apna-broker-journal-genesis"

let create ?(cap = 65536) ?(owner = "default") () =
  if cap <= 0 then invalid_arg "Journal.create: cap must be > 0";
  let entries = Queue.create () in
  M.Gauge.register_fn M.default
    ~labels:[ ("owner", owner) ]
    ~help:"Decision entries retained in the broker journal" "apna_broker_journal_entries"
    (fun () -> float_of_int (Queue.length entries));
  { cap; entries; appended = 0; anchor = genesis; head = genesis }

let entry_hash ~prev ~seq ~at ~payload =
  let w = Apna_util.Rw.Writer.create () in
  Apna_util.Rw.Writer.bytes w prev;
  Apna_util.Rw.Writer.u64 w (Int64.of_int seq);
  Apna_util.Rw.Writer.u64 w (Int64.of_int at);
  Apna_util.Rw.Writer.bytes w payload;
  Sha256.digest (Apna_util.Rw.Writer.contents w)

let head t = t.head

let append t ~now payload =
  let seq = t.appended in
  let e =
    { seq; at = now; payload;
      hash = entry_hash ~prev:t.head ~seq ~at:now ~payload }
  in
  Queue.push e t.entries;
  t.appended <- t.appended + 1;
  t.head <- e.hash;
  (* Trim past capacity; the trimmed entry's hash becomes the anchor so
     the retained suffix still verifies. *)
  while Queue.length t.entries > t.cap do
    let dropped = Queue.pop t.entries in
    t.anchor <- dropped.hash
  done;
  e

let length t = Queue.length t.entries
let appended t = t.appended
let trimmed t = t.appended - Queue.length t.entries

let to_list t = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.entries)

let verify t =
  let check prev e =
    match prev with
    | Error _ as err -> err
    | Ok prev_hash ->
        let expect = entry_hash ~prev:prev_hash ~seq:e.seq ~at:e.at ~payload:e.payload in
        if String.equal expect e.hash then Ok e.hash
        else Error (Printf.sprintf "journal entry %d: hash mismatch" e.seq)
  in
  match Queue.fold check (Ok t.anchor) t.entries with
  | Ok last ->
      if String.equal last t.head then Ok ()
      else Error "journal head does not match the last entry"
  | Error _ as err -> err

let tamper_for_test t ~seq ~payload =
  let hit = ref false in
  Queue.iter
    (fun e ->
      if e.seq = seq then begin
        e.payload <- payload;
        hit := true
      end)
    t.entries;
  !hit
