type entry = { kha : Keys.host_as; mutable revoked : bool }

(* Sharded by HID hash into a fixed number of buckets: a national-ISP
   population (the paper's §V-A3 trace is 1.27 M hosts) in one Hashtbl
   means multi-hundred-MB resize copies at unpredictable moments; fixed
   shards bound each resize pause and give every lookup a single O(1)
   probe of a small table. *)
type t = {
  shards : entry Apna_net.Addr.Hid_tbl.t array;
  mutable population : int;
  mutable generation : int;
}

(* A power of two, so shard selection is a mask, not a div. *)
let shards = 256

let create ?(expected_hosts = 4096) () =
  let per_shard = max 16 (expected_hosts / shards) in
  {
    shards = Array.init shards (fun _ -> Apna_net.Addr.Hid_tbl.create per_shard);
    population = 0;
    generation = 0;
  }

let shard t hid = t.shards.(Hashtbl.hash hid land (shards - 1))
let shard_count t = Array.length t.shards

let register t hid kha =
  let s = shard t hid in
  (* Re-registering an existing HID replaces its kHA keys, so any cached
     (EphID -> entry) binding is stale; a first registration cannot be (an
     unknown HID never validated), so don't flush caches for it. *)
  if Apna_net.Addr.Hid_tbl.mem s hid then t.generation <- t.generation + 1
  else t.population <- t.population + 1;
  Apna_net.Addr.Hid_tbl.replace s hid { kha; revoked = false }

let find t hid =
  match Apna_net.Addr.Hid_tbl.find_opt (shard t hid) hid with
  | None -> Error Error.Unknown_host
  | Some entry when entry.revoked -> Error (Error.Revoked "HID")
  | Some entry -> Ok entry

let mem_valid t hid = Result.is_ok (find t hid)

let revoke_hid t hid =
  match Apna_net.Addr.Hid_tbl.find_opt (shard t hid) hid with
  | Some entry ->
      entry.revoked <- true;
      t.generation <- t.generation + 1
  | None -> ()

let generation t = t.generation
let count t = t.population
