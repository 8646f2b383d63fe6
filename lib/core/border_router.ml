open Apna_net
module M = Apna_obs.Metrics
module E = Apna_obs.Event
module Arena = Apna_util.Arena

type counters = {
  mutable egress_ok : int;
  mutable ingress_delivered : int;
  mutable ingress_forwarded : int;
  mutable dropped : int;
}

type cache_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

(* The one opt-in measurement: minor words per packet over the last burst,
   taken only while the registry is enabled. A float-only record, so the
   write stores in place. *)
type allocs = { mutable per_pkt : float }

(* Validated-EphID fast path, keyed on the raw 16-byte token. A hit skips
   the AES-CTR decrypt and CBC-MAC verify of Fig. 4 and goes straight to
   packet-MAC verification. Correctness knobs, all re-checked on hit:
   - expiry against ~now (wall time moves under the cache);
   - generation counters recorded at insert time: Revocation.revoke/gc and
     Host_info re-key/revoke bump their source's counter, so a stale
     generation forces the entry back through the slow path;
   - entry.revoked, because the cached Host_info.entry is the live record. *)
module Ephid_lru = Apna_util.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type cache_entry = {
  ephid : Ephid.t;
  info : Ephid.info;
  entry : Host_info.entry;
  (* Prepared packet-MAC key: subkeys derived at insert time, reused for
     every packet of the flow. [None] only in the uncached config. *)
  verifier : Pkt_auth.prepared option;
  rev_gen : int;
  host_gen : int;
}

type ingress_decision = Deliver of Addr.hid | Forward of Addr.aid

(* Caller-owned burst verdicts: parallel arrays the pipelines write in
   place, so the steady-state fast path never builds results. *)
module Burst = struct
  type t = {
    mutable errs : Error.t option array;
    mutable hids : int array;
    mutable fwds : int array;
  }

  let create ?(capacity = 32) () =
    let capacity = max 1 capacity in
    {
      errs = Array.make capacity None;
      hids = Array.make capacity (-1);
      fwds = Array.make capacity (-1);
    }

  let capacity b = Array.length b.errs

  let ensure b n =
    if Array.length b.errs < n then begin
      let c = max n (2 * Array.length b.errs) in
      b.errs <- Array.make c None;
      b.hids <- Array.make c (-1);
      b.fwds <- Array.make c (-1)
    end

  let error b i = b.errs.(i)
  let hid b i = b.hids.(i)
  let forward_aid b i = b.fwds.(i)

  let egress_result b i =
    match b.errs.(i) with
    | Some e -> Error e
    | None -> Ok (Addr.hid_of_int b.hids.(i))

  let ingress_result b i =
    match b.errs.(i) with
    | Some e -> Error e
    | None ->
        if b.fwds.(i) >= 0 then Ok (Forward (Addr.aid_of_int b.fwds.(i)))
        else Ok (Deliver (Addr.hid_of_int b.hids.(i)))
end

type t = {
  keys : Keys.as_keys;
  host_info : Host_info.t;
  revoked : Revocation.t;
  topology : Topology.t;
  stats : counters;
  drops : M.Tally.tally;
  audit : Audit.t option;
  cache : cache_entry Ephid_lru.t option;
  cache_stats : cache_stats;
  (* Burst working set, preallocated once: MAC-input scratch slots, the
     EphID parse buffers, and a one-slot verdict store backing the
     single-packet API. *)
  arena : Arena.t;
  ephid_scratch : Ephid.scratch;
  one : Burst.t;
  allocs : allocs;
}

let default_cache_capacity = 8192
let max_burst = 32
let arena_slot_bytes = 2048

let create ~(keys : Keys.as_keys) ~host_info ~revoked ~topology ?audit
    ?(ephid_cache = default_cache_capacity) () =
  let labels = [ ("aid", string_of_int (Addr.aid_to_int keys.aid)) ] in
  (* [dropped] stays 0 here: {!counters} fills it from the drop tally. *)
  let stats = { egress_ok = 0; ingress_delivered = 0; ingress_forwarded = 0; dropped = 0 }
  and cache_stats = { hits = 0; misses = 0; invalidations = 0 }
  and allocs = { per_pkt = 0.0 } in
  (* Registration order is scrape order, which the stats goldens pin. *)
  M.Gauge.register_fn M.default ~labels
    ~help:
      "GC minor words allocated per packet over the last burst (includes \
       whatever the enabled instrumentation allocates)"
    "apna_br_allocs_per_packet"
    (fun () -> allocs.per_pkt);
  let counter name help read = M.Counter.register_fn M.default ~labels ~help name read in
  counter "apna_br_ephid_cache_invalidations_total"
    "Validated-EphID cache entries rejected on hit (expired or stale generation)"
    (fun () -> cache_stats.invalidations);
  counter "apna_br_ephid_cache_misses_total"
    "Validated-EphID cache misses (full Fig. 4 pipeline)" (fun () -> cache_stats.misses);
  counter "apna_br_ephid_cache_hits_total"
    "Validated-EphID cache hits (decrypt + CBC-MAC skipped)" (fun () -> cache_stats.hits);
  counter "apna_br_ingress_forwarded_total" "Transit packets forwarded to the next AS"
    (fun () -> stats.ingress_forwarded);
  counter "apna_br_ingress_delivered_total" "Ingress packets delivered to a local host"
    (fun () -> stats.ingress_delivered);
  counter "apna_br_egress_ok_total" "Egress packets that passed the Fig. 4 pipeline"
    (fun () -> stats.egress_ok);
  {
    keys;
    host_info;
    revoked;
    topology;
    stats;
    drops =
      M.Tally.create M.default ~labels ~label:"reason"
        ~help:"Packets dropped by the border router, by reason" "apna_br_drops_total";
    audit;
    cache =
      (if ephid_cache <= 0 then None
       else Some (Ephid_lru.create ~capacity:ephid_cache));
    cache_stats;
    arena = Arena.create ~slots:max_burst ~slot_bytes:arena_slot_bytes;
    ephid_scratch = Ephid.scratch ();
    one = Burst.create ~capacity:1 ();
    allocs;
  }

(* Snapshots ([with] copies the record): a caller that keeps one as a
   baseline must not see it move. The drop total is the per-reason tally's. *)
let counters t = { t.stats with dropped = M.Tally.total t.drops }
let ephid_cache_stats t = { t.cache_stats with hits = t.cache_stats.hits }

let allocs_per_packet t = t.allocs.per_pkt
let ephid_cache_size t = match t.cache with None -> 0 | Some c -> Ephid_lru.size c
let revoked t = t.revoked
let arena_overflows t = Arena.overflows t.arena
let drop_registrations t = M.Tally.registrations t.drops

(* Drop verdicts travel as an exception so the accept path stays free of
   result cells; drops are off the steady state and may allocate. *)
exception Rejected of Error.t

let reject e = raise_notrace (Rejected e)

let record_drop t e = M.Tally.incr t.drops (Error.kind_label e)

let drop_reasons t = M.Tally.to_list t.drops

(* The common EphID validity pipeline of Fig. 4: authenticity (tag), expiry,
   revocation list, HID registration. Raises [Rejected]. *)
let validate_slow t ~now raw =
  match Ephid.of_bytes raw with
  | Error e -> reject (Error.Malformed e)
  | Ok ephid -> begin
      match Ephid.parse_fast t.keys t.ephid_scratch raw with
      | Error e -> reject e
      | Ok info ->
          if Ephid.expired info ~now then reject (Error.Expired "EphID")
          else if Revocation.is_revoked t.revoked ephid then
            reject (Error.Revoked "EphID")
          else begin
            match Host_info.find t.host_info info.hid with
            | Error e -> reject e
            | Ok entry -> (ephid, info, entry)
          end
    end

let revalidate t cache ~now raw =
  let ephid, info, entry = validate_slow t ~now raw in
  (* Intern the key: [raw] may be a view into a caller-owned buffer that
     is rewritten after this call returns (burst arenas do exactly that),
     while the cache entry outlives the call. An aliased key would be
     mutated in place under the table and corrupt the LRU — removals
     miss, stale entries pile up, and after a resize lookups can pair a
     mutated key with another flow's entry. *)
  let key = String.sub (Ephid.to_bytes ephid) 0 Ephid.size in
  let interned =
    match Ephid.of_bytes key with Ok e -> e | Error _ -> assert false
  in
  let e =
    {
      ephid = interned;
      info;
      entry;
      verifier = Some (Pkt_auth.prepare ~auth_key:entry.kha.auth);
      rev_gen = Revocation.generation t.revoked;
      host_gen = Host_info.generation t.host_info;
    }
  in
  Ephid_lru.set cache key e;
  e

let invalidate t cache raw =
  Ephid_lru.remove cache raw;
  t.cache_stats.invalidations <- t.cache_stats.invalidations + 1

(* Returns the validated [cache_entry] — the existing record on a hit, so
   the cached path allocates nothing — or raises [Rejected]. *)
let check_ephid t ~now raw =
  match t.cache with
  | None ->
      let ephid, info, entry = validate_slow t ~now raw in
      { ephid; info; entry; verifier = None; rev_gen = 0; host_gen = 0 }
  | Some cache -> begin
      match Ephid_lru.find_exn cache raw with
      | e
        when e.rev_gen = Revocation.generation t.revoked
             && e.host_gen = Host_info.generation t.host_info
             && not e.entry.revoked ->
          if Ephid.expired e.info ~now then begin
            (* Expiry is absolute; the entry can never become valid again. *)
            invalidate t cache raw;
            reject (Error.Expired "EphID")
          end
          else begin
            t.cache_stats.hits <- t.cache_stats.hits + 1;
            e
          end
      | _stale ->
          (* Revocation list or host_info moved since this entry was
             validated: force the full pipeline, which re-inserts with the
             current generations on success. *)
          invalidate t cache raw;
          revalidate t cache ~now raw
      | exception Not_found ->
          t.cache_stats.misses <- t.cache_stats.misses + 1;
          revalidate t cache ~now raw
    end

let egress_pipeline t ~now ~scratch (pkt : Packet.t) =
  if not (Addr.aid_equal pkt.header.src_aid t.keys.aid) then
    reject (Error.Malformed "egress: foreign source AID");
  let e = check_ephid t ~now pkt.header.src_ephid in
  let mac_ok =
    match e.verifier with
    | Some v -> Pkt_auth.verify_in ~scratch v pkt
    | None -> Pkt_auth.verify ~auth_key:e.entry.kha.auth pkt
  in
  if not mac_ok then reject Error.Bad_mac;
  t.stats.egress_ok <- t.stats.egress_ok + 1;
  (* Data retention (§VIII-H): the digest is source EphID ‖ MAC, so a
     host that gives packets of two EphIDs one tag still leaves two
     entries. The EphID was validated above; no re-parse. *)
  (match t.audit with
  | Some a -> Audit.record_egress a ~now ~ephid:e.ephid ~digest:(Packet.digest pkt)
  | None -> ());
  Addr.hid_to_int e.info.hid

(* One egress verdict, written into [b] at [i]. The event follows the
   single-packet pipeline exactly; it is a load-and-branch no-op while the
   recorder is off. *)
let egress_into t ~now ~scratch (b : Burst.t) i (pkt : Packet.t) =
  (match egress_pipeline t ~now ~scratch pkt with
  | hid ->
      b.errs.(i) <- None;
      b.hids.(i) <- hid
  | exception Rejected e ->
      record_drop t e;
      b.errs.(i) <- Some e;
      b.hids.(i) <- -1);
  if E.enabled E.default then
    E.br_egress E.default ~mac:pkt.header.mac ~aid:(Addr.aid_to_int t.keys.aid)
      (match b.errs.(i) with
      | None -> E.Egress_ok
      | Some e -> E.Egress_drop (Error.kind_label e))

let ingress_pipeline t ~now (b : Burst.t) i (pkt : Packet.t) =
  if Addr.aid_equal pkt.header.dst_aid t.keys.aid then begin
    let e = check_ephid t ~now pkt.header.dst_ephid in
    t.stats.ingress_delivered <- t.stats.ingress_delivered + 1;
    b.hids.(i) <- Addr.hid_to_int e.info.hid
  end
  else begin
    match
      Topology.next_hop t.topology ~src:t.keys.aid ~dst:pkt.header.dst_aid
    with
    | Some hop ->
        t.stats.ingress_forwarded <- t.stats.ingress_forwarded + 1;
        b.fwds.(i) <- Addr.aid_to_int hop
    | None -> reject Error.No_route
  end

let ingress_into t ~now (b : Burst.t) i (pkt : Packet.t) =
  b.hids.(i) <- -1;
  b.fwds.(i) <- -1;
  (match ingress_pipeline t ~now b i pkt with
  | () -> b.errs.(i) <- None
  | exception Rejected e ->
      record_drop t e;
      b.errs.(i) <- Some e);
  if E.enabled E.default then begin
    let mac = pkt.header.mac and aid = Addr.aid_to_int t.keys.aid in
    match b.errs.(i) with
    | Some e -> E.br_ingress E.default ~mac ~aid (E.Ingress_drop (Error.kind_label e))
    | None when b.fwds.(i) >= 0 -> E.br_forward E.default ~mac ~aid ~next:b.fwds.(i)
    | None -> E.br_ingress E.default ~mac ~aid E.Ingress_deliver
  end

let gauge_allocs t ~w0 ~n =
  if n > 0 then t.allocs.per_pkt <- (Gc.minor_words () -. w0) /. float_of_int n

let egress_burst t ~now pkts ~n b =
  if n < 0 || n > Array.length pkts then
    invalid_arg "Border_router.egress_burst: n";
  Burst.ensure b n;
  let measure = M.enabled M.default in
  let w0 = if measure then Gc.minor_words () else 0. in
  (* One scratch slot for the whole burst: the MAC input is consumed by
     the packet MAC before the next packet overwrites it, and reusing one hot
     2 KB buffer keeps the working set in L1 (32 distinct slots
     measurably thrash it). *)
  Arena.reset t.arena;
  let scratch = Arena.checkout t.arena in
  for i = 0 to n - 1 do
    egress_into t ~now ~scratch b i pkts.(i)
  done;
  if measure then gauge_allocs t ~w0 ~n

let ingress_burst t ~now pkts ~n b =
  if n < 0 || n > Array.length pkts then
    invalid_arg "Border_router.ingress_burst: n";
  Burst.ensure b n;
  let measure = M.enabled M.default in
  let w0 = if measure then Gc.minor_words () else 0. in
  for i = 0 to n - 1 do
    ingress_into t ~now b i pkts.(i)
  done;
  if measure then gauge_allocs t ~w0 ~n

(* Single-packet API: a burst of one over the router's private one-slot
   verdict store. Safe because both wrappers run to completion before the
   caller regains control — nothing re-enters the router mid-verdict. *)
let egress_check t ~now (pkt : Packet.t) =
  Arena.reset t.arena;
  let scratch = Arena.checkout t.arena in
  egress_into t ~now ~scratch t.one 0 pkt;
  Burst.egress_result t.one 0

let ingress_check t ~now (pkt : Packet.t) =
  ingress_into t ~now t.one 0 pkt;
  Burst.ingress_result t.one 0
