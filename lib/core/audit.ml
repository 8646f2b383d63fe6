module M = Apna_obs.Metrics
module Heap = Apna_util.Heap

type issuance = { at : int; ephid : Ephid.t; hid : Apna_net.Addr.hid }
type egress = { at : int; ephid : Ephid.t }

(* Buckets carry their own length and oldest timestamp so queries report
   cost in O(1) and gc can decide bucket-by-bucket whether anything inside
   can have expired — the paper-scale retention log (§VIII-H) must never
   pay a full-table walk per sweep. *)
type bucket = {
  mutable entries : issuance list;  (* newest first *)
  mutable len : int;
  mutable oldest : int;
}

type t = {
  retain_s : int;
  (* Issuance indexed by HID (each bucket newest first) so bindings_of is
     O(|bucket|), not O(|stream|) — broker-era query volume must not go
     quadratic. Egress is indexed by packet digest for the same reason. *)
  issuance_by_hid : bucket Apna_net.Addr.Hid_tbl.t;
  (* (oldest, hid) gc candidates: a bucket is (re)queued whenever its
     oldest entry moves, so a sweep pops only buckets that can contain
     expired entries and revalidates against the live oldest. *)
  issuance_expiry : Apna_net.Addr.hid Heap.t;
  mutable issuance_total : int;
  egress_by_digest : (string, egress) Hashtbl.t;
  egress_expiry : string Heap.t;
  mutable last_query_cost : int;
  mutable last_gc_cost : int;
}

let create ?(retain_s = 7 * 86_400) ?(owner = "default") () =
  let t =
    {
      retain_s;
      issuance_by_hid = Apna_net.Addr.Hid_tbl.create 256;
      issuance_expiry = Heap.create ~dummy:(Apna_net.Addr.hid_of_int 0) ();
      issuance_total = 0;
      egress_by_digest = Hashtbl.create 256;
      egress_expiry = Heap.create ~dummy:"" ();
      last_query_cost = 0;
      last_gc_cost = 0;
    }
  in
  let gauge name help read =
    M.Gauge.register_fn M.default ~labels:[ ("owner", owner) ] ~help name (fun () ->
        float_of_int (read ()))
  in
  (* Registration order is scrape order, which the stats goldens pin. *)
  gauge "apna_audit_egress_entries"
    "Egress (digest -> EphID) entries retained in the audit log" (fun () ->
      Hashtbl.length t.egress_by_digest);
  gauge "apna_audit_issuance_entries"
    "Issuance (EphID -> HID) entries retained in the audit log" (fun () ->
      t.issuance_total);
  t

let record_issuance t ~now ~ephid ~hid =
  (match Apna_net.Addr.Hid_tbl.find_opt t.issuance_by_hid hid with
  | Some b ->
      b.entries <- { at = now; ephid; hid } :: b.entries;
      b.len <- b.len + 1;
      if now < b.oldest then begin
        b.oldest <- now;
        Heap.push t.issuance_expiry ~prio:now hid
      end
  | None ->
      let b = { entries = [ { at = now; ephid; hid } ]; len = 1; oldest = now } in
      Apna_net.Addr.Hid_tbl.replace t.issuance_by_hid hid b;
      Heap.push t.issuance_expiry ~prio:now hid);
  t.issuance_total <- t.issuance_total + 1

let record_egress t ~now ~ephid ~digest =
  Hashtbl.replace t.egress_by_digest digest { at = now; ephid };
  Heap.push t.egress_expiry ~prio:now digest

let bindings_of t hid =
  match Apna_net.Addr.Hid_tbl.find_opt t.issuance_by_hid hid with
  | None ->
      t.last_query_cost <- 0;
      []
  | Some bucket ->
      t.last_query_cost <- bucket.len;
      List.rev_map (fun (i : issuance) -> (i.at, i.ephid)) bucket.entries

let find_sender t ~digest =
  t.last_query_cost <- 1;
  Option.map
    (fun (e : egress) -> (e.at, e.ephid))
    (Hashtbl.find_opt t.egress_by_digest digest)

let last_query_cost t = t.last_query_cost

let gc t ~now =
  let horizon = now - t.retain_s in
  let before = t.issuance_total + Hashtbl.length t.egress_by_digest in
  let cost = ref 0 in
  (* Issuance: pop buckets whose queued oldest predates the horizon; the
     live bucket may have moved on (a fresher candidate is queued when the
     oldest changes), so revalidate before paying for a rebuild. *)
  let rec drain_issuance () =
    match Heap.peek_min t.issuance_expiry with
    | Some (queued_oldest, _) when queued_oldest < horizon ->
        let _, hid = Option.get (Heap.pop_min t.issuance_expiry) in
        incr cost;
        (match Apna_net.Addr.Hid_tbl.find_opt t.issuance_by_hid hid with
        | Some b when b.oldest < horizon ->
            cost := !cost + b.len;
            let kept =
              List.filter (fun (i : issuance) -> i.at >= horizon) b.entries
            in
            t.issuance_total <- t.issuance_total - (b.len - List.length kept);
            (match kept with
            | [] -> Apna_net.Addr.Hid_tbl.remove t.issuance_by_hid hid
            | _ ->
                b.entries <- kept;
                b.len <- List.length kept;
                b.oldest <-
                  List.fold_left (fun acc (i : issuance) -> min acc i.at)
                    max_int kept;
                Heap.push t.issuance_expiry ~prio:b.oldest hid)
        | Some _ | None -> (* stale candidate — already rebuilt or gone *) ());
        drain_issuance ()
    | Some _ | None -> ()
  in
  drain_issuance ();
  let rec drain_egress () =
    match Heap.peek_min t.egress_expiry with
    | Some (at, _) when at < horizon ->
        let _, digest = Option.get (Heap.pop_min t.egress_expiry) in
        incr cost;
        (match Hashtbl.find_opt t.egress_by_digest digest with
        | Some (e : egress) when e.at < horizon ->
            Hashtbl.remove t.egress_by_digest digest
        | Some _ | None -> (* re-recorded under a fresher timestamp *) ());
        drain_egress ()
    | Some _ | None -> ()
  in
  drain_egress ();
  t.last_gc_cost <- !cost;
  before - (t.issuance_total + Hashtbl.length t.egress_by_digest)

let last_gc_cost t = t.last_gc_cost
let issuance_count t = t.issuance_total
let egress_count t = Hashtbl.length t.egress_by_digest
