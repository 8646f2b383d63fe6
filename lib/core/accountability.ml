open Apna_crypto
module M = Apna_obs.Metrics

(* Shutoff propagation: evidence arrival at the AA to the border routers
   dropping the EphID (the revocation-batch flush). Sub-second by design —
   the drain loop runs every few tens of milliseconds. *)
let m_propagation =
  M.Histogram.register M.default ~lo:0.0 ~hi:2.0
    ~help:
      "Seconds from shutoff-evidence arrival to the EphID entering the \
       revocation list"
    "apna_aa_shutoff_propagation_seconds"

(* Admission-control policy for the shutoff path. The shutoff protocol is
   an amplification surface (one cheap request triggers signature checks
   and a revocation broadcast), so every knob here bounds attacker-paid
   work: token buckets bound per-requester throughput, the dedup table
   bounds replay of one piece of evidence into N revocations, the work
   queue bounds memory and lets spam be shed before legitimate evidence. *)
type limits = {
  rate_burst : int;  (** token-bucket capacity per requester EphID *)
  rate_per_s : float;  (** token refill rate *)
  dedup_cap : int;  (** evidence digests remembered (FIFO eviction) *)
  queue_cap : int;  (** bounded work queue: hi + lo entries *)
  drain_budget : int;  (** requests verified per drain pass *)
  batch_max : int;  (** revocations per batched announce command *)
  max_expiry_horizon_s : int;
      (** evidence whose quoted source EphID claims an expiry further in
          the future than any issuable lifetime is forged *)
  drain_interval_s : float;  (** drain-loop period when scheduled *)
}

let default_limits =
  {
    rate_burst = 8;
    rate_per_s = 1.0;
    dedup_cap = 8192;
    queue_cap = 64;
    drain_budget = 16;
    batch_max = 32;
    (* Just above the 30-day service-EphID lifetime, the longest the
       management plane ever issues. *)
    max_expiry_horizon_s = 31 * 86_400;
    drain_interval_s = 0.02;
  }

type bucket = { mutable tokens : float; mutable last : int }

(* A queued, admission-passed shutoff request. The source EphID was already
   parsed (cheap AES + CBC-MAC) for the freshness check; the expensive
   Ed25519 verification waits for the drain pass. *)
type job = {
  parsed : Shutoff.parsed;
  digest : string;  (** evidence packet MAC — the dedup key *)
  src_ephid : Ephid.t;
  src_info : Ephid.info;
  arrival : float;  (** sim seconds; start of the propagation clock *)
}

type refusal_stat = { mutable count : int; metric : M.Counter.m Lazy.t }

type obs = {
  aid_label : M.labels;
  m_requests : M.Counter.m;
  m_granted : M.Counter.m;
  m_shed : M.Counter.m;
  m_batches : M.Counter.m;
  m_batched : M.Counter.m;
  g_queue : M.Gauge.m;
}

type t = {
  keys : Keys.as_keys;
  host_info : Host_info.t;
  revoked : Revocation.t;
  trust : Trust.t;
  max_revocations_per_host : int;
  limits : limits;
  revocation_counts : int Apna_net.Addr.Hid_tbl.t;
  (* Admission state: per-requester buckets and the evidence-digest dedup
     set, both FIFO-bounded so a spammer cannot grow them without bound. *)
  buckets : (string, bucket) Hashtbl.t;
  bucket_fifo : string Queue.t;
  dedup : (string, unit) Hashtbl.t;
  dedup_fifo : string Queue.t;
  (* Two-priority bounded work queue: requesters still holding most of
     their token budget are presumed legitimate; depleted requesters are
     the first shed under pressure. *)
  q_hi : job Queue.t;
  q_lo : job Queue.t;
  mutable queue_peak : int;
  mutable shed : int;
  mutable granted : int;
  refusals : (string, refusal_stat) Hashtbl.t;
  mutable prop_samples : float list;
  obs : obs;
  (* Legal-plane accountability: every shutoff decision (grant or refusal)
     is reported here; the privacy broker installs its hash-chained journal
     so the AA's disclosures share the broker's tamper-evident record. *)
  mutable decision_sink : (now:int -> string -> unit) option;
}

let create ~keys ~host_info ~revoked ~trust ?(max_revocations_per_host = 6)
    ?(limits = default_limits) () =
  let aid_label =
    [ ("aid", string_of_int (Apna_net.Addr.aid_to_int keys.Keys.aid)) ]
  in
  {
    keys;
    host_info;
    revoked;
    trust;
    max_revocations_per_host;
    limits;
    revocation_counts = Apna_net.Addr.Hid_tbl.create 16;
    buckets = Hashtbl.create 64;
    bucket_fifo = Queue.create ();
    dedup = Hashtbl.create 256;
    dedup_fifo = Queue.create ();
    q_hi = Queue.create ();
    q_lo = Queue.create ();
    queue_peak = 0;
    shed = 0;
    granted = 0;
    refusals = Hashtbl.create 8;
    prop_samples = [];
    obs =
      {
        aid_label;
        m_requests =
          M.Counter.register M.default ~labels:aid_label
            ~help:"Shutoff requests reaching the accountability agent"
            "apna_aa_requests_total";
        m_granted =
          M.Counter.register M.default ~labels:aid_label
            ~help:"Shutoff requests granted (EphID revoked)"
            "apna_aa_granted_total";
        m_shed =
          M.Counter.register M.default ~labels:aid_label
            ~help:
              "Shutoff requests dropped unprocessed by work-queue \
               load-shedding"
            "apna_aa_shed_total";
        m_batches =
          M.Counter.register M.default ~labels:aid_label
            ~help:"Batched revocation announcements sent to border routers"
            "apna_aa_revocation_batches_total";
        m_batched =
          M.Counter.register M.default ~labels:aid_label
            ~help:"Revocations carried inside batched announcements"
            "apna_aa_batched_revocations_total";
        g_queue =
          M.Gauge.register M.default ~labels:aid_label
            ~help:"Shutoff requests queued awaiting verification"
            "apna_aa_queue_depth";
      };
    decision_sink = None;
  }

let set_decision_sink t sink = t.decision_sink <- Some sink
let limits t = t.limits

let revocations_of t hid =
  Option.value ~default:0 (Apna_net.Addr.Hid_tbl.find_opt t.revocation_counts hid)

let queue_depth t = Queue.length t.q_hi + Queue.length t.q_lo
let queue_peak t = t.queue_peak
let shed_count t = t.shed
let granted_count t = t.granted
let propagation_samples t = t.prop_samples

let refusal_reasons t =
  Hashtbl.fold (fun k (v : refusal_stat) acc -> (k, v.count) :: acc) t.refusals []
  |> List.sort compare

let refused_count t =
  Hashtbl.fold (fun _ (v : refusal_stat) acc -> acc + v.count) t.refusals 0

(* ------------------------------------------------------------------ *)
(* Accounting helpers *)

let count_refusal t e =
  let label = Error.kind_label e in
  let stat =
    match Hashtbl.find_opt t.refusals label with
    | Some s -> s
    | None ->
        let s =
          {
            count = 0;
            metric =
              lazy
                (M.Counter.register M.default
                   ~labels:(("reason", label) :: t.obs.aid_label)
                   ~help:"Shutoff requests refused, by reason"
                   "apna_aa_refusals_total");
          }
        in
        Hashtbl.add t.refusals label s;
        s
  in
  stat.count <- stat.count + 1;
  if M.enabled M.default then M.Counter.incr (Lazy.force stat.metric)

let update_queue_gauge t =
  let d = queue_depth t in
  if d > t.queue_peak then t.queue_peak <- d;
  M.Gauge.set t.obs.g_queue (float_of_int d)

(* Legal plane: report the decision (either way) to the installed journal
   sink; flight recorder: a granted shutoff is the final event of the
   offending packet's journey — keyed on the evidence packet's MAC. *)
let report t ~now ~(packet : Apna_net.Packet.t option) result =
  (match t.decision_sink with
  | None -> ()
  | Some sink -> (
      match result with
      | Ok (hid, ephid) ->
          sink ~now
            (Printf.sprintf "shutoff grant hid=%d ephid=%s"
               (Apna_net.Addr.hid_to_int hid)
               (Apna_util.Hex.encode (Ephid.to_bytes ephid)))
      | Error e ->
          sink ~now
            (Printf.sprintf "shutoff refusal reason=%s" (Error.kind_label e))));
  match (result, packet) with
  | Ok _, Some packet when Apna_obs.Event.enabled Apna_obs.Event.default ->
      Apna_obs.Event.(
        record_hashed default packet.header.mac
          (Shutoff { aid = Apna_net.Addr.aid_to_int t.keys.aid }))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission control: everything here is cheap (hash lookups plus one
   symmetric EphID parse) and runs before any Ed25519 verification, so
   spam is refused at a fraction of the work it tries to trigger. *)

let dedup_mem t digest = Hashtbl.mem t.dedup digest

let dedup_add t digest =
  if not (Hashtbl.mem t.dedup digest) then begin
    if Queue.length t.dedup_fifo >= t.limits.dedup_cap then begin
      let oldest = Queue.pop t.dedup_fifo in
      Hashtbl.remove t.dedup oldest
    end;
    Hashtbl.replace t.dedup digest ();
    Queue.push digest t.dedup_fifo
  end

(* Returns [Ok high_priority] when the requester still has a token.
   Priority degrades once a requester has burned through half its burst:
   a victim reporting a handful of flows stays high-priority; a spammer
   hammering the AA rides the low queue and is first to be shed. *)
let take_token t ~now requester =
  let b =
    match Hashtbl.find_opt t.buckets requester with
    | Some b -> b
    | None ->
        if Queue.length t.bucket_fifo >= t.limits.dedup_cap then begin
          let oldest = Queue.pop t.bucket_fifo in
          Hashtbl.remove t.buckets oldest
        end;
        let b = { tokens = float_of_int t.limits.rate_burst; last = now } in
        Hashtbl.replace t.buckets requester b;
        Queue.push requester t.bucket_fifo;
        b
  in
  if now > b.last then begin
    b.tokens <-
      Float.min
        (float_of_int t.limits.rate_burst)
        (b.tokens +. (t.limits.rate_per_s *. float_of_int (now - b.last)));
    b.last <- now
  end;
  if b.tokens < 1.0 then Error (Error.Rejected "shutoff rate limit")
  else begin
    b.tokens <- b.tokens -. 1.0;
    Ok (b.tokens >= float_of_int t.limits.rate_burst /. 2.0)
  end

(* Satellite fix: evidence is only as fresh as the quoted source EphID's
   validity window. An expired EphID means the revocation would be a no-op
   the border router already enforces — refuse instead of burning
   signature checks; an expiry beyond any issuable lifetime is forged. *)
let check_freshness t ~now (parsed : Shutoff.parsed) =
  match Ephid.parse_bytes t.keys parsed.packet.header.src_ephid with
  | Error e -> Error e
  | Ok (src_ephid, info) ->
      if Ephid.expired info ~now then Error (Error.Expired "evidence")
      else if info.expiry - now > t.limits.max_expiry_horizon_s then
        Error (Error.Rejected "evidence EphID beyond validity horizon")
      else Ok (src_ephid, info)

let admit t ~now ~arrival msg =
  M.Counter.incr t.obs.m_requests;
  let r =
    match Shutoff.parse_request msg with
    | Error e -> Error e
    | Ok parsed -> begin
        match take_token t ~now (Ephid.to_bytes parsed.cert.ephid) with
        | Error e -> Error e
        | Ok high ->
            let digest = parsed.packet.header.mac in
            if dedup_mem t digest then
              Error (Error.Rejected "duplicate evidence")
            else begin
              match check_freshness t ~now parsed with
              | Error e -> Error e
              | Ok (src_ephid, src_info) ->
                  Ok ({ parsed; digest; src_ephid; src_info; arrival }, high)
            end
      end
  in
  (match r with Error e -> count_refusal t e | Ok _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* Revoke commands (Fig. 5), single and batched *)

module Command = struct
  type t = { ephid : Ephid.t; expiry : int; mac : string }

  let expiry_bytes expiry =
    String.init 4 (fun i -> Char.chr ((expiry lsr (8 * (3 - i))) land 0xff))

  let bytes_for_mac ~ephid ~expiry =
    "revoke:" ^ Ephid.to_bytes ephid ^ expiry_bytes expiry

  let make ~(keys : Keys.as_keys) ~ephid ~expiry =
    let mac = Hmac.Sha256.mac ~key:keys.infra_mac (bytes_for_mac ~ephid ~expiry) in
    { ephid; expiry; mac }

  let verify ~(keys : Keys.as_keys) t =
    Hmac.Sha256.verify ~key:keys.infra_mac ~tag:t.mac
      (bytes_for_mac ~ephid:t.ephid ~expiry:t.expiry)

  (* A storm's worth of revocations rides one kAS-authenticated control
     message: O(batches) announcements, one MAC over the whole entry list,
     one cache-generation bump at the routers. *)
  type batch = { entries : (Ephid.t * int) list; bmac : string }

  let bytes_for_batch entries =
    let buf = Buffer.create (16 + (List.length entries * (Ephid.size + 4))) in
    Buffer.add_string buf "revoke-batch:";
    List.iter
      (fun (ephid, expiry) ->
        Buffer.add_string buf (Ephid.to_bytes ephid);
        Buffer.add_string buf (expiry_bytes expiry))
      entries;
    Buffer.contents buf

  let make_batch ~(keys : Keys.as_keys) ~entries =
    let bmac = Hmac.Sha256.mac ~key:keys.infra_mac (bytes_for_batch entries) in
    { entries; bmac }

  let verify_batch ~(keys : Keys.as_keys) t =
    Hmac.Sha256.verify ~key:keys.infra_mac ~tag:t.bmac
      (bytes_for_batch t.entries)
end

(* ------------------------------------------------------------------ *)
(* Verification and execution *)

(* §VIII-G2: repeated shutoffs are a sign of a malicious host; revoke the
   identity itself past the threshold. Counting is immediate even when the
   router announcement is batched. *)
let record_grant t ~hid =
  t.granted <- t.granted + 1;
  M.Counter.incr t.obs.m_granted;
  let count = revocations_of t hid + 1 in
  Apna_net.Addr.Hid_tbl.replace t.revocation_counts hid count;
  if count >= t.max_revocations_per_host then
    Host_info.revoke_hid t.host_info hid

let execute_revocation t ~hid ~ephid ~expiry =
  (* Fig. 5: the AA instructs the border routers with a kAS-authenticated
     command; routers verify before inserting into revoked_ids. *)
  let cmd = Command.make ~keys:t.keys ~ephid ~expiry in
  if not (Command.verify ~keys:t.keys cmd) then
    Error (Error.Bad_signature "revoke command")
  else begin
    Revocation.revoke t.revoked cmd.ephid ~expiry:cmd.expiry;
    record_grant t ~hid;
    Ok (hid, ephid)
  end

(* The expensive half of Fig. 5's validation: the requester's certificate
   chains to its AS, the signature proves ownership of the packet's
   destination EphID, and the per-packet MAC proves the accused source
   really sent the evidence. *)
let verify_request t ~now (job : job) =
  let { parsed = { packet; signature; cert }; src_ephid; src_info; _ } = job in
  let header = packet.header in
  match Trust.verify_cert t.trust ~now cert with
  | Error e -> Error e
  | Ok () ->
      if not (String.equal (Ephid.to_bytes cert.ephid) header.dst_ephid) then
        Error (Error.Rejected "requester is not the packet's destination")
      else if
        not
          (Ed25519.verify ~pub:cert.sig_pub
             ~msg:(Apna_net.Packet.to_bytes packet)
             ~signature)
      then Error (Error.Bad_signature "shutoff request")
      else if Ephid.expired src_info ~now then
        (* The EphID may have aged out while the request sat in the queue. *)
        Error (Error.Expired "source EphID")
      else begin
        match Host_info.find t.host_info src_info.hid with
        | Error e -> Error e
        | Ok entry ->
            if not (Pkt_auth.verify ~auth_key:entry.kha.auth packet) then
              Error Error.Bad_mac
            else Ok (src_info.hid, src_ephid, src_info.expiry)
      end

(* ------------------------------------------------------------------ *)
(* Synchronous path: admission then immediate verification + revocation,
   for direct callers; the AS itself always queues. *)

let handle_shutoff t ~now msg =
  match admit t ~now ~arrival:(float_of_int now) msg with
  | Error e ->
      report t ~now ~packet:None (Error e);
      Error e
  | Ok (job, _high) ->
      let result =
        match verify_request t ~now job with
        | Error e ->
            count_refusal t e;
            Error e
        | Ok (hid, ephid, expiry) ->
            dedup_add t job.digest;
            execute_revocation t ~hid ~ephid ~expiry
      in
      report t ~now ~packet:(Some job.parsed.packet) result;
      result

(* ------------------------------------------------------------------ *)
(* Queued path: bounded admission queue + budgeted drain *)

type verdict = Queued | Refused of Error.t | Shed

let shed_one t ~now =
  t.shed <- t.shed + 1;
  M.Counter.incr t.obs.m_shed;
  match t.decision_sink with
  | None -> ()
  | Some sink -> sink ~now "shutoff shed under load"

let enqueue t ~now ~at msg =
  match admit t ~now ~arrival:at msg with
  | Error e ->
      report t ~now ~packet:None (Error e);
      Refused e
  | Ok (job, high) ->
      let verdict =
        if queue_depth t < t.limits.queue_cap then begin
          Queue.push job (if high then t.q_hi else t.q_lo);
          Queued
        end
        else if high && Queue.length t.q_lo > 0 then begin
          (* Full queue, legitimate-looking arrival: shed the oldest
             low-priority entry to make room — spam dies before evidence. *)
          ignore (Queue.pop t.q_lo);
          shed_one t ~now;
          Queue.push job t.q_hi;
          Queued
        end
        else begin
          shed_one t ~now;
          Shed
        end
      in
      update_queue_gauge t;
      verdict

let flush_batch t entries =
  match entries with
  | [] -> ()
  | entries ->
      let cmd = Command.make_batch ~keys:t.keys ~entries in
      if Command.verify_batch ~keys:t.keys cmd then begin
        let changed = Revocation.revoke_many t.revoked cmd.Command.entries in
        ignore changed;
        M.Counter.incr t.obs.m_batches;
        M.Counter.incr t.obs.m_batched ~by:(List.length entries)
      end

let drain t ~now ~at =
  let grants = ref [] and batch = ref [] and batch_len = ref 0 in
  let flush () =
    flush_batch t (List.rev !batch);
    batch := [];
    batch_len := 0
  in
  let process (job : job) =
    let result =
      (* Re-check the dedup set: a duplicate admitted before its twin was
         granted must not double-count the host's revocation quota. *)
      if dedup_mem t job.digest then begin
        let e = Error.Rejected "duplicate evidence" in
        count_refusal t e;
        Error e
      end
      else
        match verify_request t ~now job with
        | Error e ->
            count_refusal t e;
            Error e
        | Ok (hid, ephid, expiry) ->
            dedup_add t job.digest;
            record_grant t ~hid;
            batch := (ephid, expiry) :: !batch;
            incr batch_len;
            if !batch_len >= t.limits.batch_max then flush ();
            let dt = Float.max 0.0 (at -. job.arrival) in
            t.prop_samples <- dt :: t.prop_samples;
            M.Histogram.observe m_propagation dt;
            grants := (hid, ephid) :: !grants;
            Ok (hid, ephid)
    in
    report t ~now ~packet:(Some job.parsed.packet) result
  in
  let budget = ref t.limits.drain_budget in
  while
    !budget > 0 && (Queue.length t.q_hi > 0 || Queue.length t.q_lo > 0)
  do
    let job =
      if Queue.length t.q_hi > 0 then Queue.pop t.q_hi else Queue.pop t.q_lo
    in
    process job;
    decr budget
  done;
  flush ();
  update_queue_gauge t;
  List.rev !grants
