open Apna
open Apna_crypto
open Apna_util.Rw
module M = Apna_obs.Metrics
module Event = Apna_obs.Event

type role = Accountability_agent | Law_enforcement | Peer_as

let role_label = function
  | Accountability_agent -> "accountability-agent"
  | Law_enforcement -> "law-enforcement"
  | Peer_as -> "peer-as"

let write_var w s =
  Writer.u16 w (String.length s);
  Writer.bytes w s

let read_var r =
  let* len = Reader.u16 r in
  Reader.bytes r len

let malformed what = Result.map_error (fun e -> Error.Malformed (what ^ ": " ^ e))

module Request = struct
  type query =
    | Deanonymize of Ephid.t
    | Bindings_of of Apna_net.Addr.hid
    | Attribute_packet of string

  type t = { corr : int64; requester : string; query : query; mac : string }

  let query_label = function
    | Deanonymize _ -> "deanonymize"
    | Bindings_of _ -> "bindings-of"
    | Attribute_packet _ -> "attribute-packet"

  let write_query w = function
    | Deanonymize e ->
        Writer.u8 w 0;
        Writer.bytes w (Ephid.to_bytes e)
    | Bindings_of hid ->
        Writer.u8 w 1;
        Writer.u32_of_int w (Apna_net.Addr.hid_to_int hid)
    | Attribute_packet digest ->
        Writer.u8 w 2;
        write_var w digest

  let read_query r =
    let* tag = Reader.u8 r in
    match tag with
    | 0 ->
        let* b = Reader.bytes r Ephid.size in
        Result.map (fun e -> Deanonymize e) (Ephid.of_bytes b)
    | 1 ->
        let* hid = Reader.u32_to_int r in
        Ok (Bindings_of (Apna_net.Addr.hid_of_int hid))
    | 2 ->
        let* digest = read_var r in
        Ok (Attribute_packet digest)
    | n -> Error (Printf.sprintf "unknown query tag %d" n)

  (* The MAC covers a domain-separated encoding of everything but itself,
     so a request can be neither forged nor replayed as a different
     requester's. *)
  let mac_input ~corr ~requester ~query =
    let w = Writer.create () in
    Writer.bytes w "apna-broker-request:";
    Writer.u64 w corr;
    write_var w requester;
    write_query w query;
    Writer.contents w

  let sign ~key ~corr ~requester ~query =
    { corr; requester; query;
      mac = Hmac.Sha256.mac ~key (mac_input ~corr ~requester ~query) }

  let verify ~key t =
    Hmac.Sha256.verify ~key ~tag:t.mac
      (mac_input ~corr:t.corr ~requester:t.requester ~query:t.query)

  let to_bytes t =
    let w = Writer.create () in
    Writer.u64 w t.corr;
    write_var w t.requester;
    write_query w t.query;
    write_var w t.mac;
    Writer.contents w

  let of_bytes s =
    malformed "broker request"
      (let r = Reader.of_string s in
       let* corr = Reader.u64 r in
       let* requester = read_var r in
       let* query = read_query r in
       let* mac = read_var r in
       let* () = Reader.expect_end r in
       Ok { corr; requester; query; mac })
end

module Response = struct
  type grant =
    | Identity of {
        hid : Apna_net.Addr.hid;
        expiry : int;
        credential : string option;
      }
    | Bindings of (int * Ephid.t) list
    | Attribution of {
        at : int;
        ephid : Ephid.t;
        hid : Apna_net.Addr.hid;
        credential : string option;
      }

  type t =
    | Granted of { corr : int64; cost : int; remaining : int; grant : grant }
    | Refused of { corr : int64; reason : Error.t; remaining : int }

  let write_credential w = function
    | None -> Writer.u8 w 0
    | Some c ->
        Writer.u8 w 1;
        write_var w c

  let read_credential r =
    let* present = Reader.u8 r in
    match present with
    | 0 -> Ok None
    | 1 -> Result.map Option.some (read_var r)
    | n -> Error (Printf.sprintf "bad credential flag %d" n)

  let write_grant w = function
    | Identity { hid; expiry; credential } ->
        Writer.u8 w 0;
        Writer.u32_of_int w (Apna_net.Addr.hid_to_int hid);
        Writer.u64 w (Int64.of_int expiry);
        write_credential w credential
    | Bindings bindings ->
        Writer.u8 w 1;
        Writer.u16 w (List.length bindings);
        List.iter
          (fun (at, e) ->
            Writer.u64 w (Int64.of_int at);
            Writer.bytes w (Ephid.to_bytes e))
          bindings
    | Attribution { at; ephid; hid; credential } ->
        Writer.u8 w 2;
        Writer.u64 w (Int64.of_int at);
        Writer.bytes w (Ephid.to_bytes ephid);
        Writer.u32_of_int w (Apna_net.Addr.hid_to_int hid);
        write_credential w credential

  let read_ephid r =
    let* b = Reader.bytes r Ephid.size in
    Ephid.of_bytes b

  let read_grant r =
    let* tag = Reader.u8 r in
    match tag with
    | 0 ->
        let* hid = Reader.u32_to_int r in
        let* expiry = Reader.u64 r in
        let* credential = read_credential r in
        Ok
          (Identity
             { hid = Apna_net.Addr.hid_of_int hid;
               expiry = Int64.to_int expiry; credential })
    | 1 ->
        let* count = Reader.u16 r in
        let rec loop n acc =
          if n = 0 then Ok (List.rev acc)
          else
            let* at = Reader.u64 r in
            let* e = read_ephid r in
            loop (n - 1) ((Int64.to_int at, e) :: acc)
        in
        Result.map (fun bs -> Bindings bs) (loop count [])
    | 2 ->
        let* at = Reader.u64 r in
        let* ephid = read_ephid r in
        let* hid = Reader.u32_to_int r in
        let* credential = read_credential r in
        Ok
          (Attribution
             { at = Int64.to_int at; ephid;
               hid = Apna_net.Addr.hid_of_int hid; credential })
    | n -> Error (Printf.sprintf "unknown grant tag %d" n)

  let to_bytes t =
    let w = Writer.create () in
    (match t with
    | Granted { corr; cost; remaining; grant } ->
        Writer.u8 w 0;
        Writer.u64 w corr;
        Writer.u32_of_int w cost;
        Writer.u32_of_int w remaining;
        write_grant w grant
    | Refused { corr; reason; remaining } ->
        Writer.u8 w 1;
        Writer.u64 w corr;
        let tag, payload = Error.to_wire reason in
        Writer.u8 w tag;
        write_var w payload;
        Writer.u32_of_int w remaining);
    Writer.contents w

  let of_bytes s =
    malformed "broker response"
      (let r = Reader.of_string s in
       let* tag = Reader.u8 r in
       match tag with
       | 0 ->
           let* corr = Reader.u64 r in
           let* cost = Reader.u32_to_int r in
           let* remaining = Reader.u32_to_int r in
           let* grant = read_grant r in
           let* () = Reader.expect_end r in
           Ok (Granted { corr; cost; remaining; grant })
       | 1 ->
           let* corr = Reader.u64 r in
           let* err_tag = Reader.u8 r in
           let* payload = read_var r in
           let* remaining = Reader.u32_to_int r in
           let* () = Reader.expect_end r in
           let* reason = Error.of_wire err_tag payload in
           Ok (Refused { corr; reason; remaining })
       | n -> Error (Printf.sprintf "unknown response tag %d" n))
end

let cost_of = function
  | Request.Deanonymize _ -> 10
  | Request.Bindings_of _ -> 25
  | Request.Attribute_packet _ -> 5

(* §VIII-H: disclosure breadth tracks legal standing. The AA links for its
   own shutoff machinery; LE can compel the full history; a peer AS may
   only ask about packets it can already exhibit. *)
let allowed role (query : Request.query) =
  match (role, query) with
  | Law_enforcement, _ -> true
  | Accountability_agent, (Deanonymize _ | Attribute_packet _) -> true
  | Accountability_agent, Bindings_of _ -> false
  | Peer_as, Attribute_packet _ -> true
  | Peer_as, (Deanonymize _ | Bindings_of _) -> false

type requester = { role : role; key : string }

type t = {
  keys : Keys.as_keys;
  audit : Audit.t option;
  credential_of : Apna_net.Addr.hid -> string option;
  budget : Budget.t;
  journal : Journal.t;
  requesters : (string, requester) Hashtbl.t;
  labels : (string * string) list;
  grant_tally : M.Tally.tally;  (** by query kind *)
  refusal_tally : M.Tally.tally;  (** by reason *)
}

let create ~keys ?audit ?credential_of ?budget () =
  let owner = string_of_int (Apna_net.Addr.aid_to_int keys.Keys.aid) in
  let labels = [ ("aid", owner) ] in
  {
    keys;
    audit;
    credential_of = Option.value ~default:(fun _ -> None) credential_of;
    budget = (match budget with Some b -> b | None -> Budget.create ());
    journal = Journal.create ~owner ();
    requesters = Hashtbl.create 8;
    labels;
    grant_tally =
      M.Tally.create M.default ~labels ~label:"query"
        ~help:"Broker linkage requests granted" "apna_broker_grants_total";
    refusal_tally =
      M.Tally.create M.default ~labels ~label:"reason"
        ~help:"Broker linkage requests refused" "apna_broker_refusals_total";
  }

let register_requester ?capacity ?refill t ~id ~role ~key ~now =
  Hashtbl.replace t.requesters id { role; key };
  Budget.register ?capacity ?refill t.budget ~id ~now

let journal t = t.journal
let budget t = t.budget
let verify_journal t = Journal.verify t.journal
let grants t = M.Tally.total t.grant_tally
let refusals t = M.Tally.total t.refusal_tally

(* Registered at a requester's first charge; a later charge replaces the
   reader with an identical one. *)
let show_budget t ~requester =
  let budget = t.budget in
  M.Gauge.register_fn M.default
    ~labels:(t.labels @ [ ("requester", requester) ])
    ~help:"Remaining privacy budget per requester" "apna_broker_budget_remaining"
    (fun () -> float_of_int (Budget.balance budget ~id:requester))

let aid_int t = Apna_net.Addr.aid_to_int t.keys.Keys.aid

let record_event t ~corr ~granted ~query =
  if Event.enabled Event.default then
    Event.(
      record default
        ~key:(key_of_string (Printf.sprintf "broker:%Ld" corr))
        (Broker_decision { aid = aid_int t; granted; query }))

(* Execute an authorized, already-charged query against the AS's secrets
   and retention log. *)
let execute t (query : Request.query) =
  match query with
  | Deanonymize e -> begin
      match Ephid.parse t.keys e with
      | Error err -> Error err
      | Ok (info : Ephid.info) ->
          Ok
            (Response.Identity
               { hid = info.hid; expiry = info.expiry;
                 credential = t.credential_of info.hid })
    end
  | Bindings_of hid -> begin
      match t.audit with
      | None -> Error (Error.Rejected "retention disabled")
      | Some audit -> Ok (Response.Bindings (Audit.bindings_of audit hid))
    end
  | Attribute_packet digest -> begin
      match t.audit with
      | None -> Error (Error.Rejected "retention disabled")
      | Some audit -> begin
          match Audit.find_sender audit ~digest with
          | None -> Error (Error.Rejected "no egress record")
          | Some (at, ephid) -> begin
              match Ephid.parse t.keys ephid with
              | Error err -> Error err
              | Ok info ->
                  Ok
                    (Response.Attribution
                       { at; ephid; hid = info.hid;
                         credential = t.credential_of info.hid })
            end
        end
    end

let refuse t ~now ~corr ~requester ~query_label ~reason ~remaining =
  M.Tally.incr t.refusal_tally (Error.kind_label reason);
  record_event t ~corr ~granted:false ~query:query_label;
  ignore
    (Journal.append t.journal ~now
       (Printf.sprintf "refusal requester=%s query=%s reason=%s balance=%d"
          requester query_label (Error.kind_label reason) remaining));
  Response.Refused { corr; reason; remaining }

let handle t ~now (req : Request.t) =
  let label = Request.query_label req.query in
  let remaining () = Budget.remaining t.budget ~id:req.requester ~now in
  match Hashtbl.find_opt t.requesters req.requester with
  | None ->
      refuse t ~now ~corr:req.corr ~requester:req.requester
        ~query_label:label ~reason:Error.Auth_failed ~remaining:0
  | Some { role; key } ->
      if not (Request.verify ~key req) then
        refuse t ~now ~corr:req.corr ~requester:req.requester
          ~query_label:label ~reason:Error.Auth_failed
          ~remaining:(remaining ())
      else if not (allowed role req.query) then
        refuse t ~now ~corr:req.corr ~requester:req.requester
          ~query_label:label
          ~reason:
            (Error.Rejected
               (Printf.sprintf "role %s may not %s" (role_label role) label))
          ~remaining:(remaining ())
      else begin
        let cost = cost_of req.query in
        match Budget.charge t.budget ~id:req.requester ~now ~cost with
        | Budget.Exhausted { remaining; retry_after_s; _ } ->
            let what =
              if retry_after_s < 0 then
                Printf.sprintf "%s costs %d, balance %d" label cost remaining
              else
                Printf.sprintf "%s costs %d, balance %d, retry in %ds" label
                  cost remaining retry_after_s
            in
            show_budget t ~requester:req.requester;
            refuse t ~now ~corr:req.corr ~requester:req.requester
              ~query_label:label ~reason:(Error.Budget_exhausted what)
              ~remaining
        | Budget.Charged { remaining; _ } ->
            show_budget t ~requester:req.requester;
            (* The budget is spent either way: a failed query still
               probed the logs, and free probing would let a requester
               binary-search identities at no cost. *)
            (match execute t req.query with
            | Error reason ->
                refuse t ~now ~corr:req.corr ~requester:req.requester
                  ~query_label:label ~reason ~remaining
            | Ok grant ->
                M.Tally.incr t.grant_tally label;
                record_event t ~corr:req.corr ~granted:true ~query:label;
                ignore
                  (Journal.append t.journal ~now
                     (Printf.sprintf
                        "grant requester=%s query=%s cost=%d balance=%d"
                        req.requester label cost remaining));
                Response.Granted { corr = req.corr; cost; remaining; grant })
      end

let handle_bytes t ~now payload =
  match Request.of_bytes payload with
  | Ok req -> Some (Response.to_bytes (handle t ~now req))
  | Error reason ->
      Some
        (Response.to_bytes
           (refuse t ~now ~corr:0L ~requester:"?" ~query_label:"malformed"
              ~reason ~remaining:0))

let attach t node =
  As_node.set_broker_handler node (fun ~now payload ->
      handle_bytes t ~now payload);
  Accountability.set_decision_sink (As_node.accountability node)
    (fun ~now line -> ignore (Journal.append t.journal ~now ("aa " ^ line)))

let for_node ?budget node =
  let t =
    create ~keys:(As_node.keys node)
      ?audit:(As_node.audit node)
      ~credential_of:(fun hid ->
        Registry.credential_of_hid (As_node.registry node) hid)
      ?budget ()
  in
  attach t node;
  t
