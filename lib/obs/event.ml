(* Packet flight recorder: typed lifecycle events in a bounded ring — the
   one trace sink (default-off, fixed ring, global seq counter). A record
   with a non-zero [dur] is a timed stage.

   The ring is struct-of-arrays: the 64-bit key in a byte buffer, time and
   dur in float arrays, the kind as a tag byte plus int and string payload
   slots. Appending stores unboxed scalars and pointers to strings the
   caller keeps alive, so a record allocates nothing and the minor GC never
   promotes one. Storage is allocated when the sink is first enabled. *)

type fate = Delivered | Lost | Duplicated | Reordered | Queue_drop

type egress_outcome = Egress_ok | Egress_drop of string

type ingress_outcome =
  | Ingress_deliver
  | Ingress_forward of int
  | Ingress_drop of string

type kind =
  | Host_send of { aid : int; host : string }
  | Br_egress of { aid : int; outcome : egress_outcome }
  | Link_transit of { src : int; dst : int; fate : fate }
  | Br_ingress of { aid : int; outcome : ingress_outcome }
  | Deliver of { aid : int; hid : int }
  | Gw_encap of { gateway : string }
  | Gw_decap of { gateway : string }
  | Shutoff of { aid : int }
  | Migrate of { aid : int; host : string; reason : string }
  | Broker_decision of { aid : int; granted : bool; query : string }
  | Alert_state of { rule : string; series : string; state : string }

type record = { key : int64; time : float; dur : float; seq : int; kind : kind }

(* Slot layout: [ints] and [strs] hold [ints_per]/[strs_per] payload
   words per slot; which of them a tag uses is fixed by [set_kind] and
   [kind_at]. *)
let ints_per = 3
let strs_per = 3

type sink = {
  mutable on : bool;
  mutable clock : (unit -> float) option;  (** [None]: [Sys.time] *)
  cap : int;
  mutable keys : Bytes.t;  (** 8 bytes per slot, native endian *)
  mutable tags : Bytes.t;
  mutable times : Float.Array.t;
  mutable durs : Float.Array.t;
  mutable ints : int array;
  mutable strs : string array;
  mutable written : int;
}

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Storage is allocated on first enable: a sink that is never switched on
   (most processes hold one, [default]) costs a few words. *)
let allocate t =
  let cap = t.cap in
  t.keys <- Bytes.make (8 * cap) '\000';
  t.tags <- Bytes.make cap '\000';
  t.times <- Float.Array.make cap 0.0;
  t.durs <- Float.Array.make cap 0.0;
  t.ints <- Array.make (ints_per * cap) 0;
  t.strs <- Array.make (strs_per * cap) ""

let set_enabled t on =
  if on && Bytes.length t.tags = 0 then allocate t;
  t.on <- on

let create_sink ?(capacity = 16384) ?(enabled = false) () =
  if capacity <= 0 then invalid_arg "Event.create_sink: capacity must be > 0";
  let t =
    {
      on = false;
      clock = None;
      cap = capacity;
      keys = Bytes.empty;
      tags = Bytes.empty;
      times = Float.Array.create 0;
      durs = Float.Array.create 0;
      ints = [||];
      strs = [||];
      written = 0;
    }
  in
  set_enabled t enabled;
  t

let default = create_sink ()
let enabled t = t.on
let set_clock t clock = t.clock <- Some clock

let start t =
  if not t.on then 0.0
  else match t.clock with None -> Sys.time () | Some f -> f ()

(* Claim the next slot, stamped with the clock and [dur = 0.0]. Each
   branch stores its own reading: [Sys.time] called directly returns an
   unboxed float, and a clock closure returns a float it already holds
   (the engine's current time), so no float is boxed here. *)
let next_slot t =
  let slot = t.written mod t.cap in
  t.written <- t.written + 1;
  (match t.clock with
  | None -> Float.Array.unsafe_set t.times slot (Sys.time ())
  | Some f -> Float.Array.unsafe_set t.times slot (f ()));
  Float.Array.unsafe_set t.durs slot 0.0;
  slot

(* FNV-1a, 64-bit. A loop rather than String.iter: a ref no closure
   captures stays unboxed. *)
let[@inline] key_of_string s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* The hash goes straight into the key slot, never boxed. *)
let hash_into t slot s = set64u t.keys (slot lsl 3) (key_of_string s)

let set_ints t slot tag a b c =
  Bytes.unsafe_set t.tags slot (Char.unsafe_chr tag);
  let i = slot * ints_per in
  Array.unsafe_set t.ints i a;
  Array.unsafe_set t.ints (i + 1) b;
  Array.unsafe_set t.ints (i + 2) c

let set_str t slot k s = Array.unsafe_set t.strs ((slot * strs_per) + k) s

let fate_code = function
  | Delivered -> 0
  | Lost -> 1
  | Duplicated -> 2
  | Reordered -> 3
  | Queue_drop -> 4

let fate_of_code = function
  | 0 -> Delivered
  | 1 -> Lost
  | 2 -> Duplicated
  | 3 -> Reordered
  | _ -> Queue_drop

(* Tags. Payload use: ints (a, b, c), strings (s0, s1, s2). *)
let t_host_send = 0 (* a = aid; s0 = host *)
let t_egress_ok = 1 (* a = aid *)
let t_egress_drop = 2 (* a = aid; s0 = reason *)
let t_link = 3 (* a = src, b = dst, c = fate *)
let t_ingress_deliver = 4 (* a = aid *)
let t_ingress_forward = 5 (* a = aid, b = next *)
let t_ingress_drop = 6 (* a = aid; s0 = reason *)
let t_deliver = 7 (* a = aid, b = hid *)
let t_gw_encap = 8 (* s0 = gateway *)
let t_gw_decap = 9 (* s0 = gateway *)
let t_shutoff = 10 (* a = aid *)
let t_migrate = 11 (* a = aid; s0 = host, s1 = reason *)
let t_broker = 12 (* a = aid, b = granted; s0 = query *)
let t_alert = 13 (* s0 = rule, s1 = series, s2 = state *)

let set_egress t slot aid = function
  | Egress_ok -> set_ints t slot t_egress_ok aid 0 0
  | Egress_drop reason ->
      set_ints t slot t_egress_drop aid 0 0;
      set_str t slot 0 reason

let set_ingress t slot aid = function
  | Ingress_deliver -> set_ints t slot t_ingress_deliver aid 0 0
  | Ingress_forward next -> set_ints t slot t_ingress_forward aid next 0
  | Ingress_drop reason ->
      set_ints t slot t_ingress_drop aid 0 0;
      set_str t slot 0 reason

let set_kind t slot = function
  | Host_send { aid; host } ->
      set_ints t slot t_host_send aid 0 0;
      set_str t slot 0 host
  | Br_egress { aid; outcome } -> set_egress t slot aid outcome
  | Link_transit { src; dst; fate } ->
      set_ints t slot t_link src dst (fate_code fate)
  | Br_ingress { aid; outcome } -> set_ingress t slot aid outcome
  | Deliver { aid; hid } -> set_ints t slot t_deliver aid hid 0
  | Gw_encap { gateway } ->
      set_ints t slot t_gw_encap 0 0 0;
      set_str t slot 0 gateway
  | Gw_decap { gateway } ->
      set_ints t slot t_gw_decap 0 0 0;
      set_str t slot 0 gateway
  | Shutoff { aid } -> set_ints t slot t_shutoff aid 0 0
  | Migrate { aid; host; reason } ->
      set_ints t slot t_migrate aid 0 0;
      set_str t slot 0 host;
      set_str t slot 1 reason
  | Broker_decision { aid; granted; query } ->
      set_ints t slot t_broker aid (Bool.to_int granted) 0;
      set_str t slot 0 query
  | Alert_state { rule; series; state } ->
      set_ints t slot t_alert 0 0 0;
      set_str t slot 0 rule;
      set_str t slot 1 series;
      set_str t slot 2 state

let record t ~key ?since kind =
  if t.on then begin
    let slot = next_slot t in
    set64u t.keys (slot lsl 3) key;
    (match since with
    | None -> ()
    | Some t0 ->
        Float.Array.unsafe_set t.durs slot (Float.Array.unsafe_get t.times slot -. t0));
    set_kind t slot kind
  end

let record_hashed t bytes kind =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot bytes;
    set_kind t slot kind
  end

(* Typed packet-path entry points: the payload goes straight into its
   slots, so no [kind] block is built. *)

let host_send t ~mac ~aid ~host =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_ints t slot t_host_send aid 0 0;
    set_str t slot 0 host
  end

let br_egress t ~mac ~aid outcome =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_egress t slot aid outcome
  end

let br_ingress t ~mac ~aid outcome =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_ingress t slot aid outcome
  end

let br_forward t ~mac ~aid ~next =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_ints t slot t_ingress_forward aid next 0
  end

let link_transit t ~mac ~src ~dst fate =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_ints t slot t_link src dst (fate_code fate)
  end

let deliver t ~mac ~aid ~hid =
  if t.on then begin
    let slot = next_slot t in
    hash_into t slot mac;
    set_ints t slot t_deliver aid hid 0
  end

(* ---- reading ---- *)

let kind_at t slot =
  let i = slot * ints_per and s = slot * strs_per in
  let a = t.ints.(i) and b = t.ints.(i + 1) and c = t.ints.(i + 2) in
  let s0 = t.strs.(s) and s1 = t.strs.(s + 1) and s2 = t.strs.(s + 2) in
  match Char.code (Bytes.get t.tags slot) with
  | 0 -> Host_send { aid = a; host = s0 }
  | 1 -> Br_egress { aid = a; outcome = Egress_ok }
  | 2 -> Br_egress { aid = a; outcome = Egress_drop s0 }
  | 3 -> Link_transit { src = a; dst = b; fate = fate_of_code c }
  | 4 -> Br_ingress { aid = a; outcome = Ingress_deliver }
  | 5 -> Br_ingress { aid = a; outcome = Ingress_forward b }
  | 6 -> Br_ingress { aid = a; outcome = Ingress_drop s0 }
  | 7 -> Deliver { aid = a; hid = b }
  | 8 -> Gw_encap { gateway = s0 }
  | 9 -> Gw_decap { gateway = s0 }
  | 10 -> Shutoff { aid = a }
  | 11 -> Migrate { aid = a; host = s0; reason = s1 }
  | 12 -> Broker_decision { aid = a; granted = b <> 0; query = s0 }
  | _ -> Alert_state { rule = s0; series = s1; state = s2 }

let recorded t = t.written
let capacity t = t.cap
let evicted t = max 0 (t.written - t.cap)

(* Seq of the oldest retained record; retained seqs run to [written - 1]
   and seq [n] lives in slot [n mod cap]. *)
let first_seq t = t.written - min t.written t.cap
let key_at t slot = get64u t.keys (slot lsl 3)

let record_at t seq =
  let slot = seq mod t.cap in
  {
    key = key_at t slot;
    time = Float.Array.get t.times slot;
    dur = Float.Array.get t.durs slot;
    seq;
    kind = kind_at t slot;
  }

let to_list t =
  let first = first_seq t in
  List.init (t.written - first) (fun i -> record_at t (first + i))

let by_key t key =
  let acc = ref [] in
  for seq = t.written - 1 downto first_seq t do
    if Int64.equal (key_at t (seq mod t.cap)) key then
      acc := record_at t seq :: !acc
  done;
  !acc

let clear t =
  t.written <- 0;
  (* Drop the string pointers so the ring keeps nothing alive. *)
  Array.fill t.strs 0 (Array.length t.strs) ""

let fate_label = function
  | Delivered -> "delivered"
  | Lost -> "lost"
  | Duplicated -> "duplicated"
  | Reordered -> "reordered"
  | Queue_drop -> "queue-drop"

let stage_label = function
  | Host_send _ -> "host.send"
  | Br_egress _ -> "border_router.egress"
  | Link_transit _ -> "link.transit"
  | Br_ingress _ -> "border_router.ingress"
  | Deliver _ -> "as_node.deliver"
  | Gw_encap _ -> "gw.encap"
  | Gw_decap _ -> "gw.decap"
  | Shutoff _ -> "shutoff"
  | Migrate _ -> "host.session.migrate"
  | Broker_decision _ -> "broker.decide"
  | Alert_state _ -> "alert"

let stage_summary t =
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let stage = stage_label r.kind in
      let n, total =
        match Hashtbl.find_opt tbl stage with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0.0) in
            Hashtbl.replace tbl stage cell;
            cell
      in
      incr n;
      total := !total +. r.dur)
    (to_list t);
  Hashtbl.fold
    (fun stage (n, total) acc -> (stage, !n, !total /. float_of_int !n) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let where = function
  | Host_send { aid; _ }
  | Br_egress { aid; _ }
  | Br_ingress { aid; _ }
  | Deliver { aid; _ }
  | Shutoff { aid }
  | Migrate { aid; _ }
  | Broker_decision { aid; _ } ->
      Printf.sprintf "AS%d" aid
  | Link_transit { src; dst; _ } -> Printf.sprintf "AS%d->AS%d" src dst
  | Gw_encap { gateway } | Gw_decap { gateway } -> "gw:" ^ gateway
  | Alert_state { series; _ } -> "alerts:" ^ series

let describe = function
  | Host_send { aid; host } -> Printf.sprintf "host %s @ AS%d" host aid
  | Br_egress { aid; outcome = Egress_ok } -> Printf.sprintf "ok @ AS%d" aid
  | Br_egress { aid; outcome = Egress_drop reason } ->
      Printf.sprintf "DROP [%s] @ AS%d" reason aid
  | Link_transit { src; dst; fate } ->
      Printf.sprintf "AS%d -> AS%d %s" src dst (fate_label fate)
  | Br_ingress { aid; outcome = Ingress_deliver } ->
      Printf.sprintf "deliver-local @ AS%d" aid
  | Br_ingress { aid; outcome = Ingress_forward next } ->
      Printf.sprintf "forward -> AS%d @ AS%d" next aid
  | Br_ingress { aid; outcome = Ingress_drop reason } ->
      Printf.sprintf "DROP [%s] @ AS%d" reason aid
  | Deliver { aid; hid } -> Printf.sprintf "to host %#x @ AS%d" hid aid
  | Gw_encap { gateway } -> Printf.sprintf "encap @ gw:%s" gateway
  | Gw_decap { gateway } -> Printf.sprintf "decap @ gw:%s" gateway
  | Shutoff { aid } -> Printf.sprintf "shutoff executed @ AS%d" aid
  | Migrate { aid; host; reason } ->
      Printf.sprintf "session migrated by host %s [%s] @ AS%d" host reason aid
  | Broker_decision { aid; granted; query } ->
      Printf.sprintf "broker %s [%s] @ AS%d"
        (if granted then "grant" else "refusal")
        query aid
  | Alert_state { rule; series; state } ->
      Printf.sprintf "alert %s -> %s on %s" rule state series
