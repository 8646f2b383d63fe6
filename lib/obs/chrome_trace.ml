(* Chrome trace-event array export (the format Perfetto and
   chrome://tracing load): timed records as "ph":"X" complete events,
   instants as "ph":"i", ts/dur in microseconds. *)

let us seconds = seconds *. 1e6

(* tid must be a non-negative integer for the viewers; the full 64-bit
   key travels in args.key as hex. *)
let tid_of_key key = Int64.to_int (Int64.logand key 0x3FFF_FFFF_FFFF_FFFFL)
let key_hex key = Printf.sprintf "%016Lx" key

let pid_of_kind = function
  | Event.Host_send { aid; _ }
  | Event.Br_egress { aid; _ }
  | Event.Br_ingress { aid; _ }
  | Event.Deliver { aid; _ }
  | Event.Shutoff { aid }
  | Event.Migrate { aid; _ }
  | Event.Broker_decision { aid; _ } ->
      aid
  | Event.Link_transit { src; _ } -> src
  | Event.Gw_encap _ | Event.Gw_decap _ | Event.Alert_state _ -> 0

let entry (r : Event.record) =
  let t0 = r.time -. r.dur in
  let phase =
    if r.dur > 0.0 then [ ("ph", Json.Str "X"); ("dur", Json.Float (us r.dur)) ]
    else [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  ( t0,
    Json.Obj
      ([ ("name", Json.Str (Event.stage_label r.kind)); ("cat", Json.Str "event") ]
      @ phase
      @ [
          ("ts", Json.Float (us t0));
          ("pid", Json.Int (pid_of_kind r.kind));
          ("tid", Json.Int (tid_of_key r.key));
          ( "args",
            Json.Obj
              [
                ("key", Json.Str (key_hex r.key));
                ("seq", Json.Int r.seq);
                ("where", Json.Str (Event.where r.kind));
                ("detail", Json.Str (Event.describe r.kind));
              ] );
        ]) )

let to_json sink =
  List.map entry (Event.to_list sink)
  |> List.stable_sort (fun (ta, _) (tb, _) -> compare ta tb)
  |> List.map snd
  |> fun entries -> Json.List entries

let to_string sink = Json.to_string (to_json sink)

let write_file sink path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string sink);
      output_char oc '\n')
