type faults = {
  loss : float;  (** probability a frame is silently dropped *)
  duplicate : float;  (** probability a frame is delivered twice *)
  reorder : float;  (** probability a frame picks up extra jitter *)
  jitter_s : float;  (** max extra delay applied to a reordered frame *)
  queue_frames : int;  (** bounded sender queue; 0 = unbounded *)
}

let no_faults =
  { loss = 0.0; duplicate = 0.0; reorder = 0.0; jitter_s = 0.0; queue_frames = 0 }

let make_faults ?(loss = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0)
    ?(jitter_ms = 0.0) ?(queue_frames = 0) () =
  if
    loss < 0.0 || loss > 1.0 || duplicate < 0.0 || duplicate > 1.0
    || reorder < 0.0 || reorder > 1.0 || jitter_ms < 0.0 || queue_frames < 0
  then invalid_arg "Link.make_faults";
  { loss; duplicate; reorder; jitter_s = jitter_ms /. 1e3; queue_frames }

let faults_active f =
  f.loss > 0.0 || f.duplicate > 0.0
  || (f.reorder > 0.0 && f.jitter_s > 0.0)
  || f.queue_frames > 0

type fault_stats = {
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable queue_dropped : int;
}

let fresh_fault_stats () =
  { lost = 0; duplicated = 0; reordered = 0; queue_dropped = 0 }

(* Process-wide totals over every link, shown in the default registry. *)
type totals = { mutable transits : int; mutable bytes : int }

let totals = { transits = 0; bytes = 0 }
let fault_totals = fresh_fault_stats ()

let () =
  let module M = Apna_obs.Metrics in
  let counter name help read = M.Counter.register_fn M.default ~help name read in
  counter "apna_net_link_transits_total" "Frames placed on inter-AS links" (fun () ->
      totals.transits);
  counter "apna_net_link_bytes_total" "Wire bytes placed on inter-AS links" (fun () ->
      totals.bytes);
  counter "apna_net_fault_lost_total" "Frames dropped by injected link loss" (fun () ->
      fault_totals.lost);
  counter "apna_net_fault_duplicated_total"
    "Frames delivered twice by injected link duplication" (fun () ->
      fault_totals.duplicated);
  counter "apna_net_fault_reordered_total" "Frames delayed by injected reorder jitter"
    (fun () -> fault_totals.reordered);
  counter "apna_net_fault_queue_drops_total" "Frames tail-dropped by a bounded link queue"
    (fun () -> fault_totals.queue_dropped)

type t = {
  capacity_bps : float;
  propagation_s : float;
  mtu : int;
  faults : faults;
  stats : fault_stats;
}

let make ?(capacity_gbps = 10.0) ?(propagation_ms = 5.0) ?(mtu = 1500)
    ?(faults = no_faults) () =
  if capacity_gbps <= 0.0 || propagation_ms < 0.0 || mtu < 128 then
    invalid_arg "Link.make";
  {
    capacity_bps = capacity_gbps *. 1e9;
    propagation_s = propagation_ms /. 1e3;
    mtu;
    faults;
    stats = fresh_fault_stats ();
  }

let fault_stats t = t.stats

let transit_delay t ~bytes =
  t.propagation_s +. (float_of_int (8 * bytes) /. t.capacity_bps)

(* Called once per frame by the network layer when it commits a frame to a
   link — not from [transit_delay], which path estimators call repeatedly. *)
let observe_transit ~bytes =
  totals.transits <- totals.transits + 1;
  totals.bytes <- totals.bytes + bytes

(* Decide the fate of one frame. Draws from [rand] only for fault classes
   whose probability is non-zero, so a faults record with every probability
   at 0 consumes no randomness and the run is byte-identical to a fault-free
   one. Returns the extra delay of each delivered copy; [] means the frame
   was lost. *)
let plan_faults f ~(stats : fault_stats) ~rand =
  if f.loss > 0.0 && rand () < f.loss then begin
    stats.lost <- stats.lost + 1;
    fault_totals.lost <- fault_totals.lost + 1;
    []
  end
  else begin
    let copies =
      if f.duplicate > 0.0 && rand () < f.duplicate then begin
        stats.duplicated <- stats.duplicated + 1;
        fault_totals.duplicated <- fault_totals.duplicated + 1;
        2
      end
      else 1
    in
    List.init copies (fun _ ->
        if f.reorder > 0.0 && f.jitter_s > 0.0 && rand () < f.reorder then begin
          stats.reordered <- stats.reordered + 1;
          fault_totals.reordered <- fault_totals.reordered + 1;
          rand () *. f.jitter_s
        end
        else 0.0)
  end

let plan_delivery t ~rand = plan_faults t.faults ~stats:t.stats ~rand

let note_queue_drop ~(stats : fault_stats) =
  stats.queue_dropped <- stats.queue_dropped + 1;
  fault_totals.queue_dropped <- fault_totals.queue_dropped + 1
