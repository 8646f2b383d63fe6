open Apna_net
module E = Apna_obs.Event

(* Host <-> border-router latency inside an AS; packets cross it twice per
   AS-to-AS round. *)
let intra_as_delay_s = 0.0002

(* Flight-recorder event for one link crossing; callers guard on
   [E.enabled] so the disabled path never hashes or allocates. *)
let transit_event ~src ~dst (pkt : Packet.t) fate =
  E.link_transit E.default ~mac:pkt.header.mac ~src ~dst fate

(* One event per planned copy: [] = lost, a second copy = the injected
   duplicate, positive extra delay = reorder jitter. A top-level loop, not
   List.iteri: a closure over the packet would be allocated per crossing. *)
let rec copy_fates ~src ~dst pkt i = function
  | [] -> ()
  | extra :: rest ->
      transit_event ~src ~dst pkt
        (if i > 0 then E.Duplicated
         else if extra > 0.0 then E.Reordered
         else E.Delivered);
      copy_fates ~src ~dst pkt (i + 1) rest

let record_copy_fates ~src ~dst pkt copies =
  match copies with
  | [] -> transit_event ~src ~dst pkt E.Lost
  | copies -> copy_fates ~src ~dst pkt 0 copies

type transport = Native | Gre_ipv4

(* In the §VII-D deployment, APNA routers are IPv4 endpoints; give each AS
   a deterministic router address. *)
let router_ip aid = Addr.hid_of_int (0xac100000 lor (Addr.aid_to_int aid land 0xffff))

(* Fig. 9: IPv4 / GRE / APNA header / payload between APNA entities. *)
let encapsulate ~from ~to_ pkt =
  let inner = Gre.encapsulate ~protocol:Gre.protocol_apna (Packet.to_bytes pkt) in
  let header =
    Ipv4_header.make ~protocol:Ipv4_header.protocol_gre ~src:(router_ip from)
      ~dst:(router_ip to_) ~payload_len:(String.length inner) ()
  in
  Ipv4_header.to_bytes header ^ inner

let decapsulate bytes =
  let open Apna_util.Rw in
  let* header = Ipv4_header.of_bytes bytes in
  if header.protocol <> Ipv4_header.protocol_gre then Error "not GRE"
  else begin
    (* Slice by the header's length field, not the buffer length: bytes
       past total_len are link padding, not GRE payload. *)
    let inner = String.sub bytes Ipv4_header.size header.payload_len in
    let* proto, apna = Gre.decapsulate inner in
    if proto <> Gre.protocol_apna then Error "not an APNA payload"
    else Packet.of_bytes apna
  end

type t = {
  engine : Apna_sim.Engine.t;
  topology : Topology.t;
  trust : Trust.t;
  rng : Apna_crypto.Drbg.t;
  (* Fault decisions draw from their own DRBG so that turning faults on
     (or off) never perturbs protocol randomness — and a given seed injects
     the same faults no matter what the protocol does in between. *)
  fault_rng : Apna_crypto.Drbg.t;
  nodes : As_node.t Addr.Aid_tbl.t;
  epoch : int;
  (* Store-and-forward FIFO per directed link: when its sender side frees
     up. Serialization happens in order, so small packets cannot overtake
     large ones queued ahead of them. *)
  link_busy_until : (int * int, float ref) Hashtbl.t;
  (* Departure times of frames admitted to a bounded sender queue; entries
     at or before "now" have left the queue. Only touched when the link
     has a queue bound. *)
  link_queues : (int * int, float Queue.t) Hashtbl.t;
  mutable host_faults : Link.faults option;
  host_fault_stats : Link.fault_stats;
  mutable tap : from:Addr.aid -> to_:Addr.aid -> Packet.t -> unit;
  transport : transport;
}

let create ?(seed = "apna-network") ?(epoch = 1_750_000_000)
    ?(transport = Native) () =
  let engine = Apna_sim.Engine.create () in
  (* Flight-recorder events recorded inside this simulation should carry
     simulated time, not wall time. Last network created wins, like the
     engine gauges — one live simulation per process is the norm. *)
  Apna_obs.Event.set_clock Apna_obs.Event.default (fun () ->
      Apna_sim.Engine.now engine);
  {
    engine;
    topology = Topology.create ();
    trust = Trust.create ();
    rng = Apna_crypto.Drbg.create ~seed;
    fault_rng = Apna_crypto.Drbg.create ~seed:(seed ^ "/faults");
    nodes = Addr.Aid_tbl.create 8;
    epoch;
    link_busy_until = Hashtbl.create 16;
    link_queues = Hashtbl.create 16;
    host_faults = None;
    host_fault_stats = Link.fresh_fault_stats ();
    tap = (fun ~from:_ ~to_:_ _ -> ());
    transport;
  }

(* Uniform float in [0, 1) with 53 random bits, straight off the fault
   DRBG. *)
let fault_rand t () =
  let s = Apna_crypto.Drbg.generate t.fault_rng 8 in
  let bits = Int64.shift_right_logical (String.get_int64_be s 0) 11 in
  Int64.to_float bits /. 9007199254740992.0

(* Access-link fault plan for one host<->BR crossing: [None] = no faults
   configured, deliver exactly as before; [Some extras] = one delivered
   copy per entry ([] = lost). *)
let host_delivery_plan t =
  match t.host_faults with
  | None -> None
  | Some f when not (Link.faults_active f) -> None
  | Some f ->
      Some (Link.plan_faults f ~stats:t.host_fault_stats ~rand:(fault_rand t))

let engine t = t.engine
let topology t = t.topology
let trust t = t.trust
let rng t = t.rng
let now_f t = Apna_sim.Engine.now t.engine
let now_unix t = t.epoch + int_of_float (now_f t)
let node t aid = Addr.Aid_tbl.find_opt t.nodes aid

let ases t =
  Addr.Aid_tbl.fold (fun _ n acc -> n :: acc) t.nodes []
  |> List.sort (fun a b ->
         compare
           (Addr.aid_to_int (As_node.aid a))
           (Addr.aid_to_int (As_node.aid b)))

let node_exn t as_number =
  match node t (Addr.aid_of_int as_number) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Network.node_exn: AS%d unknown" as_number)

let add_as t as_number ?dns_zone ?retention ?icmp_encryption ?lifetime_policy
    ?expected_hosts ?aa_limits () =
  let aid = Addr.aid_of_int as_number in
  if Addr.Aid_tbl.mem t.nodes aid then
    invalid_arg (Printf.sprintf "Network.add_as: AS%d already exists" as_number);
  Topology.add_as t.topology aid;
  let node =
    As_node.create
      ~rng:(Apna_crypto.Drbg.split t.rng (Printf.sprintf "as-%d" as_number))
      ~aid ~trust:t.trust ~topology:t.topology
      ~now:(fun () -> now_unix t)
      ~now_f:(fun () -> now_f t)
      ~schedule:(fun ~delay f -> Apna_sim.Engine.schedule_in t.engine ~delay f)
      ?dns_zone ?retention ?icmp_encryption ?lifetime_policy ?expected_hosts
      ?aa_limits ()
  in
  As_node.set_emit node (fun ~next pkt ->
      match (Addr.Aid_tbl.find_opt t.nodes next, Topology.link t.topology aid next) with
      | Some peer, Some link ->
          t.tap ~from:aid ~to_:next pkt;
          let key = (as_number, Addr.aid_to_int next) in
          let busy =
            match Hashtbl.find_opt t.link_busy_until key with
            | Some b -> b
            | None ->
                let b = ref 0.0 in
                Hashtbl.replace t.link_busy_until key b;
                b
          in
          let now = Apna_sim.Engine.now t.engine in
          (* In GRE mode the packet really crosses the wire as IPv4/GRE
             bytes (Fig. 9): serialize, pay the encapsulation overhead, and
             re-parse at the far router — the codecs run on every hop. *)
          let wire_bytes, deliver =
            match t.transport with
            | Native -> (Packet.wire_size pkt, fun () -> As_node.receive peer pkt)
            | Gre_ipv4 ->
                let frame = encapsulate ~from:aid ~to_:next pkt in
                ( String.length frame,
                  fun () ->
                    match decapsulate frame with
                    | Ok pkt -> As_node.receive peer pkt
                    | Error e ->
                        Logs.err (fun m -> m "network: GRE decapsulation: %s" e) )
          in
          if wire_bytes > link.Link.mtu then begin
            (* Packet too big for the link: drop and tell the source the
               largest APNA packet that fits (path-MTU discovery, §II-C).
               The encapsulation overhead is charged against the MTU. *)
            let overhead = wire_bytes - Packet.wire_size pkt in
            As_node.feedback_to_source node pkt
              (Icmp.Frag_needed
                 {
                   mtu = link.Link.mtu - overhead;
                   quoted = String.sub (Packet.to_bytes pkt) 0 48;
                 })
          end
          else begin
            let faults = link.Link.faults in
            (* Bounded sender queue: frames whose serialization already
               finished have left; if what remains fills the bound, this
               frame is tail-dropped before it ever occupies the wire. *)
            let admitted =
              faults.Link.queue_frames = 0
              ||
              let q =
                match Hashtbl.find_opt t.link_queues key with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.replace t.link_queues key q;
                    q
              in
              while (not (Queue.is_empty q)) && Queue.peek q <= now do
                ignore (Queue.pop q)
              done;
              if Queue.length q >= faults.Link.queue_frames then begin
                Link.note_queue_drop ~stats:(Link.fault_stats link);
                if E.enabled E.default then
                  transit_event ~src:as_number ~dst:(Addr.aid_to_int next) pkt
                    E.Queue_drop;
                false
              end
              else true
            in
            if admitted then begin
              Link.observe_transit ~bytes:wire_bytes;
              let serialization =
                float_of_int (8 * wire_bytes) /. link.Link.capacity_bps
              in
              let departure = Float.max now !busy +. serialization in
              busy := departure;
              if faults.Link.queue_frames > 0 then
                Queue.add departure (Hashtbl.find t.link_queues key);
              (* One event per delivered copy: [] = lost on the wire (the
                 sender still paid serialization), extra delay = reorder
                 jitter. Fault-free links take the exact pre-fault path —
                 no DRBG draw, a single on-time delivery. *)
              let copies =
                if Link.faults_active faults then
                  Link.plan_delivery link ~rand:(fault_rand t)
                else [ 0.0 ]
              in
              if E.enabled E.default then
                record_copy_fates ~src:as_number ~dst:(Addr.aid_to_int next)
                  pkt copies;
              List.iter
                (fun extra ->
                  Apna_sim.Engine.schedule t.engine
                    ~at:(departure +. link.Link.propagation_s +. extra)
                    deliver)
                copies
            end
          end
      | _ ->
          Logs.debug (fun m ->
              m "network: dropping packet for unknown neighbor %a" Addr.pp_aid next));
  Addr.Aid_tbl.replace t.nodes aid node;
  node

let connect_as t a b ?(link = Link.make ()) () =
  Topology.connect t.topology (Addr.aid_of_int a) (Addr.aid_of_int b) link

let add_host t ~as_number ~name ~credential ?granularity () =
  let node = node_exn t as_number in
  let host =
    Host.create ~name
      ~rng:(Apna_crypto.Drbg.split t.rng ("host-" ^ name))
      ?granularity ()
  in
  As_node.add_host node host
    ~deliver:(fun pkt ->
      (* BR -> host crossing of the access link. Without configured host
         faults this stays synchronous, exactly the pre-fault behaviour. *)
      match host_delivery_plan t with
      | None -> Host.deliver host pkt
      | Some copies ->
          (* The faulty access hop is a link crossing too; src = dst = the
             AS number marks it as intra-AS in the flight recorder. *)
          if E.enabled E.default then
            record_copy_fates ~src:as_number ~dst:as_number pkt copies;
          List.iter
            (fun extra ->
              Apna_sim.Engine.schedule_in t.engine
                ~delay:(intra_as_delay_s +. extra) (fun () ->
                  Host.deliver host pkt))
            copies)
    ~credential ();
  (* Submissions hop the host->BR access link through the engine so every
     exchange consumes simulated time and stays deterministically ordered. *)
  (match Host.attachment host with
  | Some att ->
      let direct_submit = att.submit in
      Host.attach host
        {
          att with
          submit =
            (fun pkt ->
              match host_delivery_plan t with
              | None ->
                  Apna_sim.Engine.schedule_in t.engine ~delay:intra_as_delay_s
                    (fun () -> direct_submit pkt)
              | Some copies ->
                  if E.enabled E.default then
                    record_copy_fates ~src:as_number ~dst:as_number pkt copies;
                  List.iter
                    (fun extra ->
                      Apna_sim.Engine.schedule_in t.engine
                        ~delay:(intra_as_delay_s +. extra) (fun () ->
                          direct_submit pkt))
                    copies);
        }
  | None -> assert false);
  host

let set_host_faults t faults = t.host_faults <- faults
let host_fault_stats t = t.host_fault_stats

let link_fault_stats t a b =
  match Topology.link t.topology (Addr.aid_of_int a) (Addr.aid_of_int b) with
  | Some link -> Some (Link.fault_stats link)
  | None -> None

let run ?until t = Apna_sim.Engine.run ?until t.engine

let advance_time t dt =
  let target = now_f t +. dt in
  Apna_sim.Engine.run ~until:target t.engine

let set_tap t tap = t.tap <- tap
