open Apna_net
module M = Apna_obs.Metrics
module E = Apna_obs.Event

(* Gateway flight-recorder events are keyed on the IPv4 bytes carried in
   the tunnel, so the encap at one gateway and the decap at its peer land
   in the same journey. The kinds are built once per gateway. *)
let gw_event kind bytes =
  if E.enabled E.default then E.record_hashed E.default bytes kind

let ethertype_ipv4 = 0x0800
let virtual_pool_base = 0x0ac80001 (* 10.200.0.1 *)

type flow = {
  mutable session : Session.t option;
  (* IPv4 packets that arrived before the session existed. *)
  backlog : string Queue.t;
}

module I64_tbl = Apna_util.I64_tbl

(* Shown in the default registry labeled by gateway name. *)
type counters = {
  mutable flows : int;
  mutable tunnel_rx : int;
  mutable tunnel_tx : int;
}

type t = {
  gw_name : string;
  counts : counters;
  ev_encap : E.kind;
  ev_decap : E.kind;
  host : Host.t;
  (* Client side: server IPv4 -> APNA destination. *)
  dst_map : Dns_service.Record.t Addr.Hid_tbl.t;
  (* (client_ip, server_ip) -> outbound flow. *)
  flows : ((int * int), flow) Hashtbl.t;
  (* Server side. *)
  mutable server_ip : Addr.hid option;
  vip_of_conn : Addr.hid I64_tbl.t;
  conn_of_vip : Session.t Addr.Hid_tbl.t;
  (* Original (client_ip, server_ip) per inbound conn for return rewrite. *)
  orig_of_conn : (int * int) I64_tbl.t;
  mutable next_vip : int;
  mutable ipv4_out : string -> unit;
}

let rec create ~name ~rng =
  let host = Host.create ~name ~rng () in
  let counts = { flows = 0; tunnel_rx = 0; tunnel_tx = 0 } in
  let labels = [ ("gateway", name) ] in
  let counter metric help read = M.Counter.register_fn M.default ~labels ~help metric read in
  counter "apna_gw_tunnel_frames_tx_total" "GRE frames encapsulated into the APNA tunnel"
    (fun () -> counts.tunnel_tx);
  counter "apna_gw_tunnel_frames_rx_total" "GRE frames decapsulated from the APNA tunnel"
    (fun () -> counts.tunnel_rx);
  counter "apna_gw_flows_opened_total" "Legacy IPv4 flows mapped onto APNA sessions"
    (fun () -> counts.flows);
  let t =
    {
      gw_name = name;
      counts;
      ev_encap = E.Gw_encap { gateway = name };
      ev_decap = E.Gw_decap { gateway = name };
      host;
      dst_map = Addr.Hid_tbl.create 8;
      flows = Hashtbl.create 8;
      server_ip = None;
      vip_of_conn = I64_tbl.create 8;
      conn_of_vip = Addr.Hid_tbl.create 8;
      orig_of_conn = I64_tbl.create 8;
      next_vip = virtual_pool_base;
      ipv4_out = ignore;
    }
  in
  Host.on_data t.host (fun ~session ~data -> handle_tunnel_data t session data);
  t

(* Tunnel framing: GRE with an IPv4 ethertype around the original packet,
   matching the deployment encapsulation of Fig. 9. *)
and encode_tunnel ipv4_packet = Gre.encapsulate ~protocol:ethertype_ipv4 ipv4_packet

and decode_tunnel data =
  match Gre.decapsulate data with
  | Ok (proto, inner) when proto = ethertype_ipv4 -> Ok inner
  | Ok (proto, _) -> Error (Printf.sprintf "gateway: unexpected GRE protocol %#x" proto)
  | Error e -> Error e

and rewrite_addrs bytes ~src ~dst =
  match Ipv4_header.of_bytes bytes with
  | Error e -> Error e
  | Ok header ->
      (* Honour the header's length field: bytes past total_len are link
         padding and must not be re-framed as payload. The NAT rewrite is
         done in place on one copy, checksum patched incrementally
         (RFC 1624) instead of recomputed over a rebuilt header. *)
      let b = Bytes.of_string (String.sub bytes 0 (Ipv4_header.size + header.payload_len)) in
      Ipv4_header.rewrite_addrs_inplace b ~src ~dst;
      Ok (Bytes.unsafe_to_string b)

and handle_tunnel_data t session data =
  match decode_tunnel data with
  | Error e -> Logs.debug (fun m -> m "%s: %s" t.gw_name e)
  | Ok inner -> begin
      t.counts.tunnel_rx <- t.counts.tunnel_rx + 1;
      gw_event t.ev_decap inner;
      match Ipv4_header.of_bytes inner with
      | Error e -> Logs.debug (fun m -> m "%s: inner ipv4: %s" t.gw_name e)
      | Ok header -> begin
          match t.server_ip with
          | Some server_ip ->
              (* Server side: map the remote flow onto a virtual endpoint
                 so the legacy server can tell remote clients apart. *)
              let conn = Session.conn_id session in
              let vip =
                match I64_tbl.find_opt t.vip_of_conn conn with
                | Some vip -> vip
                | None ->
                    let vip = Addr.hid_of_int t.next_vip in
                    t.next_vip <- t.next_vip + 1;
                    I64_tbl.replace t.vip_of_conn conn vip;
                    Addr.Hid_tbl.replace t.conn_of_vip vip session;
                    I64_tbl.replace t.orig_of_conn conn
                      (Addr.hid_to_int header.src, Addr.hid_to_int header.dst);
                    vip
              in
              (match rewrite_addrs inner ~src:vip ~dst:server_ip with
              | Ok rewritten -> t.ipv4_out rewritten
              | Error e -> Logs.debug (fun m -> m "%s: rewrite: %s" t.gw_name e))
          | None ->
              (* Client side: the tunnel already carries the original
                 addresses; hand the packet to the LAN. *)
              t.ipv4_out inner
        end
    end

let host t = t.host

let on_ipv4_output t f = t.ipv4_out <- f
let active_flows t = Hashtbl.length t.flows
let virtual_endpoints t = Addr.Hid_tbl.length t.conn_of_vip

let learn_destination t ~ipv4 record = Addr.Hid_tbl.replace t.dst_map ipv4 record

let resolve t ~name ?dns k =
  Host.dns_lookup t.host ~name ?dns (fun record ->
      match record with
      | Some r -> begin
          match r.ipv4 with
          | Some ip ->
              learn_destination t ~ipv4:ip r;
              k ()
          | None ->
              Logs.warn (fun m -> m "%s: record for %s has no IPv4" t.gw_name name)
        end
      | None -> Logs.warn (fun m -> m "%s: NXDOMAIN for %s" t.gw_name name))

let flow_send t flow tunnel =
  match flow.session with
  | Some session -> begin
      match Host.send t.host session tunnel with
      | Ok () -> ()
      | Error e -> Logs.debug (fun m -> m "%s: send: %a" t.gw_name Error.pp e)
    end
  | None -> Queue.add tunnel flow.backlog

let rec ipv4_input t bytes =
  match Ipv4_header.of_bytes bytes with
  | Error e -> Logs.debug (fun m -> m "%s: lan input: %s" t.gw_name e)
  | Ok header -> begin
      match t.server_ip with
      | Some _ -> server_side_input t bytes header
      | None -> client_side_input t bytes header
    end

and server_side_input t bytes (header : Ipv4_header.t) =
  match Addr.Hid_tbl.find_opt t.conn_of_vip header.dst with
  | None ->
      Logs.debug (fun m ->
          m "%s: no session for virtual endpoint %a" t.gw_name Addr.pp_hid header.dst)
  | Some session -> begin
      (* Restore the original addresses the remote side expects. *)
      match I64_tbl.find_opt t.orig_of_conn (Session.conn_id session) with
      | None -> ()
      | Some (client_ip, server_ip) -> begin
          match
            rewrite_addrs bytes ~src:(Addr.hid_of_int server_ip)
              ~dst:(Addr.hid_of_int client_ip)
          with
          | Error e -> Logs.debug (fun m -> m "%s: rewrite: %s" t.gw_name e)
          | Ok rewritten -> begin
              t.counts.tunnel_tx <- t.counts.tunnel_tx + 1;
              gw_event t.ev_encap rewritten;
              match Host.send t.host session (encode_tunnel rewritten) with
              | Ok () -> ()
              | Error e -> Logs.debug (fun m -> m "%s: send: %a" t.gw_name Error.pp e)
            end
        end
    end

and client_side_input t bytes (header : Ipv4_header.t) =
  let key = (Addr.hid_to_int header.src, Addr.hid_to_int header.dst) in
  let tunnel = encode_tunnel bytes in
  t.counts.tunnel_tx <- t.counts.tunnel_tx + 1;
  gw_event t.ev_encap bytes;
  match Hashtbl.find_opt t.flows key with
  | Some flow -> flow_send t flow tunnel
  | None -> begin
      match Addr.Hid_tbl.find_opt t.dst_map header.dst with
      | None ->
          Logs.debug (fun m ->
              m "%s: no APNA mapping for %a" t.gw_name Addr.pp_hid header.dst)
      | Some record ->
          (* New flow: fresh source EphID (per-flow granularity is the
             Host default) and 0-RTT carry of the first packet. *)
          let flow = { session = None; backlog = Queue.create () } in
          Hashtbl.replace t.flows key flow;
          t.counts.flows <- t.counts.flows + 1;
          Host.connect t.host ~remote:record.cert ~data0:tunnel
            ~expect_accept:record.receive_only (fun session ->
              flow.session <- Some session;
              Queue.iter (fun tun -> flow_send t flow tun) flow.backlog;
              Queue.clear flow.backlog)
    end

let expose t ~name ~server_ip ?dns k =
  t.server_ip <- Some server_ip;
  Host.publish t.host ~name ?dns ~ipv4:server_ip k
