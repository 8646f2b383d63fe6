(* Fixtures and measurement helpers shared by the experiments. *)

open Apna
open Apna_crypto
module J = Apna_obs.Json

let rng = Drbg.create ~seed:"bench"
let now0 = 1_750_000_000

type br_fixture = {
  keys : Keys.as_keys;
  br : Border_router.t;
  host_kha : Keys.host_as;
  host_ephid : Ephid.t;
  host_info : Host_info.t;
  hid : Apna_net.Addr.hid;
  topology : Apna_net.Topology.t;
}

(* One border router of AS 64500 (peered with 64501) and one registered
   host. [ephid_cache] defaults to 0 (disabled) so the headline Fig. 8 rows
   measure the full per-packet pipeline. *)
let make_br_fixture ?(ephid_cache = 0) () =
  let topology = Apna_net.Topology.create () in
  let a = Apna_net.Addr.aid_of_int 64500 and b = Apna_net.Addr.aid_of_int 64501 in
  Apna_net.Topology.connect topology a b (Apna_net.Link.make ());
  let keys = Keys.make_as rng ~aid:a in
  let host_info = Host_info.create () in
  let revoked = Revocation.create () in
  let hid = Apna_net.Addr.hid_of_int 0x0a000001 in
  let host_kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info hid host_kha;
  let host_ephid = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let br = Border_router.create ~keys ~host_info ~revoked ~topology ~ephid_cache () in
  { keys; br; host_kha; host_ephid; host_info; hid; topology }

(* A data packet whose wire size is exactly [frame] bytes, with a valid
   host MAC — what the egress pipeline sees. *)
let make_packet fx ~frame =
  let payload_len = frame - Apna_net.Apna_header.size - 1 in
  if payload_len < 0 then invalid_arg "frame too small";
  let header =
    Apna_net.Apna_header.make ~src_aid:fx.keys.aid
      ~src_ephid:(Ephid.to_bytes fx.host_ephid)
      ~dst_aid:(Apna_net.Addr.aid_of_int 64501)
      ~dst_ephid:(Ephid.to_bytes fx.host_ephid)
      ()
  in
  let pkt =
    Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
      ~payload:(String.make payload_len 'x')
  in
  Pkt_auth.seal ~auth_key:fx.host_kha.auth pkt

let ok_or_fail = function Ok x -> x | Error e -> failwith (Error.to_string e)

(* Egress one packet, failing loudly on a drop. *)
let egress_ok fx pkt () =
  ignore (ok_or_fail (Border_router.egress_check fx.br ~now:now0 pkt))

(* Modelled, not measured: single-core ns/pkt scaled to the paper's 16
   cores (2x Xeon E5-2680). Columns built from it say "m16", JSON keys
   "_modelled_16core". *)
let mpps_modelled_16core ns = 16.0 /. ns *. 1e3

(* CPU-time per operation; iteration counts are chosen so each measurement
   runs for well above the Sys.time resolution. *)
let time_per_op ?(warmup = 3) ~iters f =
  for _ = 1 to warmup do
    f ()
  done;
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int iters

(* Wall-clock nanoseconds since a [Monotonic_clock.now] reading. *)
let ns_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* Per-op latency samples: batches timed with the monotonic clock, so the
   distribution (not just the mean) is visible. One sample = mean ns over
   [batch] back-to-back calls. *)
let latency_samples ~samples ~batch f =
  for _ = 1 to 3 do
    f ()
  done;
  Array.init samples (fun _ ->
      let t0 = Monotonic_clock.now () in
      for _ = 1 to batch do
        f ()
      done;
      ns_since t0 /. float_of_int batch)

(* [percentile samples p] is the sample at rank [n * p / 100] of the
   sorted copy; nan when there are none. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    s.(min (n - 1) (n * p / 100))
  end

(* An in-run timing ratio that load does not move: [a] and [b] are timed
   back to back in each of [rounds] rounds (p50 of [samples] batches of
   [batch] calls each), the order alternating by round, and the result is
   the median of the per-round [a / b]. A burst of machine noise then
   spoils a few rounds, not one whole side. *)
let interleaved_ratio ~rounds ~samples ~batch a b =
  let p50 f = percentile (latency_samples ~samples ~batch f) 50 in
  let ratios =
    Array.init rounds (fun r ->
        if r mod 2 = 0 then
          let ta = p50 a in
          ta /. p50 b
        else
          let tb = p50 b in
          p50 a /. tb)
  in
  percentile ratios 50

let rules_json rules =
  J.List (List.map (fun r -> J.Str r) (List.sort String.compare rules))
