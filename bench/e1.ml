(* E1: MS EphID generation (§V-A3). *)

open Apna
open Apna_crypto
open Harness
open Fixtures

let run tier =
  (* Workload side: reproduce the trace aggregates the paper reports. *)
  let cfg = Apna_workload.Trace.paper_config in
  let wrng = Apna_sim.Rng.create 42L in
  let peak = Apna_workload.Trace.peak_rate_measured wrng cfg ~bucket_s:1.0 in
  line "trace: %d hosts, configured peak %.0f flows/s, measured peak %.0f flows/s"
    cfg.hosts cfg.peak_rate peak;

  (* Full issuance pipeline: EphID construction + certificate signature. *)
  let keys = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64500) in
  let host_info = Host_info.create () in
  let hid = Apna_net.Addr.hid_of_int 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info hid kha;
  let aa_ephid = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let ms = Management.create ~keys ~host_info ~rng ~aa_ephid () in
  let ephid_keys = Keys.make_ephid_keys rng in
  let sig_pub = Ed25519.public_key ephid_keys.sig_keypair in
  let issue_s =
    time_per_op ~warmup:0 ~iters:(iters tier 20_000) (fun () ->
        match
          Management.issue_direct ms ~now:now0 ~hid ~kx_pub:ephid_keys.kx_public
            ~sig_pub ~lifetime:Lifetime.Medium
        with
        | Ok _ -> ()
        | Error e -> failwith (Error.to_string e))
  in
  let per_op_us = issue_s *. 1e6 in
  let rate = 1.0 /. issue_s in

  (* The wrapped path adds control-EphID validation and AEAD. *)
  let ctrl = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let request =
    Management.Client.make_request ~rng ~corr:1L ~kha ~keys:ephid_keys
      ~lifetime:Lifetime.Medium
  in
  let wrapped_us =
    time_per_op ~warmup:0 ~iters:(iters tier 5_000) (fun () ->
        match
          Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes ctrl)
            request
        with
        | Ok _ -> ()
        | Error e -> failwith (Error.to_string e))
    *. 1e6
  in

  line "";
  line "%-38s %12s %14s %10s" "configuration" "us/EphID" "EphIDs/sec" "headroom";
  let row name us =
    line "%-38s %12.1f %14.0f %9.1fx" name us (1e6 /. us) (1e6 /. us /. cfg.peak_rate)
  in
  row "this repo: issue (EphID+cert)" per_op_us;
  row "this repo: full request handling" wrapped_us;
  (* Issuance needs no coordination between processes (paper §V-A2); the
     paper ran 4 parallel workers, so scale the same way. *)
  row "this repo: issue x4 processes" (per_op_us /. 4.0);
  line "%-38s %12.1f %14.0f %9.1fx" "paper (C + AES-NI, 4 cores)" 13.7 72_800.0
    (72_800.0 /. 3_888.0);
  line "";
  line "shape check: generation rate exceeds the trace's peak demand";
  line "(%0.0f/s): single-core headroom %.1fx, matched-parallelism headroom %.1fx."
    cfg.peak_rate (rate /. cfg.peak_rate) (rate *. 4.0 /. cfg.peak_rate);
  ( J.Obj
      [
        ("trace_peak_flows_per_s", J.Float peak);
        ("issue_us", J.Float per_op_us);
        ("request_handling_us", J.Float wrapped_us);
        ("issue_per_s", J.Float rate);
      ],
    [] )

let experiment =
  { id = "E1"; title = "MS-EPHID-GENERATION"; paper_ref = "§V-A3 (in-text table)"; run }
