(* The batched border-router fast path: burst/sequential equivalence,
   the buffer-aliasing and drop-counter regressions buffer reuse exposed,
   replay-window boundaries, and the allocation budget of the cached
   steady state. *)

open Apna
module Net = Apna_net
module M = Apna_obs.Metrics
module Event = Apna_obs.Event

let qtest ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Apna_crypto.Drbg.create ~seed:"burst-test"
let now0 = 1_750_000_000
let aid_local = Net.Addr.aid_of_int 64500
let aid_peer = Net.Addr.aid_of_int 64501
let aid_nowhere = Net.Addr.aid_of_int 64777

type fx = {
  keys : Keys.as_keys;
  host_info : Host_info.t;
  revoked : Revocation.t;
  topology : Net.Topology.t;
  kha : Keys.host_as;
  ephid : Ephid.t;
  expired_ephid : Ephid.t;
  revoked_ephid : Ephid.t;
  orphan_ephid : Ephid.t;  (** valid token of an unregistered HID *)
}

let make_fx () =
  let topology = Net.Topology.create () in
  Net.Topology.connect topology aid_local aid_peer (Net.Link.make ());
  let keys = Keys.make_as rng ~aid:aid_local in
  let host_info = Host_info.create () in
  let revoked = Revocation.create () in
  let hid = Net.Addr.hid_of_int 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Apna_crypto.Drbg.generate rng 32) in
  Host_info.register host_info hid kha;
  let expiry = now0 + 86_400 in
  let ephid = Ephid.issue_random keys rng ~hid ~expiry in
  let expired_ephid = Ephid.issue_random keys rng ~hid ~expiry:(now0 - 1) in
  let revoked_ephid = Ephid.issue_random keys rng ~hid ~expiry in
  Revocation.revoke revoked revoked_ephid ~expiry;
  let orphan_ephid =
    Ephid.issue_random keys rng ~hid:(Net.Addr.hid_of_int 0x0a0000fe) ~expiry
  in
  { keys; host_info; revoked; topology; kha; ephid; expired_ephid;
    revoked_ephid; orphan_ephid }

(* Two routers over the same control-plane state see the same world; only
   caches and counters are private, which is exactly what the equivalence
   property compares. *)
let router ?(cache = 8192) fx =
  Border_router.create ~keys:fx.keys ~host_info:fx.host_info
    ~revoked:fx.revoked ~topology:fx.topology ~ephid_cache:cache ()

let seal fx pkt = Pkt_auth.seal ~auth_key:fx.kha.auth pkt

let packet ?(src_aid = aid_local) ?(dst_aid = aid_peer) ~src_ephid ~dst_ephid fx
    =
  let header = Net.Apna_header.make ~src_aid ~src_ephid ~dst_aid ~dst_ephid () in
  seal fx (Net.Packet.make ~header ~proto:Net.Packet.Data ~payload:"payload")

type egress_kind = E_valid | E_bad_mac | E_foreign | E_expired | E_revoked

let egress_packet fx kind =
  let valid = Ephid.to_bytes fx.ephid in
  match kind with
  | E_valid -> packet fx ~src_ephid:valid ~dst_ephid:valid
  | E_bad_mac ->
      let good = packet fx ~src_ephid:valid ~dst_ephid:valid in
      Pkt_auth.seal ~auth_key:(String.make 32 'x') good
  | E_foreign ->
      packet fx ~src_aid:aid_peer ~src_ephid:valid ~dst_ephid:valid
  | E_expired ->
      packet fx ~src_ephid:(Ephid.to_bytes fx.expired_ephid) ~dst_ephid:valid
  | E_revoked ->
      packet fx ~src_ephid:(Ephid.to_bytes fx.revoked_ephid) ~dst_ephid:valid

type ingress_kind =
  | I_deliver
  | I_expired
  | I_revoked
  | I_unknown_host
  | I_transit
  | I_no_route

let ingress_packet fx kind =
  let valid = Ephid.to_bytes fx.ephid in
  let dst ephid = packet fx ~dst_aid:aid_local ~src_ephid:valid ~dst_ephid:ephid in
  match kind with
  | I_deliver -> dst valid
  | I_expired -> dst (Ephid.to_bytes fx.expired_ephid)
  | I_revoked -> dst (Ephid.to_bytes fx.revoked_ephid)
  | I_unknown_host -> dst (Ephid.to_bytes fx.orphan_ephid)
  | I_transit -> packet fx ~dst_aid:aid_peer ~src_ephid:valid ~dst_ephid:valid
  | I_no_route -> packet fx ~dst_aid:aid_nowhere ~src_ephid:valid ~dst_ephid:valid

(* ------------------------------------------------------------------ *)
(* Burst == sequential (the tentpole's contract) *)

let gen_egress_kinds =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (oneofl [ E_valid; E_bad_mac; E_foreign; E_expired; E_revoked ]))

let gen_ingress_kinds =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (oneofl
         [ I_deliver; I_expired; I_revoked; I_unknown_host; I_transit;
           I_no_route ]))

let same_router_state a b =
  Border_router.counters a = Border_router.counters b
  && Border_router.drop_reasons a = Border_router.drop_reasons b
  && Border_router.ephid_cache_stats a = Border_router.ephid_cache_stats b
  && Border_router.ephid_cache_size a = Border_router.ephid_cache_size b

let equivalence_tests =
  let egress_equiv ~cache name =
    qtest name gen_egress_kinds (fun kinds ->
        let fx = make_fx () in
        let seq = router ~cache fx and bat = router ~cache fx in
        let pkts = Array.of_list (List.map (egress_packet fx) kinds) in
        let n = Array.length pkts in
        let store = Border_router.Burst.create () in
        Border_router.egress_burst bat ~now:now0 pkts ~n store;
        let ok = ref true in
        Array.iteri
          (fun i pkt ->
            let one = Border_router.egress_check seq ~now:now0 pkt in
            if Border_router.Burst.egress_result store i <> one then ok := false)
          pkts;
        !ok && same_router_state seq bat)
  in
  let ingress_equiv ~cache name =
    qtest name gen_ingress_kinds (fun kinds ->
        let fx = make_fx () in
        let seq = router ~cache fx and bat = router ~cache fx in
        let pkts = Array.of_list (List.map (ingress_packet fx) kinds) in
        let n = Array.length pkts in
        let store = Border_router.Burst.create () in
        Border_router.ingress_burst bat ~now:now0 pkts ~n store;
        let ok = ref true in
        Array.iteri
          (fun i pkt ->
            let one = Border_router.ingress_check seq ~now:now0 pkt in
            if Border_router.Burst.ingress_result store i <> one then ok := false)
          pkts;
        !ok && same_router_state seq bat)
  in
  [
    (* Lists up to 40 > max_burst = 32 also exercise store growth and the
       arena-overflow fallback inside a single burst. *)
    egress_equiv ~cache:8192 "egress burst == sequential (cached)";
    egress_equiv ~cache:0 "egress burst == sequential (cache disabled)";
    ingress_equiv ~cache:8192 "ingress burst == sequential (cached)";
    ingress_equiv ~cache:0 "ingress burst == sequential (cache disabled)";
    Alcotest.test_case "burst store reuse across bursts and routers" `Quick
      (fun () ->
        let fx = make_fx () in
        let a = router fx and b = router fx in
        let pkts = Array.init 8 (fun _ -> egress_packet fx E_valid) in
        let store = Border_router.Burst.create ~capacity:2 () in
        Border_router.egress_burst a ~now:now0 pkts ~n:8 store;
        Border_router.egress_burst b ~now:now0 pkts ~n:8 store;
        for i = 0 to 7 do
          Alcotest.(check bool)
            (Printf.sprintf "packet %d accepted" i)
            true
            (Border_router.Burst.error store i = None)
        done;
        Alcotest.(check bool) "grew" true (Border_router.Burst.capacity store >= 8));
    Alcotest.test_case "n beyond array length rejected" `Quick (fun () ->
        let fx = make_fx () in
        let br = router fx in
        let pkts = Array.init 4 (fun _ -> egress_packet fx E_valid) in
        let store = Border_router.Burst.create () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Border_router.egress_burst: n") (fun () ->
            Border_router.egress_burst br ~now:now0 pkts ~n:5 store));
  ]

(* ------------------------------------------------------------------ *)
(* Regression: the cache key must not alias the caller's buffer *)

let aliasing_tests =
  [
    Alcotest.test_case "cache key survives caller buffer reuse" `Quick
      (fun () ->
        let fx = make_fx () in
        let br = router fx in
        (* The RX-ring situation: the EphID the packet carries is a view
           into a buffer the caller recycles after the call returns. *)
        let buf = Bytes.of_string (Ephid.to_bytes fx.ephid) in
        let raw = Bytes.unsafe_to_string buf in
        let pkt = packet fx ~src_ephid:raw ~dst_ephid:raw in
        (match Border_router.egress_check br ~now:now0 pkt with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "first packet: %s" (Error.to_string e));
        let cs = Border_router.ephid_cache_stats br in
        Alcotest.(check int) "inserted on miss" 1 cs.misses;
        (* Caller recycles the buffer. Before keys were interned this
           rewrote the cached key in place, corrupting the hash table. *)
        Bytes.fill buf 0 (Bytes.length buf) '\x00';
        (* A later packet with the same EphID (its own storage) must hit. *)
        let fresh = Ephid.to_bytes fx.ephid in
        let pkt2 = packet fx ~src_ephid:fresh ~dst_ephid:fresh in
        (match Border_router.egress_check br ~now:now0 pkt2 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "after reuse: %s" (Error.to_string e));
        Alcotest.(check int) "cache hit after buffer reuse" 1
          (Border_router.ephid_cache_stats br).hits;
        (* And the clobbered bytes themselves are just an invalid token,
           not a key into someone else's entry. *)
        let zeroed = Bytes.to_string buf in
        let pkt3 = packet fx ~src_ephid:zeroed ~dst_ephid:zeroed in
        Alcotest.(check bool) "zeroed token rejected" true
          (Result.is_error (Border_router.egress_check br ~now:now0 pkt3)));
  ]

(* ------------------------------------------------------------------ *)
(* Regression: drop counters register once per reason, not once per drop *)

let drop_counter_tests =
  [
    Alcotest.test_case "registrations bounded by distinct reasons" `Quick
      (fun () ->
        let fx = make_fx () in
        let br = router fx in
        let was = M.enabled M.default in
        M.set_enabled M.default true;
        Fun.protect
          ~finally:(fun () -> M.set_enabled M.default was)
          (fun () ->
            let drops = 200 in
            for i = 0 to drops - 1 do
              let kind = if i mod 2 = 0 then E_bad_mac else E_expired in
              match Border_router.egress_check br ~now:now0 (egress_packet fx kind) with
              | Ok _ -> Alcotest.fail "drop expected"
              | Error _ -> ()
            done;
            Alcotest.(check int) "dropped" drops (Border_router.counters br).dropped;
            Alcotest.(check int) "two reasons" 2
              (List.length (Border_router.drop_reasons br));
            (* The regression: one metric registration per *drop* grew the
               registry linearly with traffic. *)
            Alcotest.(check int) "one registration per reason" 2
              (Border_router.drop_registrations br)));
    Alcotest.test_case "counts accumulate while metrics are disabled" `Quick
      (fun () ->
        let fx = make_fx () in
        let br = router fx in
        let was = M.enabled M.default in
        M.set_enabled M.default false;
        Fun.protect
          ~finally:(fun () -> M.set_enabled M.default was)
          (fun () ->
            for _ = 1 to 10 do
              ignore (Border_router.egress_check br ~now:now0 (egress_packet fx E_bad_mac))
            done;
            Alcotest.(check (list (pair string int)))
              "reasons tracked without registry traffic"
              [ ("bad-mac", 10) ]
              (Border_router.drop_reasons br);
            Alcotest.(check int) "no registrations" 0
              (Border_router.drop_registrations br)));
  ]

(* ------------------------------------------------------------------ *)
(* Replay window boundaries *)

let replay_tests =
  [
    Alcotest.test_case "window edge" `Quick (fun () ->
        let w = Replay_window.create ~size:64 () in
        Alcotest.(check bool) "first" true (Replay_window.check_and_update w 100L);
        Alcotest.(check bool) "older than window" false
          (Replay_window.check_and_update w 36L);
        Alcotest.(check bool) "oldest in window" true
          (Replay_window.check_and_update w 37L);
        Alcotest.(check bool) "duplicate high" false
          (Replay_window.check_and_update w 100L);
        Alcotest.(check bool) "duplicate low" false
          (Replay_window.check_and_update w 37L);
        Alcotest.(check int64) "highest" 100L (Replay_window.highest w));
    Alcotest.test_case "far-future jump clears the window" `Quick (fun () ->
        let w = Replay_window.create ~size:64 () in
        ignore (Replay_window.check_and_update w 0L);
        ignore (Replay_window.check_and_update w 1L);
        Alcotest.(check bool) "jump" true (Replay_window.check_and_update w 10_000L);
        (* Everything in the slid window is fresh: stale bits from the old
           position must have been cleared, not wrapped around. *)
        let all_fresh = ref true in
        for s = 9_937 to 9_999 do
          if not (Replay_window.check_and_update w (Int64.of_int s)) then
            all_fresh := false
        done;
        Alcotest.(check bool) "slid window fresh" true !all_fresh;
        Alcotest.(check bool) "pre-jump seq stale" false
          (Replay_window.check_and_update w 1L));
    qtest ~count:200 "never accepts a sequence twice"
      QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 150))
      (fun seqs ->
        let w = Replay_window.create ~size:64 () in
        let accepted = Hashtbl.create 64 in
        List.for_all
          (fun s ->
            let s64 = Int64.of_int s in
            if Replay_window.check_and_update w s64 then
              if Hashtbl.mem accepted s64 then false
              else (Hashtbl.add accepted s64 (); true)
            else true)
          seqs);
  ]

(* ------------------------------------------------------------------ *)
(* parse_fast == parse *)

let parse_fast_tests =
  let fx = make_fx () in
  let sc = Ephid.scratch () in
  [
    qtest ~count:300 "parse_fast == parse on valid and corrupted tokens"
      QCheck2.Gen.(
        let* hid_i = int_range 0 0xffffffff in
        let* expiry = int_range 0 0x3fffffff in
        let* corrupt = option (pair (int_range 0 15) (int_range 1 255)) in
        return (hid_i, expiry, corrupt))
      (fun (hid_i, expiry, corrupt) ->
        let e =
          Ephid.issue_random fx.keys rng ~hid:(Net.Addr.hid_of_int hid_i) ~expiry
        in
        let raw =
          match corrupt with
          | None -> Ephid.to_bytes e
          | Some (i, x) ->
              let b = Bytes.of_string (Ephid.to_bytes e) in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
              Bytes.to_string b
        in
        let slow =
          match Ephid.of_bytes raw with
          | Ok t -> Ephid.parse fx.keys t
          | Error m -> Error (Error.Malformed m)
        in
        Ephid.parse_fast fx.keys sc raw = slow);
    Alcotest.test_case "wrong size rejected" `Quick (fun () ->
        Alcotest.(check bool) "short" true
          (Result.is_error (Ephid.parse_fast fx.keys sc "short"));
        Alcotest.(check bool) "long" true
          (Result.is_error
             (Ephid.parse_fast fx.keys sc (String.make (Ephid.size + 1) 'a'))));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation budget of the cached burst path *)

(* Minor words per packet over 50 cached egress bursts, with metrics and
   the flight recorder switched to [observed] for the measurement. *)
let cached_burst_allocs ~observed =
  let fx = make_fx () in
  let br = router fx in
  let n = Border_router.max_burst in
  let pkts = Array.init n (fun _ -> egress_packet fx E_valid) in
  let store = Border_router.Burst.create () in
  let m_was = M.enabled M.default and e_was = Event.enabled Event.default in
  M.set_enabled M.default observed;
  Event.set_enabled Event.default observed;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled M.default m_was;
      Event.set_enabled Event.default e_was;
      Event.clear Event.default)
    (fun () ->
      for _ = 1 to 3 do
        Border_router.egress_burst br ~now:now0 pkts ~n store
      done;
      let rounds = 50 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        Border_router.egress_burst br ~now:now0 pkts ~n store
      done;
      let per_pkt = (Gc.minor_words () -. w0) /. float_of_int (rounds * n) in
      Alcotest.(check bool)
        (Printf.sprintf "%.3f minor words/pkt <= 0.5" per_pkt)
        true (per_pkt <= 0.5);
      Alcotest.(check int) "no arena overflow" 0 (Border_router.arena_overflows br))

let alloc_tests =
  [
    Alcotest.test_case "cached egress burst allocates nothing per packet"
      `Quick (fun () -> cached_burst_allocs ~observed:false);
    Alcotest.test_case "observed egress burst allocates nothing" `Quick
      (fun () -> cached_burst_allocs ~observed:true);
  ]

let () =
  Alcotest.run "apna_burst"
    [
      ("equivalence", equivalence_tests);
      ("aliasing", aliasing_tests);
      ("drop-counters", drop_counter_tests);
      ("replay-window", replay_tests);
      ("parse-fast", parse_fast_tests);
      ("allocs", alloc_tests);
    ]
