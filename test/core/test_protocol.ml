(* Unit tests for the core protocol modules: EphIDs, certificates, control
   messages, sessions, the four AS services, and their failure paths. *)

open Apna
open Apna_crypto

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng = Drbg.create ~seed:"protocol-tests"
let now0 = 1_750_000_000
let aid = Apna_net.Addr.aid_of_int
let hid = Apna_net.Addr.hid_of_int
let as_keys = Keys.make_as rng ~aid:(aid 64500)
let other_as_keys = Keys.make_as rng ~aid:(aid 64501)

let check_err what expected = function
  | Error e when Error.equal e expected -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" what

let check_ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* EphID construction (Fig. 6) *)

let ephid_tests =
  [
    Alcotest.test_case "issue/parse roundtrip" `Quick (fun () ->
        let e = Ephid.issue as_keys ~hid:(hid 0x0a0000ff) ~expiry:(now0 + 900)
            ~iv:"\x01\x02\x03\x04"
        in
        match Ephid.parse as_keys e with
        | Ok info ->
            Alcotest.(check int) "hid" 0x0a0000ff (Apna_net.Addr.hid_to_int info.hid);
            Alcotest.(check int) "expiry" (now0 + 900) info.expiry
        | Error err -> Alcotest.fail (Error.to_string err));
    Alcotest.test_case "sixteen bytes exactly" `Quick (fun () ->
        let e = Ephid.issue as_keys ~hid:(hid 1) ~expiry:now0 ~iv:"aaaa" in
        Alcotest.(check int) "size" 16 (String.length (Ephid.to_bytes e)));
    Alcotest.test_case "foreign AS cannot parse" `Quick (fun () ->
        let e = Ephid.issue as_keys ~hid:(hid 1) ~expiry:now0 ~iv:"aaaa" in
        check_err "foreign parse" (Error.Malformed "ephid: tag verification failed")
          (Ephid.parse other_as_keys e));
    qtest "tampering any bit is detected" QCheck2.Gen.(int_range 0 127)
      (fun bit ->
        let e = Ephid.issue as_keys ~hid:(hid 42) ~expiry:now0 ~iv:"\x09\x08\x07\x06" in
        let b = Bytes.of_string (Ephid.to_bytes e) in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        match Ephid.of_bytes (Bytes.unsafe_to_string b) with
        | Error _ -> true
        | Ok forged -> Result.is_error (Ephid.parse as_keys forged));
    qtest "different IVs yield unlinkable tokens" QCheck2.Gen.(int_range 0 1000)
      (fun n ->
        let iv1 = Printf.sprintf "%04d" n and iv2 = Printf.sprintf "%04d" (n + 1) in
        let e1 = Ephid.issue as_keys ~hid:(hid 7) ~expiry:now0 ~iv:iv1 in
        let e2 = Ephid.issue as_keys ~hid:(hid 7) ~expiry:now0 ~iv:iv2 in
        not (Ephid.equal e1 e2));
    Alcotest.test_case "expiry check" `Quick (fun () ->
        let e = Ephid.issue as_keys ~hid:(hid 1) ~expiry:(now0 + 10) ~iv:"aaaa" in
        match Ephid.parse as_keys e with
        | Ok info ->
            Alcotest.(check bool) "fresh" false (Ephid.expired info ~now:now0);
            Alcotest.(check bool) "stale" true (Ephid.expired info ~now:(now0 + 11))
        | Error err -> Alcotest.fail (Error.to_string err));
    Alcotest.test_case "of_bytes validates length" `Quick (fun () ->
        Alcotest.(check bool) "short" true (Result.is_error (Ephid.of_bytes "short"));
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Ephid.of_bytes (String.make 16 'x'))));
    qtest "parse_bytes is total on arbitrary wire bytes" ~count:500
      (* Bias toward the 16-byte boundary where String.sub used to be able
         to raise; a wrong length or a bad tag must both come back as
         Error (Malformed _), never as an exception. *)
      QCheck2.Gen.(
        oneof
          [
            string_size (int_range 0 48);
            string_size (return 15);
            string_size (return 16);
            string_size (return 17);
          ])
      (fun s ->
        match Ephid.parse_bytes as_keys s with
        | Ok (e, _) ->
            String.length s = 16 && String.equal (Ephid.to_bytes e) s
        | Error (Error.Malformed _) -> true
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Certificates *)

let make_cert ?(keys = as_keys) ?(expiry = now0 + 900) () =
  let ek = Keys.make_ephid_keys rng in
  let ephid = Ephid.issue_random keys rng ~hid:(hid 5) ~expiry in
  let aa = Ephid.issue_random keys rng ~hid:(hid 3) ~expiry in
  ( Cert.issue keys ~ephid ~expiry ~kx_pub:ek.kx_public
      ~sig_pub:(Ed25519.public_key ek.sig_keypair) ~aa_ephid:aa,
    ek )

(* A trust store holding [keys]' signing key as AS 64500's. *)
let trust_with ?(keys = as_keys) () =
  let trust = Trust.create () in
  Trust.register_as trust (aid 64500) ~pub:(Ed25519.public_key keys.signing);
  trust

let cert_tests =
  [
    Alcotest.test_case "wire size is fixed" `Quick (fun () ->
        let cert, _ = make_cert () in
        Alcotest.(check int) "168 bytes" Cert.size
          (String.length (Cert.to_bytes cert)));
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        let cert, _ = make_cert () in
        Alcotest.(check bool) "equal" true
          (match Cert.of_bytes (Cert.to_bytes cert) with
          | Ok c -> Cert.equal c cert
          | Error _ -> false));
    Alcotest.test_case "verifies under issuing key" `Quick (fun () ->
        let cert, _ = make_cert () in
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Trust.verify_cert (trust_with ()) ~now:now0 cert)));
    Alcotest.test_case "expired certificate rejected" `Quick (fun () ->
        let cert, _ = make_cert ~expiry:(now0 - 1) () in
        check_err "expired" (Error.Expired "certificate")
          (Trust.verify_cert (trust_with ()) ~now:now0 cert));
    Alcotest.test_case "wrong AS key rejected" `Quick (fun () ->
        let cert, _ = make_cert () in
        check_err "wrong key" (Error.Bad_signature "certificate")
          (Trust.verify_cert (trust_with ~keys:other_as_keys ()) ~now:now0 cert));
    qtest "any field tamper invalidates" QCheck2.Gen.(int_range 0 (8 * (Cert.size - 64) - 1))
      (fun bit ->
        let cert, _ = make_cert () in
        let b = Bytes.of_string (Cert.to_bytes cert) in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        match Cert.of_bytes (Bytes.unsafe_to_string b) with
        | Error _ -> true
        | Ok tampered ->
            Result.is_error (Trust.verify_cert (trust_with ()) ~now:now0 tampered));
    Alcotest.test_case "trust store resolves issuer" `Quick (fun () ->
        let trust = trust_with () in
        let cert, _ = make_cert () in
        Alcotest.(check bool) "ok" true (Result.is_ok (Trust.verify_cert trust ~now:now0 cert));
        let foreign, _ = make_cert ~keys:other_as_keys () in
        Alcotest.(check bool) "unknown issuer" true
          (Result.is_error (Trust.verify_cert trust ~now:now0 foreign)));
    Alcotest.test_case "memo hit skips the signature check" `Quick (fun () ->
        let trust = trust_with () and cert, _ = make_cert () in
        check_ok "first" (Trust.verify_cert trust ~now:now0 cert);
        check_ok "again" (Trust.verify_cert trust ~now:now0 cert);
        Alcotest.(check int) "one full check" 1 (Trust.signature_checks trust));
    Alcotest.test_case "memo hit still rechecks expiry" `Quick (fun () ->
        let trust = trust_with () and cert, _ = make_cert ~expiry:(now0 + 10) () in
        check_ok "fresh" (Trust.verify_cert trust ~now:now0 cert);
        check_err "expired" (Error.Expired "certificate")
          (Trust.verify_cert trust ~now:(now0 + 11) cert));
    Alcotest.test_case "forged signature fails twice" `Quick (fun () ->
        let trust = trust_with () and cert, _ = make_cert () in
        check_ok "genuine" (Trust.verify_cert trust ~now:now0 cert);
        (* Same signed bytes as the remembered certificate, other signature. *)
        let forged = { cert with signature = String.make 64 '\001' } in
        for _ = 1 to 2 do
          check_err "forged" (Error.Bad_signature "certificate")
            (Trust.verify_cert trust ~now:now0 forged)
        done;
        Alcotest.(check int) "checked each time" 3 (Trust.signature_checks trust));
    Alcotest.test_case "new AS key misses the memo" `Quick (fun () ->
        let trust = trust_with () and cert, _ = make_cert () in
        check_ok "under the issuer" (Trust.verify_cert trust ~now:now0 cert);
        Trust.register_as trust (aid 64500) ~pub:(Ed25519.public_key other_as_keys.signing);
        check_err "under the new key" (Error.Bad_signature "certificate")
          (Trust.verify_cert trust ~now:now0 cert));
    Alcotest.test_case "memo never exceeds its capacity" `Quick (fun () ->
        let trust = trust_with () in
        for _ = 1 to (2 * Trust.memo_capacity) + 3 do
          let cert, _ = make_cert () in
          check_ok "fresh cert" (Trust.verify_cert trust ~now:now0 cert);
          if Trust.memo_size trust > Trust.memo_capacity then
            Alcotest.failf "memo holds %d > %d" (Trust.memo_size trust) Trust.memo_capacity
        done;
        Alcotest.(check int) "full" Trust.memo_capacity (Trust.memo_size trust));
  ]

(* ------------------------------------------------------------------ *)
(* Control messages *)

let msgs_tests =
  let gen_bytes n = QCheck2.Gen.(string_size (int_range 0 n)) in
  [
    qtest "ephid request/reply roundtrip"
      QCheck2.Gen.(pair (string_size (return 16)) (gen_bytes 200))
      (fun (nonce, sealed) ->
        let corr = 42L in
        let req = Msgs.Ephid_request { corr; nonce; sealed } in
        let rep = Msgs.Ephid_reply { corr; nonce; sealed } in
        Msgs.of_bytes (Msgs.to_bytes req) = Ok req
        && Msgs.of_bytes (Msgs.to_bytes rep) = Ok rep);
    qtest "shutoff request roundtrip"
      QCheck2.Gen.(triple (gen_bytes 100) (gen_bytes 64) (gen_bytes 168))
      (fun (packet, signature, cert) ->
        let m = Msgs.Shutoff_request { packet; signature; cert } in
        Msgs.of_bytes (Msgs.to_bytes m) = Ok m);
    qtest "dns messages roundtrip"
      QCheck2.Gen.(triple (gen_bytes 168) (string_size (return 16)) (gen_bytes 100))
      (fun (client_cert, nonce, sealed) ->
        let corr = 7L in
        let q = Msgs.Dns_query { corr; client_cert; nonce; sealed } in
        let r = Msgs.Dns_register { corr; client_cert; nonce; sealed } in
        Msgs.of_bytes (Msgs.to_bytes q) = Ok q
        && Msgs.of_bytes (Msgs.to_bytes r) = Ok r);
    Alcotest.test_case "unknown tag rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Msgs.of_bytes "\x2a")));
    Alcotest.test_case "empty input rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Msgs.of_bytes "")));
    qtest "request body roundtrip" QCheck2.Gen.(int_range 0 2) (fun lt ->
        let lifetime = Result.get_ok (Lifetime.of_int lt) in
        let body =
          Msgs.Request_body.
            { kx_pub = String.make 32 'x'; sig_pub = String.make 32 'y'; lifetime }
        in
        Msgs.Request_body.of_bytes (Msgs.Request_body.to_bytes body) = Ok body);
  ]

(* ------------------------------------------------------------------ *)
(* Replay window *)

let replay_tests =
  [
    Alcotest.test_case "monotone sequence accepted" `Quick (fun () ->
        let w = Replay_window.create () in
        for i = 0 to 1000 do
          Alcotest.(check bool) "fresh" true
            (Replay_window.check_and_update w (Int64.of_int i))
        done);
    Alcotest.test_case "duplicate rejected" `Quick (fun () ->
        let w = Replay_window.create () in
        ignore (Replay_window.check_and_update w 5L);
        Alcotest.(check bool) "dup" false (Replay_window.check_and_update w 5L));
    Alcotest.test_case "reordering within window accepted" `Quick (fun () ->
        let w = Replay_window.create ~size:8 () in
        Alcotest.(check bool) "10" true (Replay_window.check_and_update w 10L);
        Alcotest.(check bool) "7 late" true (Replay_window.check_and_update w 7L);
        Alcotest.(check bool) "7 again" false (Replay_window.check_and_update w 7L));
    Alcotest.test_case "too-old rejected" `Quick (fun () ->
        (* Window of size 8 with highest = 100 covers 93..100. *)
        let w = Replay_window.create ~size:8 () in
        ignore (Replay_window.check_and_update w 100L);
        Alcotest.(check bool) "93 in window" true
          (Replay_window.check_and_update w 93L);
        Alcotest.(check bool) "92 too old" false
          (Replay_window.check_and_update w 92L));
    Alcotest.test_case "negative rejected" `Quick (fun () ->
        let w = Replay_window.create () in
        Alcotest.(check bool) "neg" false (Replay_window.check_and_update w (-1L)));
    qtest "no duplicate ever accepted" ~count:100
      QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 50))
      (fun seqs ->
        let w = Replay_window.create ~size:16 () in
        let accepted = Hashtbl.create 16 in
        List.for_all
          (fun s ->
            let fresh = Replay_window.check_and_update w (Int64.of_int s) in
            if fresh then begin
              let dup = Hashtbl.mem accepted s in
              Hashtbl.replace accepted s ();
              not dup
            end
            else true)
          seqs);
    qtest "window never goes backwards" ~count:100
      QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 1000))
      (fun seqs ->
        let w = Replay_window.create () in
        List.iter (fun s -> ignore (Replay_window.check_and_update w (Int64.of_int s))) seqs;
        let expected = List.fold_left max (-1) seqs in
        Replay_window.highest w = Int64.of_int expected);
  ]

(* ------------------------------------------------------------------ *)
(* Sessions *)

let session_pair () =
  let ek_a = Keys.make_ephid_keys rng and ek_b = Keys.make_ephid_keys rng in
  let cert_of keys =
    let ephid = Ephid.issue_random as_keys rng ~hid:(hid 9) ~expiry:(now0 + 900) in
    let aa = Ephid.issue_random as_keys rng ~hid:(hid 3) ~expiry:(now0 + 900) in
    Cert.issue as_keys ~ephid ~expiry:(now0 + 900)
      ~kx_pub:(keys : Keys.ephid_keys).kx_public
      ~sig_pub:(Ed25519.public_key keys.sig_keypair)
      ~aa_ephid:aa
  in
  let cert_a = cert_of ek_a and cert_b = cert_of ek_b in
  let sa =
    Result.get_ok
      (Session.create ~conn_id:77L ~initiator:true ~local_cert:cert_a
         ~local_keys:ek_a ~remote_cert:cert_b ())
  in
  let sb =
    Result.get_ok
      (Session.create ~conn_id:77L ~initiator:false ~local_cert:cert_b
         ~local_keys:ek_b ~remote_cert:cert_a ())
  in
  (sa, sb)

let session_tests =
  [
    Alcotest.test_case "both sides derive the same key" `Quick (fun () ->
        let sa, sb = session_pair () in
        let seq, sealed = Session.seal sa "payload" in
        Alcotest.(check string) "opens" "payload"
          (Result.get_ok (Session.open_sealed sb ~seq ~sealed)));
    Alcotest.test_case "directions do not collide" `Quick (fun () ->
        let sa, sb = session_pair () in
        (* Same seq in both directions: distinct nonces, both open. *)
        let seq_a, sealed_a = Session.seal sa "from a" in
        let seq_b, sealed_b = Session.seal sb "from b" in
        Alcotest.(check string) "a->b" "from a"
          (Result.get_ok (Session.open_sealed sb ~seq:seq_a ~sealed:sealed_a));
        Alcotest.(check string) "b->a" "from b"
          (Result.get_ok (Session.open_sealed sa ~seq:seq_b ~sealed:sealed_b));
        Alcotest.(check bool) "ciphertexts differ" true (sealed_a <> sealed_b));
    Alcotest.test_case "replayed frame rejected" `Quick (fun () ->
        let sa, sb = session_pair () in
        let seq, sealed = Session.seal sa "once" in
        ignore (Session.open_sealed sb ~seq ~sealed);
        check_err "replay" (Error.Rejected "replayed or stale sequence number")
          (Session.open_sealed sb ~seq ~sealed));
    Alcotest.test_case "reflected frame with the direction bit set" `Quick
      (fun () ->
        (* The nonce is direction bit 56 OR seq. A's own frame sent back
           to A with bit 56 set in its seq field would open under A's
           receive nonce, and its window would then jump to 2^56. *)
        let sa, sb = session_pair () in
        let seq, sealed = Session.seal sa "mine" in
        let reflected = Int64.logor seq (Int64.shift_left 1L 56) in
        Alcotest.(check bool) "reflection refused" true
          (Result.is_error (Session.open_sealed sa ~seq:reflected ~sealed));
        Alcotest.(check bool) "negative seq refused" true
          (Result.is_error (Session.open_sealed sb ~seq:(-1L) ~sealed));
        let seq_b, sealed_b = Session.seal sb "peer" in
        Alcotest.(check string) "peer frame still opens" "peer"
          (Result.get_ok (Session.open_sealed sa ~seq:seq_b ~sealed:sealed_b)));
    Alcotest.test_case "tampered frame rejected before replay state" `Quick
      (fun () ->
        let sa, sb = session_pair () in
        let seq, sealed = Session.seal sa "x" in
        let b = Bytes.of_string sealed in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Alcotest.(check bool) "rejected" true
          (Result.is_error
             (Session.open_sealed sb ~seq ~sealed:(Bytes.unsafe_to_string b)));
        (* The genuine frame must still be accepted: authentication runs
           before the window is updated. *)
        Alcotest.(check string) "genuine ok" "x"
          (Result.get_ok (Session.open_sealed sb ~seq ~sealed)));
    Alcotest.test_case "sessions with distinct conn ids are isolated" `Quick
      (fun () ->
        let sa, _ = session_pair () in
        let _, sb' = session_pair () in
        let seq, sealed = Session.seal sa "leak?" in
        Alcotest.(check bool) "cannot open" true
          (Result.is_error (Session.open_sealed sb' ~seq ~sealed)));
    qtest "frame codec roundtrip"
      QCheck2.Gen.(
        let* kind = int_range 0 5 in
        let* conn_id = int_range 0 max_int in
        let* seq = int_range 0 max_int in
        let* sealed = string_size (int_range 0 100) in
        return (kind, Int64.of_int conn_id, Int64.of_int seq, sealed))
      (fun (kind, conn_id, seq, sealed) ->
        let cert, _ = make_cert () in
        let f =
          match kind with
          | 0 -> Session.Frame.Init { conn_id; cert; seq; sealed }
          | 1 -> Session.Frame.Accept { conn_id; cert; seq; sealed }
          | 2 -> Session.Frame.Data { conn_id; seq; sealed }
          | 3 -> Session.Frame.Fin { conn_id; seq; sealed }
          | 4 -> Session.Frame.Rekey { conn_id; cert; seq; sealed }
          | _ -> Session.Frame.Rekey_ack { conn_id; seq; sealed }
        in
        let bytes = Session.Frame.to_bytes f in
        Session.Frame.has_cert bytes = List.mem kind [ 0; 1; 4 ]
        &&
        match Session.Frame.of_bytes bytes with
        | Ok f' -> f' = f
        | Error _ -> false);
    qtest "frame decoder is total on arbitrary bytes" ~count:200
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun bytes ->
        (* Never raises: arbitrary input decodes or errors cleanly. *)
        match Session.Frame.of_bytes bytes with Ok _ | Error _ -> true);
    qtest "icmp decoder is total on arbitrary bytes" ~count:200
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun bytes -> match Icmp.of_bytes bytes with Ok _ | Error _ -> true);
    Alcotest.test_case "rekey switches certificate and resets state" `Quick
      (fun () ->
        let sa, sb = session_pair () in
        ignore (Session.seal sa "advance");
        (* Server picks a serving certificate: new keys. *)
        let ek_s = Keys.make_ephid_keys rng in
        let serving =
          let ephid = Ephid.issue_random as_keys rng ~hid:(hid 9) ~expiry:(now0 + 900) in
          let aa = Ephid.issue_random as_keys rng ~hid:(hid 3) ~expiry:(now0 + 900) in
          Cert.issue as_keys ~ephid ~expiry:(now0 + 900) ~kx_pub:ek_s.kx_public
            ~sig_pub:(Ed25519.public_key ek_s.sig_keypair) ~aa_ephid:aa
        in
        Alcotest.(check bool) "rekey ok" true
          (Result.is_ok (Session.rekey sa ~remote_cert:serving));
        Alcotest.(check bool) "established" true (Session.established sa);
        Alcotest.(check bool) "remote updated" true
          (Cert.equal (Session.remote_cert sa) serving);
        ignore sb);
    Alcotest.test_case "per-connection keys: same EphIDs, other conn id" `Quick
      (fun () ->
        let (cert_a, ek_a), (cert_b, ek_b) = (make_cert (), make_cert ()) in
        let session conn_id ~initiator (local_cert, local_keys) remote_cert =
          Result.get_ok
            (Session.create ~conn_id ~initiator ~local_cert ~local_keys ~remote_cert ())
        in
        let sa = session 77L ~initiator:true (cert_a, ek_a) cert_b in
        let sb = session 77L ~initiator:false (cert_b, ek_b) cert_a in
        let sb' = session 78L ~initiator:false (cert_b, ek_b) cert_a in
        let seq, sealed = Session.seal sa "conn 77" in
        Alcotest.(check bool) "conn 78 cannot open" true
          (Result.is_error (Session.open_sealed sb' ~seq ~sealed));
        Alcotest.(check string) "conn 77 opens" "conn 77"
          (Result.get_ok (Session.open_sealed sb ~seq ~sealed)));
    Alcotest.test_case "rekey changes the key the sequence restarts under"
      `Quick (fun () ->
        let (cert_a, ek_a), (cert_b, ek_b) = (make_cert (), make_cert ()) in
        let session ~initiator (local_cert, local_keys) remote_cert =
          Result.get_ok
            (Session.create ~conn_id:5L ~initiator ~local_cert ~local_keys ~remote_cert ())
        in
        let sa = session ~initiator:true (cert_a, ek_a) cert_b in
        let before = List.init 3 (fun i -> (i, Session.seal sa "before")) in
        let cert_a', ek_a' = make_cert () in
        Alcotest.(check bool) "rekey_local ok" true
          (Result.is_ok (Session.rekey_local sa ~local_cert:cert_a' ~local_keys:ek_a'));
        let after = List.init 3 (fun i -> (i, Session.seal sa "after")) in
        (* Sequence numbers restart, so the nonces repeat; the keys must
           not: a frame opens only at a peer holding its own key. *)
        let old_peer () = session ~initiator:false (cert_b, ek_b) cert_a in
        let new_peer () = session ~initiator:false (cert_b, ek_b) cert_a' in
        List.iter2
          (fun (i, (s0, f0)) (_, (s1, f1)) ->
            Alcotest.(check int64) (Printf.sprintf "seq %d repeats" i) s0 s1;
            Alcotest.(check bool) "old key opens old frame" true
              (Result.is_ok (Session.open_sealed (old_peer ()) ~seq:s0 ~sealed:f0));
            Alcotest.(check bool) "old key rejects new frame" true
              (Result.is_error (Session.open_sealed (old_peer ()) ~seq:s1 ~sealed:f1));
            Alcotest.(check bool) "new key rejects old frame" true
              (Result.is_error (Session.open_sealed (new_peer ()) ~seq:s0 ~sealed:f0)))
          before after;
        (* A rekey onto an EphID the session already uses would keep the
           key and restart the sequence: refused on both sides. *)
        Alcotest.(check bool) "same local EphID refused" true
          (Result.is_error (Session.rekey_local sa ~local_cert:cert_a' ~local_keys:ek_a'));
        Alcotest.(check bool) "same remote EphID refused" true
          (Result.is_error (Session.rekey sa ~remote_cert:cert_b)));
  ]

(* ------------------------------------------------------------------ *)
(* Registry (RS) *)

let registry_fixture () =
  let host_info = Host_info.create () in
  let rs = Registry.create ~keys:as_keys ~host_info ~rng () in
  let ms_cert, _ = make_cert () in
  let aa = Ephid.issue_random as_keys rng ~hid:(hid 3) ~expiry:(now0 + 900) in
  Registry.set_service_certs rs ~ms_cert ~dns_cert:None ~aa_ephid:aa;
  (rs, host_info)

let registry_tests =
  [
    Alcotest.test_case "unenrolled credential fails" `Quick (fun () ->
        let rs, _ = registry_fixture () in
        let _, pub = X25519.generate rng in
        check_err "auth" Error.Auth_failed
          (Registry.bootstrap rs ~now:now0 ~credential:"nobody" ~host_dh_pub:pub));
    Alcotest.test_case "bootstrap registers host_info and signs id_info" `Quick
      (fun () ->
        let rs, host_info = registry_fixture () in
        Registry.enroll rs ~credential:"alice";
        let secret, pub = X25519.generate rng in
        match Registry.bootstrap rs ~now:now0 ~credential:"alice" ~host_dh_pub:pub with
        | Error e -> Alcotest.fail (Error.to_string e)
        | Ok (reply, hid) ->
            Alcotest.(check bool) "registered" true (Host_info.mem_valid host_info hid);
            (* The host derives the same kHA from its side of the DH. *)
            let shared = Result.get_ok (X25519.shared_secret ~secret ~peer:reply.as_dh_pub) in
            let host_kha = Keys.derive_host_as ~shared_secret:shared in
            let entry = Result.get_ok (Host_info.find host_info hid) in
            Alcotest.(check string) "same auth key" entry.kha.auth host_kha.auth;
            (* id_info signature verifies under the AS key. *)
            Alcotest.(check bool) "id_info" true
              (Ed25519.verify
                 ~pub:(Ed25519.public_key as_keys.signing)
                 ~msg:(Registry.id_info_bytes ~ctrl_ephid:reply.ctrl_ephid
                         ~ctrl_expiry:reply.ctrl_expiry)
                 ~signature:reply.id_info_signature);
            (* The control EphID decodes to the assigned HID. *)
            let info = Result.get_ok (Ephid.parse as_keys reply.ctrl_ephid) in
            Alcotest.(check bool) "ctrl hid" true (Apna_net.Addr.hid_equal info.hid hid));
    Alcotest.test_case "re-bootstrap revokes the old identity" `Quick (fun () ->
        let rs, host_info = registry_fixture () in
        Registry.enroll rs ~credential:"alice";
        let _, pub = X25519.generate rng in
        let _, hid1 =
          Result.get_ok (Registry.bootstrap rs ~now:now0 ~credential:"alice" ~host_dh_pub:pub)
        in
        let _, hid2 =
          Result.get_ok (Registry.bootstrap rs ~now:now0 ~credential:"alice" ~host_dh_pub:pub)
        in
        Alcotest.(check bool) "new hid" false (Apna_net.Addr.hid_equal hid1 hid2);
        Alcotest.(check bool) "old revoked" false (Host_info.mem_valid host_info hid1);
        Alcotest.(check bool) "new valid" true (Host_info.mem_valid host_info hid2));
    Alcotest.test_case "distinct subscribers get distinct hids" `Quick (fun () ->
        let rs, _ = registry_fixture () in
        Registry.enroll rs ~credential:"a";
        Registry.enroll rs ~credential:"b";
        let _, pub = X25519.generate rng in
        let _, h1 = Result.get_ok (Registry.bootstrap rs ~now:now0 ~credential:"a" ~host_dh_pub:pub) in
        let _, h2 = Result.get_ok (Registry.bootstrap rs ~now:now0 ~credential:"b" ~host_dh_pub:pub) in
        Alcotest.(check bool) "distinct" false (Apna_net.Addr.hid_equal h1 h2);
        Alcotest.(check int) "customers" 2 (Registry.customer_count rs));
  ]

(* ------------------------------------------------------------------ *)
(* Management (MS) *)

let ms_fixture () =
  let host_info = Host_info.create () in
  let h = hid 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info h kha;
  let aa = Ephid.issue_random as_keys rng ~hid:(hid 3) ~expiry:(now0 + 86_400) in
  let ms = Management.create ~keys:as_keys ~host_info ~rng ~aa_ephid:aa () in
  let ctrl = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 86_400) in
  (ms, host_info, h, kha, ctrl)

let management_tests =
  [
    Alcotest.test_case "issues a verifiable certificate" `Quick (fun () ->
        let ms, _, _, kha, ctrl = ms_fixture () in
        let keys = Keys.make_ephid_keys rng in
        let req = Management.Client.make_request ~rng ~corr:1L ~kha ~keys ~lifetime:Lifetime.Short in
        match Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes ctrl) req with
        | Error e -> Alcotest.fail (Error.to_string e)
        | Ok reply ->
            let cert = Result.get_ok (Management.Client.read_reply ~kha reply) in
            Alcotest.(check bool) "signed" true
              (Result.is_ok (Trust.verify_cert (trust_with ()) ~now:now0 cert));
            Alcotest.(check string) "host's kx key" keys.kx_public cert.kx_pub;
            Alcotest.(check int) "short lifetime" (now0 + 60) cert.expiry;
            Alcotest.(check int) "issued count" 1 (Management.issued_count ms));
    Alcotest.test_case "expired control EphID rejected" `Quick (fun () ->
        let ms, _, h, kha, _ = ms_fixture () in
        let stale = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 - 1) in
        let keys = Keys.make_ephid_keys rng in
        let req = Management.Client.make_request ~rng ~corr:1L ~kha ~keys ~lifetime:Lifetime.Medium in
        check_err "expired" (Error.Expired "control EphID")
          (Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes stale) req));
    Alcotest.test_case "revoked HID rejected" `Quick (fun () ->
        let ms, host_info, h, kha, ctrl = ms_fixture () in
        Host_info.revoke_hid host_info h;
        let keys = Keys.make_ephid_keys rng in
        let req = Management.Client.make_request ~rng ~corr:1L ~kha ~keys ~lifetime:Lifetime.Medium in
        check_err "revoked" (Error.Revoked "HID")
          (Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes ctrl) req));
    Alcotest.test_case "request sealed under wrong key rejected" `Quick (fun () ->
        let ms, _, _, _, ctrl = ms_fixture () in
        let wrong_kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        let keys = Keys.make_ephid_keys rng in
        let req =
          Management.Client.make_request ~rng ~corr:1L ~kha:wrong_kha ~keys
            ~lifetime:Lifetime.Medium
        in
        Alcotest.(check bool) "crypto error" true
          (match Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes ctrl) req with
          | Error (Error.Crypto _) -> true
          | _ -> false));
    Alcotest.test_case "forged source EphID rejected" `Quick (fun () ->
        let ms, _, _, kha, _ = ms_fixture () in
        let keys = Keys.make_ephid_keys rng in
        let req = Management.Client.make_request ~rng ~corr:1L ~kha ~keys ~lifetime:Lifetime.Medium in
        Alcotest.(check bool) "malformed" true
          (match Management.handle_request ms ~now:now0 ~src_ephid:(String.make 16 'z') req with
          | Error (Error.Malformed _) -> true
          | _ -> false));
    Alcotest.test_case "lifetime classes map to policy" `Quick (fun () ->
        let ms, _, h, _, _ = ms_fixture () in
        let keys = Keys.make_ephid_keys rng in
        List.iter
          (fun (lt, expected) ->
            let cert =
              Result.get_ok
                (Management.issue_direct ms ~now:now0 ~hid:h ~kx_pub:keys.kx_public
                   ~sig_pub:(Ed25519.public_key keys.sig_keypair) ~lifetime:lt)
            in
            Alcotest.(check int) "expiry" (now0 + expected) cert.expiry)
          [ (Lifetime.Short, 60); (Lifetime.Medium, 900); (Lifetime.Long, 86_400) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Border router pipelines (Fig. 4) *)

let br_fixture () =
  let topology = Apna_net.Topology.create () in
  Apna_net.Topology.connect topology (aid 64500) (aid 64501) (Apna_net.Link.make ());
  Apna_net.Topology.connect topology (aid 64501) (aid 64502) (Apna_net.Link.make ());
  let host_info = Host_info.create () in
  let h = hid 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info h kha;
  let revoked = Revocation.create () in
  let br = Border_router.create ~keys:as_keys ~host_info ~revoked ~topology () in
  (br, host_info, revoked, h, kha)

let packet_for ?(src_aid = aid 64500) ?(dst_aid = aid 64501) ~src_ephid
    ?(dst_ephid = String.make 16 'd') ?kha () =
  let header =
    Apna_net.Apna_header.make ~src_aid ~src_ephid:(Ephid.to_bytes src_ephid)
      ~dst_aid ~dst_ephid ()
  in
  let pkt = Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"data" in
  match kha with
  | Some (k : Keys.host_as) -> Pkt_auth.seal ~auth_key:k.auth pkt
  | None -> pkt

let border_router_tests =
  [
    Alcotest.test_case "valid egress accepted" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        match Border_router.egress_check br ~now:now0 pkt with
        | Ok sender -> Alcotest.(check bool) "attributed" true (Apna_net.Addr.hid_equal sender h)
        | Error err -> Alcotest.fail (Error.to_string err));
    Alcotest.test_case "missing MAC dropped" `Quick (fun () ->
        let br, _, _, h, _ = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        check_err "no mac" Error.Bad_mac
          (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ())));
    Alcotest.test_case "expired EphID dropped" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 - 1) in
        check_err "expired" (Error.Expired "EphID")
          (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ~kha ())));
    Alcotest.test_case "revoked EphID dropped" `Quick (fun () ->
        let br, _, revoked, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        Revocation.revoke revoked e ~expiry:(now0 + 900);
        check_err "revoked" (Error.Revoked "EphID")
          (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ~kha ())));
    Alcotest.test_case "revoked HID dropped" `Quick (fun () ->
        let br, host_info, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        Host_info.revoke_hid host_info h;
        check_err "hid" (Error.Revoked "HID")
          (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ~kha ())));
    Alcotest.test_case "foreign source AID dropped at egress" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        Alcotest.(check bool) "malformed" true
          (match
             Border_router.egress_check br ~now:now0
               (packet_for ~src_aid:(aid 64502) ~src_ephid:e ~kha ())
           with
          | Error (Error.Malformed _) -> true
          | _ -> false));
    Alcotest.test_case "ingress delivers to local host" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt =
          packet_for ~src_aid:(aid 64502) ~dst_aid:(aid 64500)
            ~src_ephid:(Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900))
            ~dst_ephid:(Ephid.to_bytes e) ~kha ()
        in
        match Border_router.ingress_check br ~now:now0 pkt with
        | Ok (Border_router.Deliver d) ->
            Alcotest.(check bool) "hid" true (Apna_net.Addr.hid_equal d h)
        | Ok (Border_router.Forward _) -> Alcotest.fail "unexpected forward"
        | Error err -> Alcotest.fail (Error.to_string err));
    Alcotest.test_case "transit forwards toward destination" `Quick (fun () ->
        (* A router at the transit AS 64501. *)
        let topology = Apna_net.Topology.create () in
        Apna_net.Topology.connect topology (aid 64500) (aid 64501) (Apna_net.Link.make ());
        Apna_net.Topology.connect topology (aid 64501) (aid 64502) (Apna_net.Link.make ());
        let transit_keys = Keys.make_as rng ~aid:(aid 64501) in
        let br =
          Border_router.create ~keys:transit_keys ~host_info:(Host_info.create ())
            ~revoked:(Revocation.create ()) ~topology ()
        in
        let e = Ephid.issue_random as_keys rng ~hid:(hid 1) ~expiry:(now0 + 900) in
        let pkt = packet_for ~dst_aid:(aid 64502) ~src_ephid:e () in
        match Border_router.ingress_check br ~now:now0 pkt with
        | Ok (Border_router.Forward next) ->
            Alcotest.(check int) "next" 64502 (Apna_net.Addr.aid_to_int next)
        | Ok (Border_router.Deliver _) -> Alcotest.fail "unexpected deliver"
        | Error err -> Alcotest.fail (Error.to_string err));
    Alcotest.test_case "counters track outcomes" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        ignore (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ~kha ()));
        ignore (Border_router.egress_check br ~now:now0 (packet_for ~src_ephid:e ()));
        let c = Border_router.counters br in
        Alcotest.(check int) "ok" 1 c.egress_ok;
        Alcotest.(check int) "dropped" 1 c.dropped);
  ]

(* ------------------------------------------------------------------ *)
(* Validated-EphID fast-path cache: a hit must never outlive expiry,
   revocation, HID revocation, or a host re-key. *)

let ephid_cache_tests =
  [
    Alcotest.test_case "repeat packets of a flow hit the cache" `Quick
      (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "first ok" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        Alcotest.(check bool) "second ok" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        let s = Border_router.ephid_cache_stats br in
        Alcotest.(check int) "one miss" 1 s.misses;
        Alcotest.(check int) "one hit" 1 s.hits;
        Alcotest.(check int) "cached" 1 (Border_router.ephid_cache_size br));
    Alcotest.test_case "a stats snapshot does not move" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        let before = Border_router.ephid_cache_stats br
        and counters = Border_router.counters br in
        for _ = 1 to 3 do
          ignore (Border_router.egress_check br ~now:now0 pkt)
        done;
        Alcotest.(check (list int)) "baseline unchanged" [ 0; 0; 0; 0 ]
          [ before.hits; before.misses; before.invalidations; counters.egress_ok ];
        let after = Border_router.ephid_cache_stats br in
        Alcotest.(check (list int)) "traffic counted" [ 2; 1 ]
          [ after.hits - before.hits; after.misses - before.misses ]);
    Alcotest.test_case "cached EphID is rejected after expiry" `Quick (fun () ->
        let br, _, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 10) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "valid while fresh" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        check_err "expired on hit" (Error.Expired "EphID")
          (Border_router.egress_check br ~now:(now0 + 11) pkt);
        let s = Border_router.ephid_cache_stats br in
        Alcotest.(check int) "invalidated" 1 s.invalidations;
        Alcotest.(check int) "entry dropped" 0 (Border_router.ephid_cache_size br));
    Alcotest.test_case "cached EphID is rejected after Revocation.revoke"
      `Quick (fun () ->
        let br, _, revoked, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "cached as valid" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        Revocation.revoke revoked e ~expiry:(now0 + 900);
        check_err "revoked despite cache" (Error.Revoked "EphID")
          (Border_router.egress_check br ~now:now0 pkt);
        Alcotest.(check int) "generation invalidation" 1
          (Border_router.ephid_cache_stats br).invalidations);
    Alcotest.test_case "cached EphID is rejected after Host_info.revoke_hid"
      `Quick (fun () ->
        let br, host_info, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "cached as valid" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        Host_info.revoke_hid host_info h;
        check_err "HID revoked despite cache" (Error.Revoked "HID")
          (Border_router.egress_check br ~now:now0 pkt));
    Alcotest.test_case "re-registering a HID drops the cached auth key" `Quick
      (fun () ->
        let br, host_info, _, h, kha = br_fixture () in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "cached as valid" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        (* The host re-bootstraps: new kHA. Packets sealed under the old
           auth key must fail the MAC even though the EphID is cached. *)
        Host_info.register host_info h
          (Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32));
        check_err "old MAC rejected" Error.Bad_mac
          (Border_router.egress_check br ~now:now0 pkt));
    Alcotest.test_case "revocation-list GC of another entry keeps validity"
      `Quick (fun () ->
        (* gc bumps the generation only when it removes entries; either way
           a still-valid cached EphID must revalidate successfully. *)
        let br, _, revoked, h, kha = br_fixture () in
        let victim = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 5) in
        Revocation.revoke revoked victim ~expiry:(now0 + 5);
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "cached as valid" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        Alcotest.(check int) "gc removed the victim" 1
          (Revocation.gc revoked ~now:(now0 + 6));
        Alcotest.(check bool) "still valid after gc" true
          (Result.is_ok (Border_router.egress_check br ~now:(now0 + 6) pkt)));
    Alcotest.test_case "disabled cache still enforces the pipeline" `Quick
      (fun () ->
        let topology = Apna_net.Topology.create () in
        Apna_net.Topology.connect topology (aid 64500) (aid 64501)
          (Apna_net.Link.make ());
        let host_info = Host_info.create () in
        let h = hid 0x0a000001 in
        let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        Host_info.register host_info h kha;
        let revoked = Revocation.create () in
        let br =
          Border_router.create ~keys:as_keys ~host_info ~revoked ~topology
            ~ephid_cache:0 ()
        in
        let e = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        let pkt = packet_for ~src_ephid:e ~kha () in
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        Alcotest.(check bool) "ok again" true
          (Result.is_ok (Border_router.egress_check br ~now:now0 pkt));
        let s = Border_router.ephid_cache_stats br in
        Alcotest.(check int) "no hits" 0 s.hits;
        Alcotest.(check int) "no misses" 0 s.misses;
        Alcotest.(check int) "nothing cached" 0 (Border_router.ephid_cache_size br);
        Revocation.revoke revoked e ~expiry:(now0 + 900);
        check_err "revoked" (Error.Revoked "EphID")
          (Border_router.egress_check br ~now:now0 pkt));
  ]

(* ------------------------------------------------------------------ *)
(* Accountability (AA) quota escalation and revoke command *)

(* A shutoff through the AA's one path, as As_node's drain timer runs it:
   admission ([enqueue]), then a drain pass. An admission refusal comes
   back typed; a refusal in verification is counted in
   [refusal_reasons]. *)
let shutoff agent ~now req =
  let at = float_of_int now in
  match Accountability.enqueue agent ~now ~at req with
  | Accountability.Refused e -> Error e
  | Shed -> Alcotest.fail "shutoff shed"
  | Queued -> (
      match Accountability.drain agent ~now ~at with
      | [ grant ] -> Ok grant
      | _ ->
          Alcotest.failf "refused in verification: %s"
            (String.concat ", " (List.map fst (Accountability.refusal_reasons agent))))

let accountability_tests =
  [
    Alcotest.test_case "revoke command MAC verifies" `Quick (fun () ->
        let e = Ephid.issue_random as_keys rng ~hid:(hid 1) ~expiry:(now0 + 60) in
        let cmd =
          Accountability.Command.make_batch ~keys:as_keys ~entries:[ (e, now0 + 60) ]
        in
        Alcotest.(check bool) "ok" true (Accountability.Command.verify_batch ~keys:as_keys cmd);
        Alcotest.(check bool) "foreign rejected" false
          (Accountability.Command.verify_batch ~keys:other_as_keys cmd));
    Alcotest.test_case "quota escalation revokes the HID" `Quick (fun () ->
        (* Build a full fixture where the victim holds valid material. *)
        let host_info = Host_info.create () in
        let h = hid 0x0a000001 in
        let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        Host_info.register host_info h kha;
        let revoked = Revocation.create () in
        let trust = Trust.create () in
        Trust.register_as trust (aid 64500) ~pub:(Ed25519.public_key as_keys.signing);
        Trust.register_as trust (aid 64501) ~pub:(Ed25519.public_key other_as_keys.signing);
        let agent =
          Accountability.create ~keys:as_keys ~host_info ~revoked ~trust
            ~max_revocations_per_host:3 ()
        in
        (* The victim (in the other AS) with its own EphID cert. *)
        let victim_keys = Keys.make_ephid_keys rng in
        let victim_ephid = Ephid.issue_random other_as_keys rng ~hid:(hid 7) ~expiry:(now0 + 900) in
        let victim_aa = Ephid.issue_random other_as_keys rng ~hid:(hid 3) ~expiry:(now0 + 900) in
        let victim_cert =
          Cert.issue other_as_keys ~ephid:victim_ephid ~expiry:(now0 + 900)
            ~kx_pub:victim_keys.kx_public
            ~sig_pub:(Ed25519.public_key victim_keys.sig_keypair)
            ~aa_ephid:victim_aa
        in
        for i = 1 to 3 do
          let attacker_ephid = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
          let pkt =
            packet_for ~dst_aid:(aid 64501) ~src_ephid:attacker_ephid
              ~dst_ephid:(Ephid.to_bytes victim_ephid) ~kha ()
          in
          let req = Shutoff.make_request ~packet:pkt ~dst_cert:victim_cert ~dst_keys:victim_keys in
          (match shutoff agent ~now:now0 req with
          | Ok (revoked_hid, _) ->
              Alcotest.(check bool) "names the host" true
                (Apna_net.Addr.hid_equal revoked_hid h)
          | Error e -> Alcotest.failf "shutoff %d: %s" i (Error.to_string e));
          Alcotest.(check int) "revocations" i (Accountability.revocations_of agent h)
        done;
        Alcotest.(check int) "list size" 3 (Revocation.size revoked);
        Alcotest.(check bool) "HID revoked after quota" false
          (Host_info.mem_valid host_info h));
    Alcotest.test_case "evidence with bad MAC refused" `Quick (fun () ->
        let host_info = Host_info.create () in
        let h = hid 0x0a000001 in
        let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        Host_info.register host_info h kha;
        let revoked = Revocation.create () in
        let trust = Trust.create () in
        Trust.register_as trust (aid 64501) ~pub:(Ed25519.public_key other_as_keys.signing);
        let agent = Accountability.create ~keys:as_keys ~host_info ~revoked ~trust () in
        let victim_keys = Keys.make_ephid_keys rng in
        let victim_ephid = Ephid.issue_random other_as_keys rng ~hid:(hid 7) ~expiry:(now0 + 900) in
        let victim_cert =
          Cert.issue other_as_keys ~ephid:victim_ephid ~expiry:(now0 + 900)
            ~kx_pub:victim_keys.kx_public
            ~sig_pub:(Ed25519.public_key victim_keys.sig_keypair)
            ~aa_ephid:victim_ephid
        in
        let attacker_ephid = Ephid.issue_random as_keys rng ~hid:h ~expiry:(now0 + 900) in
        (* A rogue packet the source never sent: no valid host MAC. *)
        let pkt =
          packet_for ~dst_aid:(aid 64501) ~src_ephid:attacker_ephid
            ~dst_ephid:(Ephid.to_bytes victim_ephid) ()
        in
        let req = Shutoff.make_request ~packet:pkt ~dst_cert:victim_cert ~dst_keys:victim_keys in
        Alcotest.(check bool) "queued" true
          (Accountability.enqueue agent ~now:now0 ~at:0.0 req = Accountability.Queued);
        Alcotest.(check int) "no grant" 0
          (List.length (Accountability.drain agent ~now:now0 ~at:0.0));
        Alcotest.(check (list (pair string int))) "bad mac"
          [ (Error.kind_label Error.Bad_mac, 1) ]
          (Accountability.refusal_reasons agent);
        Alcotest.(check int) "nothing revoked" 0 (Revocation.size revoked));
  ]

(* ------------------------------------------------------------------ *)
(* Revocation list *)

let revocation_tests =
  [
    Alcotest.test_case "gc drops only expired entries" `Quick (fun () ->
        let r = Revocation.create () in
        let e1 = Ephid.issue_random as_keys rng ~hid:(hid 1) ~expiry:(now0 + 10) in
        let e2 = Ephid.issue_random as_keys rng ~hid:(hid 2) ~expiry:(now0 + 1000) in
        Revocation.revoke r e1 ~expiry:(now0 + 10);
        Revocation.revoke r e2 ~expiry:(now0 + 1000);
        Alcotest.(check int) "removed" 1 (Revocation.gc r ~now:(now0 + 11));
        Alcotest.(check bool) "e1 gone" false (Revocation.is_revoked r e1);
        Alcotest.(check bool) "e2 stays" true (Revocation.is_revoked r e2);
        Alcotest.(check int) "size" 1 (Revocation.size r));
    Alcotest.test_case "idempotent revoke" `Quick (fun () ->
        let r = Revocation.create () in
        let e = Ephid.issue_random as_keys rng ~hid:(hid 1) ~expiry:(now0 + 10) in
        Revocation.revoke r e ~expiry:(now0 + 10);
        Revocation.revoke r e ~expiry:(now0 + 10);
        Alcotest.(check int) "one entry" 1 (Revocation.size r));
  ]

(* ------------------------------------------------------------------ *)
(* DNS service *)

let dns_fixture () =
  let trust = Trust.create () in
  Trust.register_as trust (aid 64500) ~pub:(Ed25519.public_key as_keys.signing);
  let zone_key = Ed25519.generate rng in
  Trust.register_zone trust "example.net" ~pub:(Ed25519.public_key zone_key);
  let dns_cert, dns_keys = make_cert () in
  let dns =
    Dns_service.create ~rng:(Drbg.split rng "dns") ~trust ~zone:"example.net"
      ~zone_key ~cert:dns_cert ~keys:dns_keys ()
  in
  (dns, trust, zone_key)

let dns_tests =
  [
    Alcotest.test_case "register then query end to end" `Quick (fun () ->
        let dns, trust, _ = dns_fixture () in
        let service_cert, _ = make_cert () in
        Alcotest.(check bool) "registered" true
          (Result.is_ok
             (Dns_service.register dns ~now:now0 ~name:"svc.example.net"
                ~cert:service_cert ~receive_only:true ()));
        (* Client side. *)
        let client_cert, client_keys = make_cert () in
        let query =
          Result.get_ok
            (Dns_service.Client.make_query ~rng ~corr:1L ~client_cert ~client_keys
               ~dns_cert:(Dns_service.cert dns) ~name:"svc.example.net")
        in
        let reply = Result.get_ok (Dns_service.handle dns ~now:now0 query) in
        let record =
          Result.get_ok
            (Dns_service.Client.read_reply ~client_keys ~client_cert
               ~dns_cert:(Dns_service.cert dns) reply)
        in
        match record with
        | Some r ->
            Alcotest.(check string) "name" "svc.example.net" r.name;
            Alcotest.(check bool) "receive-only" true r.receive_only;
            Alcotest.(check bool) "zone sig" true
              (Result.is_ok (Dns_service.Record.verify trust ~now:now0 r))
        | None -> Alcotest.fail "NXDOMAIN");
    Alcotest.test_case "unknown name yields NXDOMAIN" `Quick (fun () ->
        let dns, _, _ = dns_fixture () in
        let client_cert, client_keys = make_cert () in
        let query =
          Result.get_ok
            (Dns_service.Client.make_query ~rng ~corr:1L ~client_cert ~client_keys
               ~dns_cert:(Dns_service.cert dns) ~name:"nope.example.net")
        in
        let reply = Result.get_ok (Dns_service.handle dns ~now:now0 query) in
        Alcotest.(check bool) "none" true
          (Result.get_ok
             (Dns_service.Client.read_reply ~client_keys ~client_cert
                ~dns_cert:(Dns_service.cert dns) reply)
          = None));
    Alcotest.test_case "record with forged zone signature rejected" `Quick
      (fun () ->
        let dns, _, _ = dns_fixture () in
        let service_cert, _ = make_cert () in
        ignore
          (Dns_service.register dns ~now:now0 ~name:"svc" ~cert:service_cert
             ~receive_only:false ());
        let record = Option.get (Dns_service.lookup dns "svc") in
        (* A trust store that holds another key for the zone. *)
        let rogue = Trust.create () in
        Trust.register_zone rogue "example.net"
          ~pub:(Ed25519.public_key (Ed25519.generate rng));
        Alcotest.(check bool) "forged" true
          (Result.is_error (Dns_service.Record.verify rogue ~now:now0 record)));
    Alcotest.test_case "registration with expired cert refused" `Quick (fun () ->
        let dns, _, _ = dns_fixture () in
        let stale_cert, _ = make_cert ~expiry:(now0 - 1) () in
        Alcotest.(check bool) "refused" true
          (Result.is_error
             (Dns_service.register dns ~now:now0 ~name:"stale" ~cert:stale_cert
                ~receive_only:false ())));
    Alcotest.test_case "query from unverifiable client refused" `Quick (fun () ->
        let dns, _, _ = dns_fixture () in
        (* A certificate from an AS the trust store does not know. *)
        let rogue_keys = Keys.make_as rng ~aid:(aid 65000) in
        let client_cert, client_keys = make_cert ~keys:rogue_keys () in
        let query =
          Result.get_ok
            (Dns_service.Client.make_query ~rng ~corr:1L ~client_cert ~client_keys
               ~dns_cert:(Dns_service.cert dns) ~name:"svc")
        in
        Alcotest.(check bool) "refused" true
          (Result.is_error (Dns_service.handle dns ~now:now0 query)));
    qtest "record codec roundtrip" QCheck2.Gen.(pair (string_size (int_range 0 40)) bool)
      (fun (name, receive_only) ->
        let cert, _ = make_cert () in
        let record =
          Dns_service.Record.
            { name; cert; ipv4 = Some (hid 0x01020304); receive_only;
              zone = "z"; signature = String.make 64 's' }
        in
        Dns_service.Record.of_bytes (Dns_service.Record.to_bytes record) = Ok record);
  ]

(* ------------------------------------------------------------------ *)
(* ICMP codec *)

let icmp_tests =
  [
    qtest "echo roundtrip" QCheck2.Gen.(pair (int_range 0 0xffff) (string_size (int_range 0 64)))
      (fun (ident, data) ->
        Icmp.of_bytes (Icmp.to_bytes (Icmp.Echo_request { ident; data }))
        = Ok (Icmp.Echo_request { ident; data })
        && Icmp.of_bytes (Icmp.to_bytes (Icmp.Echo_reply { ident; data }))
           = Ok (Icmp.Echo_reply { ident; data }));
    Alcotest.test_case "unreachable roundtrip" `Quick (fun () ->
        List.iter
          (fun reason ->
            let m = Icmp.Unreachable { reason; quoted = "quoted-bytes" } in
            Alcotest.(check bool) "roundtrip" true (Icmp.of_bytes (Icmp.to_bytes m) = Ok m))
          [ Icmp.No_route; Icmp.Ephid_expired; Icmp.Ephid_revoked; Icmp.Host_unknown ]);
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        Alcotest.(check bool) "error" true (Result.is_error (Icmp.of_bytes "\x07xx")));
  ]

(* ------------------------------------------------------------------ *)
(* Packet authentication *)

let pkt_auth_tests =
  [
    qtest "seal then verify" QCheck2.Gen.(string_size (int_range 0 200)) (fun payload ->
        let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 1) ~src_ephid:(String.make 16 's')
            ~dst_aid:(aid 2) ~dst_ephid:(String.make 16 'd') ()
        in
        let pkt = Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload in
        Pkt_auth.verify ~auth_key:kha.auth (Pkt_auth.seal ~auth_key:kha.auth pkt));
    qtest "payload tamper detected" QCheck2.Gen.(string_size (int_range 1 100)) (fun payload ->
        let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 1) ~src_ephid:(String.make 16 's')
            ~dst_aid:(aid 2) ~dst_ephid:(String.make 16 'd') ()
        in
        let pkt =
          Pkt_auth.seal ~auth_key:kha.auth
            (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload)
        in
        let tampered = { pkt with payload = payload ^ "!" } in
        not (Pkt_auth.verify ~auth_key:kha.auth tampered));
    Alcotest.test_case "wrong key fails" `Quick (fun () ->
        let kha1 = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        let kha2 = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
        let header =
          Apna_net.Apna_header.make ~src_aid:(aid 1) ~src_ephid:(String.make 16 's')
            ~dst_aid:(aid 2) ~dst_ephid:(String.make 16 'd') ()
        in
        let pkt =
          Pkt_auth.seal ~auth_key:kha1.auth
            (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"x")
        in
        Alcotest.(check bool) "fails" false (Pkt_auth.verify ~auth_key:kha2.auth pkt));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_protocol"
    [
      ("ephid", ephid_tests);
      ("cert", cert_tests);
      ("msgs", msgs_tests);
      ("replay_window", replay_tests);
      ("session", session_tests);
      ("registry", registry_tests);
      ("management", management_tests);
      ("border_router", border_router_tests);
      ("ephid_cache", ephid_cache_tests);
      ("accountability", accountability_tests);
      ("revocation", revocation_tests);
      ("dns", dns_tests);
      ("icmp", icmp_tests);
      ("pkt_auth", pkt_auth_tests);
    ]
