(* E5: crypto microbenchmarks (Bechamel). Four gates, each a ratio
   measured within the run so it holds under machine load. A prepared
   64 B HMAC-SHA256 resumes from its ipad/opad midstates and costs 3
   compressions (inner message block, inner padding, outer block); with
   the pads hashed on every call it would cost 5. An Ed25519 verify under
   a prepared key replaces the ~253-doubling chain with two comb walks
   (32 doublings) and reads ~0.5 plain verifies. Sealing 1 KiB with
   ChaCha20-Poly1305 (17 ChaCha20 blocks, 66 Poly1305 blocks) reads ~14
   SHA-256 compressions; the AES-256-CTR + HMAC-SHA256 AEAD it replaced
   read ~38 (64 T-table AES blocks and an 18-compression HMAC). The
   packet MAC over a 1400 B payload (1,449 B of MAC input: 91 Poly1305
   blocks and one ChaCha20 block, under a prepared key) reads ~5 SHA-256
   compressions; the prepared HMAC-SHA256 it replaced read ~24. A gated
   ratio is the median of interleaved rounds (Fixtures.interleaved_ratio),
   not the quotient of two Bechamel estimates taken at different
   moments. *)

open Apna
open Apna_crypto
open Harness
open Fixtures

let run tier =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let fx = make_br_fixture () in
  let block = String.make 16 'b' in
  let msg1k = String.make 1024 'm' in
  let aes_key = Aes.expand (String.make 16 'k') in
  let aead_key = Aead.of_secret (String.make 32 'K') in
  let gcm_key = Aes.expand (String.make 32 'K') in
  let nonce = String.make 16 'n' and gcm_iv = String.make Gcm.iv_size 'n' in
  let kp = Ed25519.keypair_of_seed (String.make 32 's') in
  let signature = Ed25519.sign kp "msg" in
  let as_key = Option.get (Ed25519.prepare (Ed25519.public_key kp)) in
  let verify_plain () =
    assert (Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg:"msg" ~signature)
  in
  let verify_prepared () = assert (Ed25519.verify_prepared as_key ~msg:"msg" ~signature) in
  let cp_key = String.make 32 'K' and cp_nonce = String.make 12 'n' in
  let cp_block = String.make 64 '\x00' in
  let x_secret = Drbg.generate rng 32 in
  let x_peer = X25519.public_of_secret (Drbg.generate rng 32) in
  let sealed = Aead.seal ~key:aead_key ~nonce msg1k in
  let pkt = make_packet fx ~frame:512 in
  let sha_ctx = Sha256.init () and sha_block = Bytes.make Sha256.block_size 'b' in
  let prepared = Hmac.Sha256.prepare ~key:(String.make 32 'h') in
  let mac_src = Bytes.make 1400 'm' and mac_out = Bytes.create Sha256.digest_size in
  let mac_prepared len () =
    Hmac.Sha256.mac_into prepared ~src:mac_src ~off:0 ~len ~out:mac_out ~out_off:0
  in
  (* The packet MAC as a border router checks it: a prepared key, the
     MAC input assembled in a scratch buffer. *)
  let pkt_key = Pkt_auth.prepare ~auth_key:fx.host_kha.auth and pkt_scratch = Bytes.create 2048 in
  let pkt_mac payload () =
    let pkt = make_packet fx ~frame:(Apna_net.Apna_header.size + 1 + payload) in
    fun () -> assert (Pkt_auth.verify_in ~scratch:pkt_scratch pkt_key pkt)
  in
  let pkt_mac_64 = pkt_mac 64 () and pkt_mac_1400 = pkt_mac 1400 () in
  (* Exactly one compression: a whole block fed to a reset context. *)
  let sha_one_block () =
    Sha256.reset sha_ctx;
    Sha256.feed_bytes sha_ctx sha_block ~off:0 ~len:Sha256.block_size
  in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"crypto"
      [
        test "aes128-block" (fun () -> Aes.encrypt_block aes_key block);
        test "sha256-1KiB" (fun () -> Sha256.digest msg1k);
        test "sha256-block" sha_one_block;
        test "hmac-sha256-1KiB" (fun () -> Hmac.Sha256.mac ~key:"k" msg1k);
        test "hmac-prepared-64B" (mac_prepared 64);
        test "hmac-prepared-1400B" (mac_prepared 1400);
        test "ephid-issue" (fun () ->
            Ephid.issue fx.keys ~hid:(Apna_net.Addr.hid_of_int 1) ~expiry:now0
              ~iv:"\x00\x01\x02\x03");
        test "ephid-parse" (fun () -> Ephid.parse fx.keys fx.host_ephid);
        test "aead-seal-1KiB" (fun () -> Aead.seal ~key:aead_key ~nonce msg1k);
        test "aead-open-1KiB" (fun () -> Aead.open_ ~key:aead_key ~nonce sealed);
        test "chacha20-block" (fun () ->
            Chacha20_poly1305.xor ~key:cp_key ~nonce:cp_nonce ~counter:1 cp_block);
        test "poly1305-1KiB" (fun () -> Chacha20_poly1305.poly1305 ~key:cp_key msg1k);
        test "aead-gcm-seal-1KiB" (fun () -> Gcm.encrypt ~key:gcm_key ~iv:gcm_iv msg1k);
        test "pkt-mac-64B" pkt_mac_64;
        test "pkt-mac-1400B" pkt_mac_1400;
        test "pkt-mac-verify-512B" (fun () ->
            Pkt_auth.verify ~auth_key:fx.host_kha.auth pkt);
        test "x25519-shared" (fun () -> X25519.scalar_mult ~scalar:x_secret ~point:x_peer);
        test "ed25519-sign" (fun () -> Ed25519.sign kp "msg");
        test "ed25519-verify" verify_plain;
        test "ed25519-verify-prepared" verify_prepared;
      ]
  in
  let cfg =
    Benchmark.cfg
      ~limit:(by_tier tier ~quick:400 ~full:2000)
      ~quota:(Time.second (by_tier tier ~quick:0.05 ~full:0.25))
      ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan in
        (name, ns) :: acc)
      (Analyze.all ols Instance.monotonic_clock raw)
      []
    |> List.sort compare
  in
  line "";
  line "%-36s %14s" "primitive" "ns/op";
  line "%s" (String.make 52 '-');
  List.iter (fun (name, ns) -> line "%-36s %14.0f" name ns) results;
  line "";
  line "paper's decomposition target: EphID issue/parse are a handful of AES";
  line "operations; certificates cost one ed25519 signature; forwarding";
  line "touches only symmetric primitives.";
  let rounds = by_tier tier ~quick:11 ~full:21 in
  let hmac_over_block =
    interleaved_ratio ~rounds ~samples:30 ~batch:64 (mac_prepared 64) sha_one_block
  in
  line
    "prepared 64 B HMAC = %.2f SHA-256 blocks (3 with midstates, 5 without; median \
     of %d interleaved rounds)"
    hmac_over_block rounds;
  let seal_1k () = ignore (Aead.seal ~key:aead_key ~nonce msg1k) in
  let seal_over_block =
    interleaved_ratio ~rounds ~samples:30 ~batch:8 seal_1k sha_one_block
  in
  line
    "1 KiB AEAD seal = %.1f SHA-256 blocks (ChaCha20-Poly1305 ~14, AES-CTR + HMAC \
     ~38; median of %d interleaved rounds)"
    seal_over_block rounds;
  let mac_over_block =
    interleaved_ratio ~rounds ~samples:30 ~batch:8 pkt_mac_1400 sha_one_block
  in
  line
    "prepared packet MAC, 1400 B payload = %.1f SHA-256 blocks (hash-then-PRF ~5, \
     HMAC-SHA256 ~24; median of %d interleaved rounds)"
    mac_over_block rounds;
  let prepared_over_plain =
    interleaved_ratio ~rounds ~samples:9 ~batch:4 verify_prepared verify_plain
  in
  line
    "verify under a prepared key = %.2f plain verifies (two comb walks against one \
     doubling chain; median of %d interleaved rounds)"
    prepared_over_plain rounds;
  ( J.Obj (List.map (fun (name, ns) -> (name, J.Float ns)) results),
    [
      gate "hmac_prepared_64B_over_sha256_block" hmac_over_block (At_most 4.0);
      gate "ed25519_verify_prepared_over_plain" prepared_over_plain (At_most 0.7);
      gate "aead_seal_1KiB_over_sha256_block" seal_over_block (At_most 25.0);
      gate "pkt_mac_1400B_over_sha256_block" mac_over_block (At_most 12.0);
    ] )

let experiment =
  { id = "E5"; title = "CRYPTO-MICRO"; paper_ref = "§V-A1 (primitive decomposition)"; run }
