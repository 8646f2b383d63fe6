open Apna_crypto

type as_keys = {
  aid : Apna_net.Addr.aid;
  master : string;
  ephid_enc : Aes.key;
  ephid_mac : Aes.key;
  infra_mac : string;
  signing : Ed25519.keypair;
  dh_secret : string;
  dh_public : string;
}

let make_as rng ~aid =
  let master = Drbg.generate rng 32 in
  let okm = Hkdf.derive ~info:"apna:as-keys:v1" ~len:64 master in
  let signing = Ed25519.generate rng in
  let dh_secret, dh_public = X25519.generate rng in
  {
    aid;
    master;
    ephid_enc = Aes.expand (String.sub okm 0 16);
    ephid_mac = Aes.expand (String.sub okm 16 16);
    infra_mac = String.sub okm 32 32;
    signing;
    dh_secret;
    dh_public;
  }

type host_as = { ctrl_raw : string; auth : string }

let derive_host_as ~shared_secret =
  let okm = Hkdf.derive ~info:"apna:kha:v1" ~len:64 shared_secret in
  { ctrl_raw = String.sub okm 0 32; auth = String.sub okm 32 32 }

(* A ChaCha20-Poly1305 key is the 32-byte secret itself: there is nothing
   to expand, so a registered host is the record and its two secrets. *)
let ctrl (k : host_as) = Aead.of_secret k.ctrl_raw

type ephid_keys = {
  kx_secret : string;
  kx_public : string;
  sig_keypair : Ed25519.keypair;
}

let make_ephid_keys rng =
  let kx_secret, kx_public = X25519.generate rng in
  { kx_secret; kx_public; sig_keypair = Ed25519.generate rng }
