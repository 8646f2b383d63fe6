open Apna_crypto

(* A trusted key is prepared (decoded, checked for small order, its comb
   built) on its first use, so keys that never verify cost nothing. *)
type key = { pub : string; prepared : Ed25519.prepared option Lazy.t }

(* Certificates already verified, keyed on their signed bytes: the entry
   names the key record and the signature that passed. *)
type verified = { under : key; signature : string }

module Memo = Apna_util.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Small on purpose: connect/close cycles must leave no lasting state, and
   a repeat connect only needs the published certificate to survive the
   few fresh certificates verified between two connects. *)
let memo_capacity = 16

type t = {
  as_keys : key Apna_net.Addr.Aid_tbl.t;
  zones : (string, key) Hashtbl.t;
  memo : verified Memo.t;
  mutable signature_checks : int;
}

let create () =
  {
    as_keys = Apna_net.Addr.Aid_tbl.create 16;
    zones = Hashtbl.create 4;
    memo = Memo.create ~capacity:memo_capacity;
    signature_checks = 0;
  }

let key_of pub = { pub; prepared = lazy (Ed25519.prepare pub) }

(* A fresh key record, so certificates memoised under an earlier key for
   this AID no longer hit. *)
let register_as t aid ~pub = Apna_net.Addr.Aid_tbl.replace t.as_keys aid (key_of pub)

let as_key t aid =
  match Apna_net.Addr.Aid_tbl.find_opt t.as_keys aid with
  | Some key -> Ok key
  | None ->
      Error
        (Error.Bad_signature
           (Format.asprintf "no trusted key for %a" Apna_net.Addr.pp_aid aid))

let as_pub t aid = Result.map (fun key -> key.pub) (as_key t aid)
let register_zone t name ~pub = Hashtbl.replace t.zones name (key_of pub)

let zone_key t name =
  match Hashtbl.find_opt t.zones name with
  | Some key -> Ok key
  | None -> Error (Error.Bad_signature ("no trusted key for zone " ^ name))

let signature_checks t = t.signature_checks

(* The one full signature check for every key the store holds. A key that
   does not prepare is one {!Ed25519.verify} refuses outright. *)
let signed t key ~what ~msg ~signature =
  t.signature_checks <- t.signature_checks + 1;
  let ok =
    match Lazy.force key.prepared with
    | Some prepared -> Ed25519.verify_prepared prepared ~msg ~signature
    | None -> false
  in
  if ok then Ok () else Error (Error.Bad_signature what)

let verify_as t aid ~what ~msg ~signature =
  Result.bind (as_key t aid) (fun key -> signed t key ~what ~msg ~signature)

let verify_zone t name ~what ~msg ~signature =
  Result.bind (zone_key t name) (fun key -> signed t key ~what ~msg ~signature)

(* Expiry is checked on every call, before the memo. A hit needs the same
   signed bytes, the same signature and the same key record, so its
   verdict is the one a full check would give; only passing certificates
   are remembered. *)
let verify_cert t ~now (cert : Cert.t) =
  match as_key t cert.aid with
  | Error err -> Error err
  | Ok key ->
      if cert.expiry < now then Error (Error.Expired "certificate")
      else begin
        let msg = Cert.signed_bytes cert in
        match Memo.find t.memo msg with
        | Some v when v.under == key && String.equal v.signature cert.signature -> Ok ()
        | _ ->
            let r = signed t key ~what:"certificate" ~msg ~signature:cert.signature in
            if Result.is_ok r then
              Memo.set t.memo msg { under = key; signature = cert.signature };
            r
      end

let memo_size t = Memo.size t.memo
