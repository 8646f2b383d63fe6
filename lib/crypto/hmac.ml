module type HASH = sig
  val digest_size : int
  val block_size : int
  val digest : string -> string
  val digest_list : string list -> string
end

module Make (H : HASH) = struct
  let pad_key key =
    let key = if String.length key > H.block_size then H.digest key else key in
    let padded = Bytes.make H.block_size '\000' in
    Bytes.blit_string key 0 padded 0 (String.length key);
    Bytes.unsafe_to_string padded

  let with_byte b key = String.map (fun c -> Char.chr (Char.code c lxor b)) key

  let mac_list ~key parts =
    let k = pad_key key in
    let inner = H.digest_list (with_byte 0x36 k :: parts) in
    H.digest_list [ with_byte 0x5c k; inner ]

  let mac ~key msg = mac_list ~key [ msg ]

  let verify ~key ~tag msg =
    let n = String.length tag in
    if n < 8 || n > H.digest_size then false
    else Apna_util.Ct.equal tag (String.sub (mac ~key msg) 0 n)
end

module Sha256 = struct
  include Make (struct
    let digest_size = Sha256.digest_size
    let block_size = Sha256.block_size
    let digest = Sha256.digest
    let digest_list = Sha256.digest_list
  end)

  (* Prepared key: the chaining values after the ipad and opad blocks
     (midstates) are computed once, so each MAC resumes from them and
     skips two compressions. The hash context and inner-digest scratch
     are owned by the value, so a MAC over bytes already in a buffer
     allocates nothing. The midstates are bare 8-word arrays, not whole
     contexts: a context carries its own 64-word schedule. One context
     per prepared key means a prepared key is NOT reentrant: a single
     MAC must finish before the same key starts another (fine for the
     per-entry keys of the border router's single-domain fast path). *)
  type prepared = {
    istate : int array;
    ostate : int array;
    ctx : Sha256.ctx;
    inner : Bytes.t;
  }

  let prepare ~key =
    let k = pad_key key in
    {
      istate = Sha256.midstate (with_byte 0x36 k);
      ostate = Sha256.midstate (with_byte 0x5c k);
      ctx = Sha256.init ();
      inner = Bytes.create Sha256.digest_size;
    }

  (* The inner hash has been fed its message: close it, then run the
     outer hash over its digest. *)
  let finish p ~out ~out_off =
    Sha256.finalize_into p.ctx p.inner ~off:0;
    Sha256.resume p.ctx p.ostate;
    Sha256.feed_bytes p.ctx p.inner ~off:0 ~len:Sha256.digest_size;
    Sha256.finalize_into p.ctx out ~off:out_off

  let mac_into p ~src ~off ~len ~out ~out_off =
    Sha256.resume p.ctx p.istate;
    Sha256.feed_bytes p.ctx src ~off ~len;
    finish p ~out ~out_off

  let mac_list_prepared p parts =
    Sha256.resume p.ctx p.istate;
    List.iter (Sha256.feed p.ctx) parts;
    let out = Bytes.create Sha256.digest_size in
    finish p ~out ~out_off:0;
    Bytes.unsafe_to_string out
end

module Sha512 = Make (struct
  let digest_size = Sha512.digest_size
  let block_size = Sha512.block_size
  let digest = Sha512.digest
  let digest_list = Sha512.digest_list
end)
