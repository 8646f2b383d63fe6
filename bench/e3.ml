(* E3: header overhead (Fig. 7). Pure arithmetic over the paper's frame
   sizes, so both tiers compute the same table. The overhead comes from
   the wire codecs and is gated exactly: a change to the header or the
   session frame layout must update these gates on purpose. *)

open Harness

let run _tier =
  line "APNA header fields: src AID 4B + src EphID 16B + dst EphID 16B";
  line "+ dst AID 4B + MAC 8B = %dB; EphID = IV 4B + ciphertext 8B + tag 4B"
    Apna_net.Apna_header.size;
  line "";
  line "%-7s | %12s %12s | %12s %12s" "frame" "APNA hdr+enc" "IPv4 hdr"
    "APNA goodput" "IPv4 goodput";
  line "%s" (String.make 64 '-');
  (* APNA per-packet cost, from the codecs: a data packet carrying an
     empty session frame (header + protocol shim + frame type, conn id and
     seq), plus the AEAD tag that every sealed payload adds. *)
  let open Apna_net in
  let zero_ephid = String.make Apna_header.ephid_size '\000' in
  let header =
    Apna_header.make ~src_aid:(Addr.aid_of_int 0) ~src_ephid:zero_ephid
      ~dst_aid:(Addr.aid_of_int 0) ~dst_ephid:zero_ephid ()
  in
  let empty_frame =
    Apna.Session.Frame.(to_bytes (Data { conn_id = 0L; seq = 0L; sealed = "" }))
  in
  let header_bytes = String.length (Apna_header.to_bytes header) in
  let apna_over =
    String.length (Packet.to_bytes (Packet.make ~header ~proto:Data ~payload:empty_frame))
    + Apna_crypto.Aead.tag_size
  in
  let ipv4_over = Ipv4_header.size in
  let rows =
    List.map
      (fun size ->
        let gp o = float_of_int (size - o) /. float_of_int size *. 100.0 in
        line "%5dB | %11dB %11dB | %11.1f%% %11.1f%%" size apna_over ipv4_over
          (gp apna_over) (gp ipv4_over);
        J.Obj
          [
            ("size_bytes", J.Int size);
            ("apna_goodput_pct", J.Float (gp apna_over));
            ("ipv4_goodput_pct", J.Float (gp ipv4_over));
          ])
      Apna_workload.Packet_mix.paper_sizes
  in
  ( J.Obj
      [
        ("apna_overhead_bytes", J.Int apna_over);
        ("ipv4_overhead_bytes", J.Int ipv4_over);
        ("frames", J.List rows);
      ],
    [
      holds "header_bytes_eq_48" (header_bytes = 48);
      holds "per_packet_overhead_bytes_eq_82" (apna_over = 82);
    ] )

let experiment =
  { id = "E3"; title = "HEADER-OVERHEAD"; paper_ref = "Fig. 7 (header accounting)"; run }
