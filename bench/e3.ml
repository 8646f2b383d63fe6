(* E3: header overhead (Fig. 7). Pure arithmetic over the paper's frame
   sizes, so both tiers compute the same table. *)

open Harness

let run _tier =
  line "APNA header fields: src AID 4B + src EphID 16B + dst EphID 16B";
  line "+ dst AID 4B + MAC 8B = %dB; EphID = IV 4B + ciphertext 8B + tag 4B"
    Apna_net.Apna_header.size;
  line "";
  line "%-7s | %12s %12s | %12s %12s" "frame" "APNA hdr+enc" "IPv4 hdr"
    "APNA goodput" "IPv4 goodput";
  line "%s" (String.make 64 '-');
  (* APNA per-packet cost: header 48 + protocol shim 1 + session frame
     (type 1 + conn 8 + seq 8) + AEAD tag 16. *)
  let apna_over = Apna_net.Apna_header.size + 1 + 17 + Apna_crypto.Aead.tag_size in
  let ipv4_over = Apna_net.Ipv4_header.size in
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
    [] )

let experiment =
  { id = "E3"; title = "HEADER-OVERHEAD"; paper_ref = "Fig. 7 (header accounting)"; run }
