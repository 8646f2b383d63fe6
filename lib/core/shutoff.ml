open Apna_crypto
module M = Apna_obs.Metrics

(* Process-wide totals, shown in the default registry. *)
type totals = { mutable built : int; mutable parsed : int; mutable rejected : int }

let totals = { built = 0; parsed = 0; rejected = 0 }

let () =
  M.Counter.register_fn M.default "apna_shutoff_requests_built_total"
    ~help:"Shutoff requests constructed by victims" (fun () -> totals.built);
  M.Counter.register_fn M.default "apna_shutoff_requests_parsed_total"
    ~help:"Shutoff requests successfully parsed by an accountability agent"
    (fun () -> totals.parsed);
  M.Counter.register_fn M.default "apna_shutoff_parse_errors_total"
    ~help:"Malformed shutoff requests rejected at parse time" (fun () -> totals.rejected)

let make_request ~packet ~(dst_cert : Cert.t) ~(dst_keys : Keys.ephid_keys) =
  if dst_cert.sig_pub <> Ed25519.public_key dst_keys.sig_keypair then
    invalid_arg "Shutoff.make_request: certificate/key mismatch";
  totals.built <- totals.built + 1;
  let packet_bytes = Apna_net.Packet.to_bytes packet in
  Msgs.Shutoff_request
    {
      packet = packet_bytes;
      signature = Ed25519.sign dst_keys.sig_keypair packet_bytes;
      cert = Cert.to_bytes dst_cert;
    }

type parsed = {
  packet : Apna_net.Packet.t;
  signature : string;
  cert : Cert.t;
}

let parse_request msg =
  let r =
    match msg with
    | Msgs.Shutoff_request { packet; signature; cert } -> begin
        match Apna_net.Packet.of_bytes packet with
        | Error e -> Error (Error.Malformed ("shutoff packet: " ^ e))
        | Ok pkt -> begin
            match Cert.of_bytes cert with
            | Error e -> Error e
            | Ok cert -> Ok { packet = pkt; signature; cert }
          end
      end
    | _ -> Error (Error.Malformed "expected a shutoff request")
  in
  (match r with
  | Ok _ -> totals.parsed <- totals.parsed + 1
  | Error _ -> totals.rejected <- totals.rejected + 1);
  r
