(* Shared world builders and workload steps; see scenario.mli. *)

let line ~seed ?dns ?retention ?aa_limits ?link ases =
  let net = Network.create ~seed () in
  List.iter
    (fun asn ->
      let dns_zone =
        match dns with Some (a, zone) when a = asn -> Some zone | _ -> None
      in
      ignore
        (Network.add_as net asn ?dns_zone ~retention:(retention = Some asn)
           ?aa_limits ()))
    ases;
  let rec connect = function
    | a :: (b :: _ as rest) ->
        Network.connect_as net a b ?link:(Option.map (fun f -> f ()) link) ();
        connect rest
    | _ -> ()
  in
  connect ases;
  net

let host ?granularity net ~as_number ~name ~credential =
  let h = Network.add_host net ~as_number ~name ~credential ?granularity () in
  match Host.bootstrap h with
  | Ok () -> h
  | Error e -> failwith (name ^ " bootstrap: " ^ Error.to_string e)

let endpoint ?lifetime ?receive_only net host =
  let ep = ref None in
  Host.request_ephid host ?lifetime ?receive_only (fun e -> ep := Some e);
  Network.run net;
  match !ep with
  | Some e -> e
  | None -> failwith ("no endpoint issued to " ^ Host.name host)

let connect ?data0 ?expect_accept net host ~remote =
  let session = ref None in
  Host.connect host ~remote ?data0 ?expect_accept (fun s -> session := Some s);
  Network.run net;
  match !session with
  | Some s -> s
  | None -> failwith ("no session for " ^ Host.name host)

let inbox host =
  let got = ref [] in
  Host.on_data host (fun ~session:_ ~data -> got := data :: !got);
  fun () -> List.rev !got

let pace net ~n ~span f =
  let eng = Network.engine net in
  for i = 0 to n - 1 do
    Apna_sim.Engine.schedule_in eng
      ~delay:(span *. float_of_int i /. float_of_int n)
      (fun () -> f i)
  done

let auto_shutoff victim ~pool ~built =
  Host.on_data victim (fun ~session ~data:_ ->
      Option.iter
        (fun evidence ->
          pool := evidence :: !pool;
          if Result.is_ok (Host.request_shutoff victim ~session ~evidence) then
            incr built)
        (Host.last_packet victim session))

let flow net h ~remote ~volume ~gap ~frame ~sent =
  let session = ref None in
  Host.connect h ~remote ~data0:(frame 0) (fun s -> session := Some s);
  incr sent;
  for k = 1 to volume - 1 do
    Apna_sim.Engine.schedule_in (Network.engine net) ~delay:(gap k) (fun () ->
        Option.iter
          (fun s -> if Result.is_ok (Host.send h s (frame k)) then incr sent)
          !session)
  done

let replay node ~pool ~cursor ~volume ~sent =
  let pool = Array.of_list pool in
  if Array.length pool > 0 then
    for _ = 1 to volume do
      As_node.submit node pool.(!cursor mod Array.length pool);
      incr cursor;
      incr sent
    done

let bruteforce net node ~dst ~volume ~sent =
  let rng = Network.rng net in
  for _ = 1 to volume do
    let header =
      Apna_net.Apna_header.make ~src_aid:(As_node.aid node)
        ~src_ephid:(Apna_crypto.Drbg.generate rng 16)
        ~dst_aid:(Apna_net.Addr.aid_of_int dst)
        ~dst_ephid:(Apna_crypto.Drbg.generate rng 16)
        ()
    in
    As_node.submit node
      (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:"guess");
    incr sent
  done
