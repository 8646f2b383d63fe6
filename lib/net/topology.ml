module Aid_pair = struct
  type t = int * int

  let canon (a, b) = if a <= b then (a, b) else (b, a)
end

(* One cell per connected pair: [connect] on a linked pair swaps the
   cell's content, so a [wire] handed out earlier sees the new link. *)
type wire = { mutable current : Link.t }

type t = {
  nodes : unit Addr.Aid_tbl.t;
  links : (Aid_pair.t, wire) Hashtbl.t;
  adjacency : Addr.aid list Addr.Aid_tbl.t;
  (* next.(src) : dst -> neighbor, rebuilt lazily on mutation. *)
  mutable routes : Addr.aid Addr.Aid_tbl.t Addr.Aid_tbl.t option;
}

let create () =
  {
    nodes = Addr.Aid_tbl.create 16;
    links = Hashtbl.create 16;
    adjacency = Addr.Aid_tbl.create 16;
    routes = None;
  }

let add_as t aid =
  if not (Addr.Aid_tbl.mem t.nodes aid) then begin
    Addr.Aid_tbl.replace t.nodes aid ();
    Addr.Aid_tbl.replace t.adjacency aid [];
    t.routes <- None
  end

let neighbors t aid =
  Option.value ~default:[] (Addr.Aid_tbl.find_opt t.adjacency aid)

let connect t a b link =
  if Addr.aid_equal a b then invalid_arg "Topology.connect: self-link";
  add_as t a;
  add_as t b;
  let key = Aid_pair.canon (Addr.aid_to_int a, Addr.aid_to_int b) in
  (match Hashtbl.find_opt t.links key with
  | Some w -> w.current <- link
  | None ->
      Addr.Aid_tbl.replace t.adjacency a (b :: neighbors t a);
      Addr.Aid_tbl.replace t.adjacency b (a :: neighbors t b);
      Hashtbl.replace t.links key { current = link });
  t.routes <- None

let wire t a b =
  Hashtbl.find_opt t.links (Aid_pair.canon (Addr.aid_to_int a, Addr.aid_to_int b))

let current w = w.current
let link t a b = Option.map current (wire t a b)

(* All-pairs next-hop via one BFS per node: topologies here are AS-level
   graphs of at most a few hundred nodes. *)
let build_routes t =
  let all = Addr.Aid_tbl.fold (fun aid () acc -> aid :: acc) t.nodes [] in
  let table = Addr.Aid_tbl.create (List.length all) in
  let bfs src =
    let first_hop = Addr.Aid_tbl.create 16 in
    let visited = Addr.Aid_tbl.create 16 in
    Addr.Aid_tbl.replace visited src ();
    let q = Queue.create () in
    List.iter
      (fun n ->
        if not (Addr.Aid_tbl.mem visited n) then begin
          Addr.Aid_tbl.replace visited n ();
          Addr.Aid_tbl.replace first_hop n n;
          Queue.add n q
        end)
      (neighbors t src);
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let via = Addr.Aid_tbl.find first_hop u in
      List.iter
        (fun n ->
          if not (Addr.Aid_tbl.mem visited n) then begin
            Addr.Aid_tbl.replace visited n ();
            Addr.Aid_tbl.replace first_hop n via;
            Queue.add n q
          end)
        (neighbors t u)
    done;
    first_hop
  in
  List.iter (fun src -> Addr.Aid_tbl.replace table src (bfs src)) all;
  t.routes <- Some table;
  table

let routes t = match t.routes with Some r -> r | None -> build_routes t

let next_hop t ~src ~dst =
  if Addr.aid_equal src dst then None
  else
    match Addr.Aid_tbl.find (routes t) src with
    | hops -> Addr.Aid_tbl.find_opt hops dst
    | exception Not_found -> None

let path t ~src ~dst =
  if Addr.aid_equal src dst then Some [ src ]
  else begin
    let rec walk acc cur fuel =
      if fuel = 0 then None
      else if Addr.aid_equal cur dst then Some (List.rev (dst :: acc))
      else
        match next_hop t ~src:cur ~dst with
        | None -> None
        | Some hop -> walk (cur :: acc) hop (fuel - 1)
    in
    walk [] src (1 + Addr.Aid_tbl.length t.nodes)
  end

let path_delay t ~src ~dst ~bytes =
  match path t ~src ~dst with
  | None -> None
  | Some hops ->
      let rec total acc = function
        | a :: (b :: _ as rest) -> begin
            match link t a b with
            | None -> None
            | Some l -> total (acc +. Link.transit_delay l ~bytes) rest
          end
        | [ _ ] | [] -> Some acc
      in
      total 0.0 hops
