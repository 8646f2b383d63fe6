type account = {
  capacity : int;
  refill : int;
  mutable balance : int;
  mutable epoch : int;
}

type t = {
  epoch_s : int;
  default_capacity : int;
  default_refill : int;
  tbl : (string, account) Hashtbl.t;
}

type outcome =
  | Charged of { cost : int; remaining : int }
  | Exhausted of { cost : int; remaining : int; retry_after_s : int }

let create ?(epoch_s = 3600) ?(capacity = 100) ?(refill = 25) () =
  if epoch_s <= 0 then invalid_arg "Budget.create: epoch_s must be > 0";
  { epoch_s; default_capacity = capacity; default_refill = refill;
    tbl = Hashtbl.create 16 }

let register ?capacity ?refill t ~id ~now =
  let capacity = Option.value ~default:t.default_capacity capacity in
  let refill = Option.value ~default:t.default_refill refill in
  Hashtbl.replace t.tbl id
    { capacity; refill; balance = capacity; epoch = now / t.epoch_s }

let known t id = Hashtbl.mem t.tbl id

(* Lazy refill: accounts are only touched when queried, so idle requesters
   cost nothing and the ledger needs no timer. *)
let refresh t a ~now =
  let epoch = now / t.epoch_s in
  if epoch > a.epoch then begin
    a.balance <- min a.capacity (a.balance + (a.refill * (epoch - a.epoch)));
    a.epoch <- epoch
  end

let balance t ~id =
  match Hashtbl.find_opt t.tbl id with None -> 0 | Some a -> a.balance

let remaining t ~id ~now =
  match Hashtbl.find_opt t.tbl id with
  | None -> 0
  | Some a ->
      refresh t a ~now;
      a.balance


let charge t ~id ~now ~cost =
  match Hashtbl.find_opt t.tbl id with
  | None -> Exhausted { cost; remaining = 0; retry_after_s = -1 }
  | Some a ->
      refresh t a ~now;
      if a.balance >= cost then begin
        a.balance <- a.balance - cost;
        Charged { cost; remaining = a.balance }
      end
      else
        let retry_after_s =
          if cost > a.capacity || a.refill <= 0 then -1
          else
            (* Epochs until refills cover the shortfall, then seconds
               until that epoch boundary. *)
            let needed = cost - a.balance in
            let epochs = (needed + a.refill - 1) / a.refill in
            ((a.epoch + epochs) * t.epoch_s) - now
        in
        Exhausted { cost; remaining = a.balance; retry_after_s }

let accounts t ~now =
  Hashtbl.fold
    (fun id a acc ->
      refresh t a ~now;
      (id, a.balance, a.capacity) :: acc)
    t.tbl []
  |> List.sort compare
