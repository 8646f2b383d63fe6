include Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = Hashtbl.hash
end)
