type t = {
  mutable pending : int;
  mutable total : int;
  per_manager : (string, int) Hashtbl.t;
}

let create () = { pending = 0; total = 0; per_manager = Hashtbl.create 16 }

let charge_raw t ~manager ns =
  assert (ns >= 0);
  t.pending <- t.pending + ns;
  t.total <- t.total + ns;
  let old = Option.value ~default:0 (Hashtbl.find_opt t.per_manager manager) in
  Hashtbl.replace t.per_manager manager (old + ns)

let charge t ~manager lang ns = charge_raw t ~manager (Cost.scale lang ns)

let take_pending t =
  let p = t.pending in
  t.pending <- 0;
  p

let pending t = t.pending
let total t = t.total

let by_manager t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_manager []
  |> List.sort compare
