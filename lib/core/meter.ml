type t = {
  mutable pending : int;
  mutable total : int;
  per_manager : (string, int) Hashtbl.t;
  calls : Multics_depgraph.Conformance.t;
}

let create ~declared =
  { pending = 0; total = 0; per_manager = Hashtbl.create 16;
    calls = Multics_depgraph.Conformance.create ~declared }

let charge_raw t ~manager ns =
  assert (ns >= 0);
  t.pending <- t.pending + ns;
  t.total <- t.total + ns;
  let old = Option.value ~default:0 (Hashtbl.find_opt t.per_manager manager) in
  Hashtbl.replace t.per_manager manager (old + ns)

let charge t ~manager lang ns = charge_raw t ~manager (Cost.scale lang ns)

let charge_async t ~manager ns =
  assert (ns >= 0);
  t.total <- t.total + ns;
  let old = Option.value ~default:0 (Hashtbl.find_opt t.per_manager manager) in
  Hashtbl.replace t.per_manager manager (old + ns)

let take_pending t =
  let p = t.pending in
  t.pending <- 0;
  p

let pending t = t.pending
let total t = t.total

let by_manager t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_manager []
  |> List.sort compare

let call t ~from ~to_ =
  Multics_depgraph.Conformance.record_call t.calls ~from ~to_

let calls t = t.calls
