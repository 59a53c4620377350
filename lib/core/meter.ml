type account = {
  owner : t;
  mutable spent : int;
  mutable charged : bool;  (* listed by [by_manager] once charged *)
}

and t = {
  mutable pending : int;
  mutable total : int;
  accounts : (string, account) Hashtbl.t;
}

let create () = { pending = 0; total = 0; accounts = Hashtbl.create 16 }

let account t manager =
  match Hashtbl.find_opt t.accounts manager with
  | Some a -> a
  | None ->
      let a = { owner = t; spent = 0; charged = false } in
      Hashtbl.replace t.accounts manager a;
      a

let charge_raw a ns =
  assert (ns >= 0);
  let t = a.owner in
  t.pending <- t.pending + ns;
  t.total <- t.total + ns;
  a.spent <- a.spent + ns;
  a.charged <- true

let charge a lang ns = charge_raw a (Cost.scale lang ns)

let take_pending t =
  let p = t.pending in
  t.pending <- 0;
  p

let pending t = t.pending
let total t = t.total

let by_manager t =
  Hashtbl.fold
    (fun name a acc -> if a.charged then (name, a.spent) :: acc else acc)
    t.accounts []
  |> List.sort compare
