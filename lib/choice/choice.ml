type event = {
  ev_domain : string;
  ev_ids : int array;
  ev_chosen : int;
}

type policy =
  | Inert  (* the shared default: never consulted, never recording *)
  | Fixed0  (* default policy, but consulted and recorded *)
  | Random of { seed : int; mutable state : int }
  | Script of { script : int array; mutable cursor : int }

type t = {
  policy : policy;
  mutable trace : event list;  (* newest first *)
  mutable n_decisions : int;
  mutable obs : Multics_obs.Sink.t;
}

let make policy =
  { policy; trace = []; n_decisions = 0; obs = Multics_obs.Sink.detached () }

let default = make Inert

let record_default () = make Fixed0

(* The same LCG family as Workload.Prng: deterministic, seed-stable,
   with the low bits discarded. *)
let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let random ~seed () = make (Random { seed; state = lcg_next (seed land 0x3FFFFFFF) })

let scripted choices =
  make (Script { script = Array.of_list choices; cursor = 0 })

let is_active t = t.policy <> Inert

let decide t n =
  match t.policy with
  | Inert | Fixed0 -> 0
  | Random r ->
      r.state <- lcg_next r.state;
      (r.state lsr 7) mod n
  | Script s ->
      if s.cursor >= Array.length s.script then 0
      else begin
        let c = s.script.(s.cursor) in
        s.cursor <- s.cursor + 1;
        if c < 0 then 0 else if c >= n then n - 1 else c
      end

let pick t ~domain ~ids =
  let n = Array.length ids in
  if n = 0 then invalid_arg "Choice.pick: no alternatives";
  if n = 1 || not (is_active t) then 0
  else begin
    let chosen = decide t n in
    t.trace <- { ev_domain = domain; ev_ids = ids; ev_chosen = chosen } :: t.trace;
    t.n_decisions <- t.n_decisions + 1;
    Multics_obs.Sink.count t.obs "choice.pick";
    Multics_obs.Sink.instant t.obs ~arg:chosen ~cat:"check" ~name:domain ();
    chosen
  end

let taken t = List.rev t.trace
let choices t = List.rev_map (fun ev -> ev.ev_chosen) t.trace
let decisions t = t.n_decisions

(* The shared [default] is the one strategy value reachable from two
   kernels at once (every create-time [?choice] argument defaults to
   it), so kernels running on different domains may consult it
   concurrently.  [pick] never writes through an inert strategy, and
   the two mutators below refuse to either — the inert default is
   immutable in practice, which is what makes sharing it safe. *)
let reset t =
  match t.policy with
  | Inert -> ()
  | Fixed0 ->
      t.trace <- [];
      t.n_decisions <- 0
  | Random r ->
      t.trace <- [];
      t.n_decisions <- 0;
      r.state <- lcg_next (r.seed land 0x3FFFFFFF)
  | Script s ->
      t.trace <- [];
      t.n_decisions <- 0;
      s.cursor <- 0

let set_obs t sink = if t.policy <> Inert then t.obs <- sink

let pp_event ppf ev =
  Format.fprintf ppf "%s: %d/%d (id %d)" ev.ev_domain ev.ev_chosen
    (Array.length ev.ev_ids)
    ev.ev_ids.(ev.ev_chosen)
