module Choice = Multics_choice.Choice

type waiter = {
  threshold : int;
  notify : unit -> unit;
  since : int;
  w_seq : int;  (* registration order; the choice point's stable id *)
  w_ctx : int;  (* request context captured at await *)
}

type t = {
  ec_obs : Multics_obs.Sink.t;
  ec_histo : string;  (* wait-time histogram key, built once at create *)
  ec_choice : Choice.t;
  mutable value : int;
  mutable pending : waiter list;  (* newest first *)
  mutable wait_seq : int;
}

let create ?(name = "ec") ?histo ?obs ?(choice = Choice.default) () =
  let ec_obs =
    match obs with Some s -> s | None -> Multics_obs.Sink.detached ()
  in
  let ec_histo =
    match histo with Some h -> h | None -> "ec.wait:" ^ name
  in
  { ec_obs; ec_histo; ec_choice = choice; value = 0;
    pending = []; wait_seq = 0 }

let read t = t.value

(* The wakeup runs on behalf of the waiter: re-install the context it
   captured at [await] around the latency sample, the wakeup event and
   the notification itself, so the causal chain crosses the wait. *)
let fire t w =
  let prev = Multics_obs.Sink.current t.ec_obs in
  Multics_obs.Sink.set_current t.ec_obs w.w_ctx;
  Multics_obs.Sink.add_latency t.ec_obs ~name:t.ec_histo
    (Multics_obs.Sink.now t.ec_obs - w.since);
  Multics_obs.Sink.instant t.ec_obs ~cat:"sync" ~name:"ec_wakeup" ();
  w.notify ();
  Multics_obs.Sink.set_current t.ec_obs prev

(* Fire the ready waiters one at a time in strategy order: each pick
   removes one waiter from the remaining set, and a fired notification
   may legitimately register new waiters (they joined [pending] above
   and wait for a later advance). *)
let rec fire_chosen t = function
  | [] -> ()
  | [ w ] -> fire t w
  | ready ->
      let ids = Array.of_list (List.map (fun w -> w.w_seq) ready) in
      let i = Choice.pick t.ec_choice ~domain:"ec.wakeup" ~ids in
      let w = List.nth ready i in
      fire t w;
      fire_chosen t (List.filteri (fun j _ -> j <> i) ready)

let advance t =
  t.value <- t.value + 1;
  Multics_obs.Sink.count t.ec_obs "ec.advance";
  Multics_obs.Sink.instant t.ec_obs ~cat:"sync" ~name:"ec_advance"
    ~arg:t.value ();
  let ready, still =
    List.partition (fun w -> w.threshold <= t.value) t.pending
  in
  t.pending <- still;
  if not (Choice.is_active t.ec_choice) then
    (* Fire in registration order. *)
    List.iter (fire t) (List.rev ready)
  else fire_chosen t (List.rev ready)

let await t ~value ~notify =
  if t.value >= value then true
  else begin
    Multics_obs.Sink.count t.ec_obs "ec.wait";
    Multics_obs.Sink.instant t.ec_obs ~cat:"sync" ~name:"ec_wait" ~arg:value ();
    let w_seq = t.wait_seq in
    t.wait_seq <- w_seq + 1;
    let w_ctx = Multics_obs.Sink.current t.ec_obs in
    (* Deadline checkpoint (observational): an expired request parking
       on an eventcount is flagged; dispatch retires it for good. *)
    if
      Multics_obs.Sink.ctx_expired t.ec_obs
        ~now:(Multics_obs.Sink.now t.ec_obs) w_ctx
    then Multics_obs.Sink.count t.ec_obs "ec.expired_wait";
    t.pending <-
      { threshold = value; notify; since = Multics_obs.Sink.now t.ec_obs;
        w_seq; w_ctx }
      :: t.pending;
    false
  end

let waiters t = List.length t.pending
