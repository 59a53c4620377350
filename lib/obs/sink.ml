type mode = Off | Counters | Full

type span = { sp_cat : string; sp_name : string; sp_tid : int; sp_t0 : int }

let null_span = { sp_cat = ""; sp_name = ""; sp_tid = 0; sp_t0 = -1 }

type slo_view = {
  sv_histo : string;
  sv_threshold : int;
  sv_breaches : int;
  sv_worst : int;
  sv_last_ns : int;
  sv_last_t : int;
  sv_last_ctx : int;
}

type slo = {
  slo_histo : string;
  mutable slo_threshold : int;
  mutable slo_breaches : int;
  mutable slo_worst : int;
  mutable slo_last_ns : int;
  mutable slo_last_t : int;
  mutable slo_last_ctx : int;
}

type usage = { mutable u_cpu_ns : int; mutable u_ios : int }

type t = {
  mutable md : mode;
  clock : unit -> int;
  ring : Trace_buf.t;
  flight : Trace_buf.t;
  histo_tbl : (string, Histo.t) Hashtbl.t;
  mutable histo_order : string list;  (* newest first *)
  counter_tbl : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;  (* newest first *)
  (* request contexts *)
  mutable cur : int;
  mutable ctx_n : int;  (* ids allocated so far; valid ids are 1..ctx_n *)
  mutable ctx_parent : int array;  (* indexed by id; 0 = root *)
  mutable ctx_root : int array;
  mutable ctx_origin : string array;
  mutable ctx_deadline : int array;  (* absolute ns; 0 = none *)
  (* SLO watchdogs *)
  slo_tbl : (string, slo) Hashtbl.t;
  mutable slo_order : string list;  (* newest first *)
  mutable on_breach : (string -> unit) option;
  (* flight-recorder dumps *)
  mutable last_dump : (string * string) option;  (* reason, text *)
  (* per-user attribution, keyed by root-ctx origin *)
  user_tbl : (string, usage) Hashtbl.t;
}

let create ?(mode = Counters) ?(capacity = 16384) ?(flight_capacity = 256)
    ~now () =
  { md = mode; clock = now; ring = Trace_buf.create ~capacity ();
    flight = Trace_buf.create ~capacity:flight_capacity ();
    histo_tbl = Hashtbl.create 32; histo_order = [];
    counter_tbl = Hashtbl.create 32; counter_order = [];
    cur = 0; ctx_n = 0;
    ctx_parent = Array.make 64 0; ctx_root = Array.make 64 0;
    ctx_origin = Array.make 64 "";
    ctx_deadline = Array.make 64 0;
    slo_tbl = Hashtbl.create 8; slo_order = []; on_breach = None;
    last_dump = None;
    user_tbl = Hashtbl.create 16 }

let disabled () =
  create ~mode:Off ~capacity:1 ~flight_capacity:1 ~now:(fun () -> 0) ()

let mode t = t.md
let set_mode t m = t.md <- m
let counting t = t.md <> Off
let recording t = t.md = Full
let now t = t.clock ()
let buf t = t.ring
let flight t = t.flight

(* Request contexts ------------------------------------------------- *)

let grow_ctx t =
  let cap = Array.length t.ctx_parent in
  let ncap = 2 * cap in
  let cp = Array.make ncap 0 in
  Array.blit t.ctx_parent 0 cp 0 cap;
  t.ctx_parent <- cp;
  let cr = Array.make ncap 0 in
  Array.blit t.ctx_root 0 cr 0 cap;
  t.ctx_root <- cr;
  let co = Array.make ncap "" in
  Array.blit t.ctx_origin 0 co 0 cap;
  t.ctx_origin <- co;
  let cd = Array.make ncap 0 in
  Array.blit t.ctx_deadline 0 cd 0 cap;
  t.ctx_deadline <- cd

let new_ctx t ?parent ?deadline ~origin () =
  if t.md = Off then 0
  else begin
    let parent = match parent with Some p -> p | None -> t.cur in
    let id = t.ctx_n + 1 in
    if id >= Array.length t.ctx_parent then grow_ctx t;
    t.ctx_n <- id;
    t.ctx_parent.(id) <- parent;
    t.ctx_root.(id) <- (if parent > 0 then t.ctx_root.(parent) else id);
    t.ctx_origin.(id) <- origin;
    (* A child can tighten its inherited deadline but never loosen it:
       the effective deadline is the min of the parent's and its own. *)
    let inherited = if parent > 0 then t.ctx_deadline.(parent) else 0 in
    let own = match deadline with Some d -> d | None -> 0 in
    t.ctx_deadline.(id) <-
      (if inherited = 0 then own
       else if own = 0 then inherited
       else min inherited own);
    id
  end

let current t = t.cur
let set_current t c = t.cur <- c
let ctx_count t = t.ctx_n
let ctx_parent t id = if id > 0 && id <= t.ctx_n then t.ctx_parent.(id) else 0
let ctx_root t id = if id > 0 && id <= t.ctx_n then t.ctx_root.(id) else 0
let ctx_origin t id = if id > 0 && id <= t.ctx_n then t.ctx_origin.(id) else ""

let ctx_deadline t id =
  if id > 0 && id <= t.ctx_n then t.ctx_deadline.(id) else 0

let ctx_expired t ~now id =
  id > 0 && id <= t.ctx_n
  && t.ctx_deadline.(id) > 0
  && now > t.ctx_deadline.(id)

let rec ctx_chain t id =
  if id <= 0 || id > t.ctx_n then [] else id :: ctx_chain t t.ctx_parent.(id)

(* Counters --------------------------------------------------------- *)

let count t name =
  if t.md <> Off then
    match Hashtbl.find_opt t.counter_tbl name with
    | Some r -> incr r
    | None ->
        Hashtbl.replace t.counter_tbl name (ref 1);
        t.counter_order <- name :: t.counter_order

let counters t =
  List.rev_map
    (fun name -> (name, !(Hashtbl.find t.counter_tbl name)))
    t.counter_order

(* Histograms and SLO watchdogs ------------------------------------- *)

let histo t ~name =
  match Hashtbl.find_opt t.histo_tbl name with
  | Some h -> h
  | None ->
      let h = Histo.create ~name in
      Hashtbl.replace t.histo_tbl name h;
      t.histo_order <- name :: t.histo_order;
      h

let histos t = List.rev_map (fun name -> Hashtbl.find t.histo_tbl name) t.histo_order

(* Events ----------------------------------------------------------- *)

(* Every event goes to the always-on flight ring; the big ring only
   records in [Full].  Neither touches the meter or the event queue. *)
let emit t ~phase ~cat ~name ~tid ~id ~arg =
  let ev =
    { Trace_buf.ev_time = t.clock (); ev_phase = phase; ev_cat = cat;
      ev_name = name; ev_tid = tid; ev_id = id; ev_arg = arg; ev_ctx = t.cur }
  in
  if t.md = Full then Trace_buf.record t.ring ev;
  Trace_buf.record t.flight ev

let set_slo t ~histo ~threshold_ns =
  match Hashtbl.find_opt t.slo_tbl histo with
  | Some s -> s.slo_threshold <- threshold_ns
  | None ->
      Hashtbl.replace t.slo_tbl histo
        { slo_histo = histo; slo_threshold = threshold_ns; slo_breaches = 0;
          slo_worst = 0; slo_last_ns = 0; slo_last_t = 0; slo_last_ctx = 0 };
      t.slo_order <- histo :: t.slo_order

let slos t =
  List.rev_map
    (fun name ->
      let s = Hashtbl.find t.slo_tbl name in
      { sv_histo = s.slo_histo; sv_threshold = s.slo_threshold;
        sv_breaches = s.slo_breaches; sv_worst = s.slo_worst;
        sv_last_ns = s.slo_last_ns; sv_last_t = s.slo_last_t;
        sv_last_ctx = s.slo_last_ctx })
    t.slo_order

let breach t s ns =
  s.slo_breaches <- s.slo_breaches + 1;
  if ns > s.slo_worst then s.slo_worst <- ns;
  s.slo_last_ns <- ns;
  s.slo_last_t <- t.clock ();
  s.slo_last_ctx <- t.cur;
  count t "slo.breach";
  emit t ~phase:Trace_buf.Instant ~cat:"slo" ~name:s.slo_histo ~tid:0 ~id:0
    ~arg:ns;
  match t.on_breach with Some f -> f s.slo_histo | None -> ()

let set_on_breach t f = t.on_breach <- Some f

let add_latency t ~name ns =
  if t.md <> Off then begin
    Histo.add (histo t ~name) ns;
    match Hashtbl.find_opt t.slo_tbl name with
    | Some s when ns > s.slo_threshold -> breach t s ns
    | _ -> ()
  end

let span_begin t ?(tid = 0) ~cat ~name () =
  if t.md = Off then null_span
  else begin
    emit t ~phase:Trace_buf.Span_begin ~cat ~name ~tid ~id:0 ~arg:0;
    { sp_cat = cat; sp_name = name; sp_tid = tid; sp_t0 = t.clock () }
  end

let span_end t ?histo:hname sp =
  if t.md <> Off && sp.sp_t0 >= 0 then begin
    emit t ~phase:Trace_buf.Span_end ~cat:sp.sp_cat ~name:sp.sp_name
      ~tid:sp.sp_tid ~id:0 ~arg:0;
    match hname with
    | Some name -> add_latency t ~name (t.clock () - sp.sp_t0)
    | None -> ()
  end

let instant t ?(tid = 0) ?(arg = 0) ~cat ~name () =
  if t.md <> Off then emit t ~phase:Trace_buf.Instant ~cat ~name ~tid ~id:0 ~arg

let async_begin t ?(tid = 0) ?(arg = 0) ~cat ~name ~id () =
  if t.md <> Off then emit t ~phase:Trace_buf.Async_begin ~cat ~name ~tid ~id ~arg

let async_end t ?(tid = 0) ?(arg = 0) ~cat ~name ~id () =
  if t.md <> Off then emit t ~phase:Trace_buf.Async_end ~cat ~name ~tid ~id ~arg

let counter_event t ~cat ~name value =
  if t.md = Full then
    emit t ~phase:Trace_buf.Counter ~cat ~name ~tid:0 ~id:0 ~arg:value

(* Flight-recorder dumps -------------------------------------------- *)

let phase_code = function
  | Trace_buf.Span_begin -> "B"
  | Trace_buf.Span_end -> "E"
  | Trace_buf.Async_begin -> "b"
  | Trace_buf.Async_end -> "e"
  | Trace_buf.Instant -> "i"
  | Trace_buf.Counter -> "C"

let pp_ctx_chain t ppf ctx =
  List.iteri
    (fun i id ->
      if i > 0 then Format.fprintf ppf "<-";
      Format.fprintf ppf "%d:%s" id (ctx_origin t id))
    (ctx_chain t ctx)

let flight_dump t =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "flight recorder: %d events (%d overwritten)@."
    (Trace_buf.length t.flight)
    (Trace_buf.dropped t.flight);
  Trace_buf.iter t.flight (fun ev ->
      Format.fprintf ppf "%12d t%-2d %s %s:%s" ev.Trace_buf.ev_time
        ev.Trace_buf.ev_tid
        (phase_code ev.Trace_buf.ev_phase)
        ev.Trace_buf.ev_cat ev.Trace_buf.ev_name;
      if ev.Trace_buf.ev_id <> 0 then
        Format.fprintf ppf " id=%d" ev.Trace_buf.ev_id;
      if ev.Trace_buf.ev_arg <> 0 then
        Format.fprintf ppf " arg=%d" ev.Trace_buf.ev_arg;
      if ev.Trace_buf.ev_ctx <> 0 then
        Format.fprintf ppf " ctx=%a" (pp_ctx_chain t) ev.Trace_buf.ev_ctx;
      Format.fprintf ppf "@.");
  Format.pp_print_flush ppf ();
  Buffer.contents b

let note_dump t ~reason =
  if t.md <> Off then begin
    count t "flight.dump";
    t.last_dump <- Some (reason, flight_dump t)
  end

let last_dump t = t.last_dump

(* Per-user attribution --------------------------------------------- *)

let attribute t ~ctx ~cpu_ns ~ios =
  if ctx > 0 && ctx <= t.ctx_n then begin
    let user = t.ctx_origin.(t.ctx_root.(ctx)) in
    let u =
      match Hashtbl.find_opt t.user_tbl user with
      | Some u -> u
      | None ->
          let u = { u_cpu_ns = 0; u_ios = 0 } in
          Hashtbl.replace t.user_tbl user u;
          u
    in
    u.u_cpu_ns <- u.u_cpu_ns + cpu_ns;
    u.u_ios <- u.u_ios + ios
  end

let by_user t =
  Hashtbl.fold (fun user u acc -> (user, (u.u_cpu_ns, u.u_ios)) :: acc)
    t.user_tbl []
  |> List.sort compare

let user_usage t ~user =
  match Hashtbl.find_opt t.user_tbl user with
  | Some u -> Some (u.u_cpu_ns, u.u_ios)
  | None -> None
