type mode = Counters | Full

type span = { sp_cat : string; sp_name : string; sp_tid : int; sp_t0 : int }

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

(* One chunk of the request-context store, indexed by id within the
   chunk. *)
type ctx_chunk = {
  c_parent : int array;  (* 0 = root *)
  c_root : int array;
  c_origin : string array;
  c_deadline : int array;  (* absolute ns; 0 = none *)
}

let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let first_chunk = 64

let make_chunk n =
  { c_parent = Array.make n 0; c_root = Array.make n 0;
    c_origin = Array.make n ""; c_deadline = Array.make n 0 }

type t = {
  md : mode;
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
  mutable ctx_cap : int;  (* ids below this have a slot *)
  mutable ctx_chunks : ctx_chunk array;  (* chunk i holds ids i*chunk.. *)
  (* SLO watchdogs *)
  slo_tbl : (string, slo) Hashtbl.t;
  mutable slo_order : string list;  (* newest first *)
  (* per-user attribution, keyed by root-ctx origin *)
  user_tbl : (string, usage) Hashtbl.t;
}

let create ?(mode = Counters) ?(capacity = 16384) ?(flight_capacity = 256)
    ~now () =
  { md = mode; clock = now; ring = Trace_buf.create ~capacity ();
    flight = Trace_buf.create ~capacity:flight_capacity ();
    histo_tbl = Hashtbl.create 32; histo_order = [];
    counter_tbl = Hashtbl.create 32; counter_order = [];
    cur = 0; ctx_n = 0; ctx_cap = first_chunk;
    ctx_chunks = [| make_chunk first_chunk |];
    slo_tbl = Hashtbl.create 8; slo_order = [];
    user_tbl = Hashtbl.create 16 }

let detached () = create ~capacity:1 ~flight_capacity:1 ~now:(fun () -> 0) ()
let now t = t.clock ()
let buf t = t.ring
let flight t = t.flight

(* Request contexts ------------------------------------------------- *)

(* Contexts are never freed, so the store grows with every request.  It
   grows by appending fixed chunks of [chunk] slots: nothing already
   stored is copied, and at most one chunk stands reserved beyond the
   last id.  Chunk 0 alone starts at [first_chunk] slots and doubles up
   to [chunk], so a kernel that mints only a handful of contexts (every
   explorer boot) stays as small as it was. *)
let grow_ctx t =
  let cap = t.ctx_cap in
  if cap < chunk then begin
    let c = t.ctx_chunks.(0) in
    let n = 2 * cap in
    let widen a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.ctx_chunks.(0) <-
      { c_parent = widen c.c_parent 0; c_root = widen c.c_root 0;
        c_origin = widen c.c_origin ""; c_deadline = widen c.c_deadline 0 };
    t.ctx_cap <- n
  end
  else begin
    let i = cap lsr chunk_bits in
    if i = Array.length t.ctx_chunks then begin
      let dir = Array.make (2 * i) t.ctx_chunks.(0) in
      Array.blit t.ctx_chunks 0 dir 0 i;
      t.ctx_chunks <- dir
    end;
    t.ctx_chunks.(i) <- make_chunk chunk;
    t.ctx_cap <- cap + chunk
  end

let chunk_of t id = t.ctx_chunks.(id lsr chunk_bits)
let slot id = id land (chunk - 1)
let known t id = id > 0 && id <= t.ctx_n

let new_ctx t ?parent ?deadline ~origin () =
  let parent = match parent with Some p -> p | None -> t.cur in
  let id = t.ctx_n + 1 in
  if id >= t.ctx_cap then grow_ctx t;
  t.ctx_n <- id;
  let c = chunk_of t id and i = slot id in
  c.c_parent.(i) <- parent;
  c.c_root.(i) <-
    (if parent > 0 then (chunk_of t parent).c_root.(slot parent) else id);
  c.c_origin.(i) <- origin;
  (* A child can tighten its inherited deadline but never loosen it:
     the effective deadline is the min of the parent's and its own. *)
  let inherited =
    if parent > 0 then (chunk_of t parent).c_deadline.(slot parent) else 0
  in
  let own = match deadline with Some d -> d | None -> 0 in
  c.c_deadline.(i) <-
    (if inherited = 0 then own
     else if own = 0 then inherited
     else min inherited own);
  id

let current t = t.cur
let set_current t c = t.cur <- c
let ctx_count t = t.ctx_n

let ctx_parent t id =
  if known t id then (chunk_of t id).c_parent.(slot id) else 0

let ctx_root t id = if known t id then (chunk_of t id).c_root.(slot id) else 0

let ctx_origin t id =
  if known t id then (chunk_of t id).c_origin.(slot id) else ""

let ctx_deadline t id =
  if known t id then (chunk_of t id).c_deadline.(slot id) else 0

let ctx_expired t ~now id =
  let d = ctx_deadline t id in
  d > 0 && now > d

let rec ctx_chain t id =
  if known t id then id :: ctx_chain t (ctx_parent t id) else []

(* Directory slots past the last chunk repeat chunk 0; count it once. *)
let ctx_words t =
  let words = ref (Array.length t.ctx_chunks + 1) in
  for i = 0 to max 1 (t.ctx_cap / chunk) - 1 do
    let slots = Array.length t.ctx_chunks.(i).c_parent in
    words := !words + 5 + (4 * (slots + 1))
  done;
  !words

(* Counters --------------------------------------------------------- *)

let count t name =
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
    ~arg:ns

let add_latency t ~name ns =
  Histo.add (histo t ~name) ns;
  match Hashtbl.find_opt t.slo_tbl name with
  | Some s when ns > s.slo_threshold -> breach t s ns
  | _ -> ()

let span_begin t ?(tid = 0) ~cat ~name () =
  emit t ~phase:Trace_buf.Span_begin ~cat ~name ~tid ~id:0 ~arg:0;
  { sp_cat = cat; sp_name = name; sp_tid = tid; sp_t0 = t.clock () }

let span_end t ?histo:hname sp =
  emit t ~phase:Trace_buf.Span_end ~cat:sp.sp_cat ~name:sp.sp_name
    ~tid:sp.sp_tid ~id:0 ~arg:0;
  match hname with
  | Some name -> add_latency t ~name (t.clock () - sp.sp_t0)
  | None -> ()

let instant t ?(tid = 0) ?(arg = 0) ~cat ~name () =
  emit t ~phase:Trace_buf.Instant ~cat ~name ~tid ~id:0 ~arg

let async_begin t ?(tid = 0) ?(arg = 0) ~cat ~name ~id () =
  emit t ~phase:Trace_buf.Async_begin ~cat ~name ~tid ~id ~arg

let async_end t ?(tid = 0) ?(arg = 0) ~cat ~name ~id () =
  emit t ~phase:Trace_buf.Async_end ~cat ~name ~tid ~id ~arg

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

(* Decimal rendering straight into a buffer: the flight dump writes
   several numbers per event, and a string for each was about half of
   its host time.  Digits are peeled from the value made non-positive,
   a form every int has ([min_int] has no positive one). *)
let rec neg_width n = if n > -10 then 1 else 1 + neg_width (n / 10)

let int_width n = if n < 0 then 1 + neg_width n else neg_width (-n)

let rec add_neg b n =
  if n <= -10 then add_neg b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg b n
  end
  else add_neg b (-n)

(* The dump is appended straight into a buffer: the explorer renders
   one per schedule, and going through [Format] cost it more than a
   quarter of its host time. *)
let flight_dump t =
  let b = Buffer.create 1024 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let num n = add_int b n in
  let pad n = for _ = 1 to n do chr ' ' done in
  let rec chain first id =
    if known t id then begin
      if not first then str "<-";
      num id;
      chr ':';
      str (ctx_origin t id);
      chain false (ctx_parent t id)
    end
  in
  str "flight recorder: ";
  num (Trace_buf.length t.flight);
  str " events (";
  num (Trace_buf.dropped t.flight);
  str " overwritten)\n";
  Trace_buf.iter t.flight
    (fun { Trace_buf.ev_time; ev_phase; ev_cat; ev_name; ev_tid; ev_id;
           ev_arg; ev_ctx } ->
      (* time right-aligned in 12 columns, track left-aligned in 2 *)
      pad (12 - int_width ev_time);
      num ev_time;
      str " t";
      num ev_tid;
      pad (2 - int_width ev_tid);
      chr ' ';
      str (phase_code ev_phase);
      chr ' ';
      str ev_cat;
      chr ':';
      str ev_name;
      if ev_id <> 0 then (str " id="; num ev_id);
      if ev_arg <> 0 then (str " arg="; num ev_arg);
      if ev_ctx <> 0 then (str " ctx="; chain true ev_ctx);
      chr '\n');
  Buffer.contents b

let note_dump t = count t "flight.dump"

(* Per-user attribution --------------------------------------------- *)

let attribute t ~ctx ~cpu_ns ~ios =
  if known t ctx then begin
    let user = ctx_origin t (ctx_root t ctx) in
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
