(* Host-time spans recorded from the benchmark's own code, around each
   call it makes into a layer of the simulator.

   Off (the default) a span is one branch and a closure call, so the
   untraced runs that produce the end-to-end numbers pay nothing else.
   On, spans are kept in memory — name, start, end, parent, op id and
   an event count — and turned into a per-layer table and a Chrome
   trace when the run ends.  Only the domain that runs the benchmark
   records: the one parallel run (the explorer at 2 domains) happens
   with tracing off. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] at the root *)
  mutable op : int;  (** the operation the span served, [-1] for none *)
  start_ns : int;
  mutable end_ns : int;
  mutable count : int;  (** events folded into an aggregate span *)
}

let on = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let stack : span list ref = ref []

(* Forget earlier spans and record from now on. *)
let start () =
  spans := [];
  n_spans := 0;
  stack := [];
  on := true

let stop () = on := false

(* A span serves its parent's operation unless told otherwise. *)
let open_span ?op name =
  let parent, op =
    match (!stack, op) with
    | s :: _, Some op -> (s.id, op)
    | s :: _, None -> (s.id, s.op)
    | [], op -> (-1, Option.value ~default:(-1) op)
  in
  let s =
    { id = !n_spans; name; parent; op; start_ns = now_ns (); end_ns = 0;
      count = 0 }
  in
  incr n_spans;
  spans := s :: !spans;
  stack := s :: !stack;
  s

(* Spans nest strictly: closing pops the innermost open span, which
   must be [s]. *)
let close_span s =
  s.end_ns <- now_ns ();
  match !stack with
  | top :: rest when top == s -> stack := rest
  | _ -> invalid_arg ("Trace.close_span: not innermost: " ^ s.name)

let with_span ?op name f =
  if not !on then f ()
  else begin
    let s = open_span ?op name in
    match f () with
    | v ->
        close_span s;
        v
    | exception e ->
        close_span s;
        raise e
  end

(* Event-loop aggregation: one span per completed operation covers all
   the [Machine.step] calls since the previous completion, with the
   number of events in [count], instead of one span per event (paging
   runs millions of events). *)
let agg : span option ref = ref None

let step_begin () =
  if !on then
    match !agg with
    | Some s -> s.count <- s.count + 1
    | None ->
        let s = open_span "hw.step" in
        s.count <- 1;
        agg := Some s

let step_close ~op =
  match !agg with
  | Some s when !on ->
      s.op <- op;
      close_span s;
      agg := None
  | _ -> ()

let all () = List.rev !spans

(* ------------------------------------------------------------------ *)
(* The per-layer table: total and self time per span name.  A span's
   self time is its duration minus the part its children cover. *)

type row = {
  r_name : string;
  r_calls : int;
  r_events : int;
  r_total_ns : int;
  r_self_ns : int;
}

let table spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.end_ns - s.start_ns in
        Hashtbl.replace child_ns s.parent
          (d + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      let self =
        d - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      match Hashtbl.find_opt rows s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name
            { r_name = s.name; r_calls = 1; r_events = s.count;
              r_total_ns = d; r_self_ns = self }
      | Some r ->
          Hashtbl.replace rows s.name
            { r with
              r_calls = r.r_calls + 1; r_events = r.r_events + s.count;
              r_total_ns = r.r_total_ns + d; r_self_ns = r.r_self_ns + self })
    spans;
  List.rev_map (Hashtbl.find rows) !order

let find_row rows name = List.find_opt (fun r -> r.r_name = name) rows

let total_ns rows name =
  match find_row rows name with Some r -> r.r_total_ns | None -> 0

(* Share of the root span [root]'s time that its direct children
   cover: how much of the measured phase the trace attributes to named
   layers rather than to the root's own glue. *)
let attributed spans ~root =
  match List.find_opt (fun s -> s.name = root) spans with
  | None -> 0.0
  | Some r ->
      let covered =
        List.fold_left
          (fun acc s ->
            if s.parent = r.id then acc + (s.end_ns - s.start_ns) else acc)
          0 spans
      in
      float_of_int covered /. float_of_int (max 1 (r.end_ns - r.start_ns))

let pp_table ppf ~root rows =
  let base = max 1 (total_ns rows root) in
  Format.fprintf ppf "%-22s %9s %10s %12s %12s %7s@." "span" "calls" "events"
    "total_ms" "self_ms" "self%";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %9d %10d %12.3f %12.3f %6.2f%%@." r.r_name
        r.r_calls r.r_events
        (float_of_int r.r_total_ns /. 1e6)
        (float_of_int r.r_self_ns /. 1e6)
        (100.0 *. float_of_int r.r_self_ns /. float_of_int base))
    rows

(* Chrome trace_event JSON: one complete ("X") event per span, in
   microseconds from the first span.  Spans of operations numbered
   [max_op] and above are left out of the file (they are all in the
   table) so a long run still loads in a viewer. *)
let chrome_json ?(max_op = 2_000) spans =
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun s ->
      if s.op < max_op then begin
        if not !first then Buffer.add_string b ",\n";
        first := false;
        Printf.bprintf b
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
           \"events\":%d}}"
          s.name
          (float_of_int (s.start_ns - t0) /. 1e3)
          (float_of_int (s.end_ns - s.start_ns) /. 1e3)
          s.id s.parent s.op s.count
      end)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
