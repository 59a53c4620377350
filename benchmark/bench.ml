(* The harness: set a workload up several times, measure one pass of
   it, check its outputs, and turn what it did into the end-to-end
   metrics (untraced) or the per-layer metrics (traced). *)

type workload = {
  name : string;
  per_second : float;
      (** operations a pass does per requested second: [--seconds S]
          sizes the pass at [S * per_second] operations, which took
          about S host seconds on the 2-core host this was written on *)
  loop_span : string;
      (** the span whose host time is the simulator's event loop *)
  prepare : n:int -> seed:int -> unit -> Round.t;
      (** set up for [n] operations; the result runs the measured pass *)
  setups : int;  (** set-ups per untraced run *)
  diagnostics : n:int -> seed:int -> (string * float * string) list;
      (** host-timed extras reported with the traced run *)
}

let no_diagnostics ~n:_ ~seed:_ = []

let workloads =
  [ { name = "utility"; per_second = 7_700.0; loop_span = "cluster.run";
      prepare = Utility.prepare; setups = 5; diagnostics = no_diagnostics };
    { name = "timesharing"; per_second = 2_300.0; loop_span = "hw.step";
      prepare = Timesharing.prepare; setups = 15; diagnostics = no_diagnostics };
    { name = "paging"; per_second = 1_080.0; loop_span = "hw.step";
      prepare = Paging.prepare; setups = 15; diagnostics = no_diagnostics };
    { name = "explore"; per_second = 1_800.0; loop_span = "kernel.run";
      prepare = Explore.prepare; setups = 63; diagnostics = Explore.diagnostics } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let size w ~seconds = max 1 (int_of_float (Float.round (w.per_second *. seconds)))

type result = {
  round : Round.t;  (** the measured pass *)
  setup_s : float list;
  phase : Phase.t;
  windows : float list;  (** throughput of each window of the pass *)
  problems : string list;
  metrics : (string * float * string) list;
}

(* The [q]-quantile of the samples, interpolating between neighbours. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let seconds ns = float_of_int ns /. 1e9

let timed_prepare w ~n ~seed =
  Gc.full_major ();
  let t0 = Trace.now_ns () in
  let pass = w.prepare ~n ~seed in
  (pass, seconds (Trace.now_ns () - t0))

(* Set up [times] times and keep the last set-up; the earlier ones are
   garbage before the next starts. *)
let set_up w ~n ~seed ~times =
  let rec go k acc =
    let pass, s = timed_prepare w ~n ~seed in
    if k <= 1 then (pass, List.rev (s :: acc)) else go (k - 1) (s :: acc)
  in
  go times []

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* A pass's throughput samples: one per window of marked progress;
   else, for a pass too short to window, its mean. *)
let throughput (r : Round.t) p =
  match Phase.window_rates p with
  | [] -> [ float_of_int r.Round.completed /. seconds p.Phase.host_ns ]
  | rates -> rates

(* Throughput over windows of equal work, with interference taken out.
   Other work on a shared host slows whole stretches of a run and never
   speeds one up, while the work itself changes only slowly along a
   pass (the explorer slows as the results it keeps grow).  So each
   window's undisturbed rate is the fastest among the windows within
   [reach] of it, and the throughput is the work over the windows'
   summed undisturbed times. *)
let undisturbed ?(reach = 12) rates =
  let a = Array.of_list rates in
  let n = Array.length a in
  let time = ref 0.0 in
  for i = 0 to n - 1 do
    let fastest = ref 0.0 in
    for j = max 0 (i - reach) to min (n - 1) (i + reach) do
      fastest := Float.max !fastest a.(j)
    done;
    time := !time +. (1.0 /. !fastest)
  done;
  float_of_int n /. !time

(* The untraced run: set-ups on both sides of one measured pass, which
   runs on the last set-up before it.

   On the 2-core host this was written on, other work slows whole
   stretches of a run by about 1.5 times, for seconds at a time.  Every
   set-up does the same work, so set-up time is the fastest set-up;
   taking them on both sides of the pass makes it less likely that one
   slow stretch covers them all.  Throughput is [undisturbed] over the
   pass's windows.  Memory is the heap's high-water mark over the whole
   run.  README.md has the spreads these choices were made from. *)
let run_untraced w ~n ~seed =
  let after = w.setups / 2 in
  let pass, before_s = set_up w ~n ~seed ~times:(w.setups - after) in
  let round = pass () in
  let phase = Phase.take () in
  let _, after_s = set_up w ~n ~seed ~times:after in
  let setup_s = before_s @ after_s in
  let windows = throughput round phase in
  let metrics =
    [ ("setup_s", List.fold_left Float.min infinity setup_s, "s");
      ("host_ops_per_s", undisturbed windows, "1/s");
      ("sim_latency_p50_ms", float_of_int (Round.percentile round 50) /. 1e6, "ms");
      ("sim_latency_p99_ms", float_of_int (Round.percentile round 99) /. 1e6, "ms");
      ("host_peak_heap_mb", mb (Gc.quick_stat ()).Gc.top_heap_words, "MB") ]
  in
  { round; setup_s; phase; windows; problems = round.Round.problems;
    metrics = Metrics.select Metrics.end_to_end metrics }

(* Two passes over the same inputs must agree on every simulated value.
   (The explorer reads per-layer counters only when tracing, since the
   reads would cost it time on every schedule; then only the rest is
   compared.) *)
let same_simulation (a : Round.t) (b : Round.t) =
  let a, b =
    if a.Round.layers = [] || b.Round.layers = [] then
      ({ a with Round.layers = [] }, { b with Round.layers = [] })
    else (a, b)
  in
  if Round.sim_string a = Round.sim_string b then []
  else [ "tracing changed the simulated results" ]

(* The traced run: one untraced pass for reference, then the same pass
   with spans on.  Per-layer host metrics come from the spans; the
   allocation metrics from the untraced pass, since spans allocate. *)
let run_traced w ~n ~seed =
  (* One set-up and pass; only what the pass produced outlives it, so
     the reference pass's kernels are garbage before the traced pass
     sets up its own. *)
  let one_pass () =
    let pass, setup = Trace.with_span "setup" (fun () -> timed_prepare w ~n ~seed) in
    let round = pass () in
    (round, Phase.take (), setup)
  in
  let ref_round, ref_phase, ref_setup = one_pass () in
  Trace.start ();
  let round, phase, setup = one_pass () in
  Trace.stop ();
  let spans = Trace.all () in
  let rows = Trace.table spans in
  let total = Trace.total_ns rows in
  let ops = float_of_int (max 1 round.Round.completed) in
  let events =
    match List.find_opt (fun (n, _, _) -> n = "hw.events_per_op") round.Round.layers with
    | Some (_, v, _) -> v *. ops
    | None -> 0.0
  in
  let calls name =
    match Trace.find_row rows name with Some r -> r.Trace.r_calls | None -> 0
  in
  let share name = 100.0 *. Kstats.ratio (total name) (total "explore.check_random") in
  let explorer_self =
    match Trace.find_row rows "explore.check_random" with
    | Some r -> 100.0 *. Kstats.ratio r.Trace.r_self_ns r.Trace.r_total_ns
    | None -> 0.0
  in
  let rate r p = undisturbed (throughput r p) in
  let host =
    [ ("hw.step_host_ns",
       (if events > 0.0 then float_of_int (total w.loop_span) /. events else 0.0),
       "ns");
      ("as.login_host_us",
       Kstats.ratio (total "as.login") (calls "as.login") /. 1e3, "us");
      ("cluster.run_host_s", seconds (total "cluster.run"), "s");
      ("cluster.register_host_s", seconds (total "cluster.register"), "s");
      ("check.boot_share", share "kernel.boot", "%");
      ("check.run_share", share "kernel.run", "%");
      ("check.oracle_share", share "oracle.check", "%");
      ("check.flight_dump_share", share "obs.flight_dump", "%");
      ("check.explorer_self_share", explorer_self, "%");
      ("gc.alloc_mb_per_op",
       ref_phase.Phase.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6
       /. float_of_int (max 1 ref_round.Round.completed),
       "MB");
      ("gc.major_per_kop",
       1e3 *. float_of_int ref_phase.Phase.major_collections
       /. float_of_int (max 1 ref_round.Round.completed),
       "count");
      ("trace.overhead_pct",
       100.0 *. ((rate ref_round ref_phase /. rate round phase) -. 1.0), "%");
      ("trace.attributed_pct", 100.0 *. Trace.attributed spans ~root:"measure", "%") ]
  in
  let diagnostics = w.diagnostics ~n ~seed in
  let problems = round.Round.problems @ same_simulation ref_round round in
  ( { round; setup_s = [ ref_setup; setup ]; phase; windows = throughput round phase;
      problems;
      metrics =
        Metrics.select Metrics.per_layer (round.Round.layers @ host @ diagnostics) },
    spans,
    rows )
