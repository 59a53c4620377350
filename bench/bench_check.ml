(* C5: schedule exploration — the model-checking scheduler.

   Three claims, each FAILING the bench unless it holds:

     identity    a kernel with the recorded-default strategy (every
                 choice point consulted, none diverted) finishes with
                 the same clock and disk checksum as a kernel with no
                 strategy at all: the instrumentation is inert
     coverage    random and bounded-exhaustive search drive the toy
                 eventcount harness and a real ping-pong kernel through
                 many distinct schedules; the invariant oracle passes
                 on every one
     detection   the same search over the harness with the seeded
                 lost-wakeup bug finds a violating schedule, shrinks
                 it, and the minimal script replays to the same
                 violation

   Metrics (schedules/sec, states explored) land in
   BENCH_check_c5.json. *)

module K = Multics_kernel
module Check = Multics_check
module Choice = Multics_choice.Choice
module Par = Multics_par.Par

let sec = "C5"

let fail fmt = Printf.ksprintf failwith fmt

let workload_config =
  { K.Kernel.default_config with
    K.Kernel.hw =
      Multics_hw.Hw_config.with_frames Multics_hw.Hw_config.kernel_multics 64;
    core_frames = 24 }

let run_workload ~choice () =
  let k =
    Bench_util.boot_new
      ~config:{ workload_config with K.Kernel.choice } ()
  in
  List.iteri
    (fun i pages ->
      ignore
        (K.Kernel.spawn k
           ~pname:(Printf.sprintf "w%d" i)
           (Bench_util.file_writer ~dir:">home"
              ~name:(Printf.sprintf "f%d" i) ~pages)))
    [ 6; 10; 4 ];
  if not (K.Kernel.run_to_completion k) then
    fail "bench_check: workload did not complete";
  K.Kernel.shutdown k;
  (K.Kernel.now k, Bench_util.disk_checksum k)

let identity () =
  Format.printf "-- identity: recorded-default strategy vs none@.";
  let t_none, d_none = run_workload ~choice:None () in
  let recorder = Choice.record_default () in
  let t_rec, d_rec = run_workload ~choice:(Some recorder) () in
  Format.printf "  clock %d = %d, disk checksum %d = %d (%d decisions)@."
    t_none t_rec d_none d_rec (Choice.decisions recorder);
  if t_none <> t_rec then
    fail "bench_check: recording strategy moved the clock";
  if d_none <> d_rec then
    fail "bench_check: recording strategy changed the disk";
  if Choice.decisions recorder = 0 then
    fail "bench_check: workload exercised no choice points";
  Bench_util.recordi ~section:sec ~metric:"identity_decisions" ~unit:"count"
    (Choice.decisions recorder)

let stats_of = function
  | Check.Explore.Passed s -> s
  | Check.Explore.Failed { f_stats; _ } -> f_stats

let coverage () =
  Format.printf "-- coverage: every explored schedule passes the oracle@.";
  let toy = Check.Harness.eventcount_system ~events:3 () in
  let t0 = Sys.time () in
  let dfs = Check.Explore.check_dfs ~max_runs:400 toy in
  let toy_secs = Sys.time () -. t0 in
  (match dfs with
  | Check.Explore.Passed s ->
      Format.printf "  toy DFS: %a@." Check.Explore.pp_outcome dfs;
      if s.Check.Explore.distinct < 2 then
        fail "bench_check: exhaustive search found only one schedule";
      if s.Check.Explore.frontier_left <> 0 then
        fail "bench_check: toy schedule space did not close under the budget"
  | Check.Explore.Failed _ ->
      Format.printf "%a@." Check.Explore.pp_outcome dfs;
      fail "bench_check: correct harness failed the oracle");
  let toy_stats = stats_of dfs in
  Bench_util.recordi ~section:sec ~metric:"toy_dfs_states" ~unit:"count"
    toy_stats.Check.Explore.distinct;
  Bench_util.record ~section:sec ~metric:"toy_dfs_rate" ~unit:"schedules/s_wall"
    (float_of_int toy_stats.Check.Explore.runs /. Float.max 1e-6 toy_secs);
  let kernel_sys = Check.Harness.kernel_system () in
  let t0 = Sys.time () in
  let rnd = Check.Explore.check_random ~runs:12 kernel_sys in
  let krn_secs = Sys.time () -. t0 in
  (match rnd with
  | Check.Explore.Passed s ->
      Format.printf "  kernel random: %a@." Check.Explore.pp_outcome rnd;
      if s.Check.Explore.distinct < 2 then
        fail "bench_check: random strategy never diverged from default"
  | Check.Explore.Failed _ ->
      Format.printf "%a@." Check.Explore.pp_outcome rnd;
      fail "bench_check: kernel workload failed the oracle");
  let k_stats = stats_of rnd in
  Bench_util.recordi ~section:sec ~metric:"kernel_random_states" ~unit:"count"
    k_stats.Check.Explore.distinct;
  Bench_util.record ~section:sec ~metric:"kernel_random_rate"
    ~unit:"schedules/s_wall"
    (float_of_int k_stats.Check.Explore.runs /. Float.max 1e-6 krn_secs);
  Bench_util.recordi ~section:sec ~metric:"kernel_random_decisions"
    ~unit:"count" k_stats.Check.Explore.decisions

(* The domain run-farm: the same random search over the kernel
   harness at 1, 2 and 4 domains.  Two claims: the outcome (stats and
   all) is byte-identical whatever the domain count — the farm's
   determinism contract — and, given hardware to run on, wall-clock
   throughput scales.  The speedup assertion is gated on the host's
   core count so a single-core CI runner measures without failing. *)
let par_scaling () =
  Format.printf "-- par: domain farm, schedules/s at 1/2/4 domains@.";
  let kernel_sys = Check.Harness.kernel_system () in
  let runs = 24 in
  let outcome_bytes o = Format.asprintf "%a" Check.Explore.pp_outcome o in
  let measure domains =
    let t0 = Unix.gettimeofday () in
    let outcome = Check.Explore.check_random ~domains ~runs kernel_sys in
    let secs = Unix.gettimeofday () -. t0 in
    (match outcome with
    | Check.Explore.Passed _ -> ()
    | Check.Explore.Failed _ ->
        Format.printf "%a@." Check.Explore.pp_outcome outcome;
        fail "bench_check: kernel workload failed the oracle under the farm");
    (outcome, float_of_int runs /. Float.max 1e-6 secs)
  in
  let o1, rate1 = measure 1 in
  let o2, rate2 = measure 2 in
  let o4, rate4 = measure 4 in
  List.iter
    (fun (domains, o, rate) ->
      Format.printf "  domains=%d: %a — %.0f schedules/s@." domains
        Check.Explore.pp_outcome o rate;
      Bench_util.record ~section:sec
        ~metric:(Printf.sprintf "par_domains%d_rate" domains)
        ~unit:"schedules/s_wall" rate)
    [ (1, o1, rate1); (2, o2, rate2); (4, o4, rate4) ];
  if outcome_bytes o1 <> outcome_bytes o2 || outcome_bytes o1 <> outcome_bytes o4
  then fail "bench_check: outcome differs across domain counts";
  let speedup = rate4 /. Float.max 1e-6 rate1 in
  Format.printf "  speedup 4v1: %.2fx (host offers %d domains)@." speedup
    (Par.available ());
  Bench_util.record ~section:sec ~metric:"par_speedup_4v1_rate" ~unit:"x_wall"
    speedup;
  (* Scaling needs cores: demand the issue's 2x only where four
     domains can actually run in parallel, and any gain at all on a
     two-core host.  A single core measures identity only. *)
  if Par.available () >= 4 && speedup < 2.0 then
    fail "bench_check: 4-domain farm below 2x the single-domain rate";
  if Par.available () >= 2 && Par.available () < 4 && speedup < 1.2 then
    fail "bench_check: farm shows no speedup on a multicore host"

let detection () =
  Format.printf "-- detection: seeded lost-wakeup bug@.";
  let buggy = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  match Check.Explore.check_dfs ~max_runs:200 buggy with
  | Check.Explore.Passed _ ->
      fail "bench_check: exhaustive search missed the seeded bug"
  | Check.Explore.Failed { f_script; f_stats; _ } as outcome ->
      Format.printf "%a@." Check.Explore.pp_outcome outcome;
      if f_script = [] then
        fail "bench_check: counterexample shrank to the default schedule";
      let problems, _ = Check.Explore.replay buggy ~script:f_script in
      if problems = [] then
        fail "bench_check: minimal counterexample does not replay";
      Bench_util.recordi ~section:sec ~metric:"bug_counterexample_len"
        ~unit:"count" (List.length f_script);
      Bench_util.recordi ~section:sec ~metric:"bug_schedules_to_find"
        ~unit:"count" f_stats.Check.Explore.runs

let run () =
  Bench_util.section sec "schedule exploration: identity, coverage, detection";
  identity ();
  coverage ();
  par_scaling ();
  detection ();
  Bench_util.write_section_metrics ~section:sec ~path:"BENCH_check_c5.json";
  Format.printf "@.C5 ok.@."
