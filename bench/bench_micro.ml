(* Bechamel wall-clock micro-benchmarks of the simulator's hot paths.
   One Test.make per paper artifact (the table, the figures, and each
   performance experiment's inner loop), so the harness itself can be
   profiled.  The default bench run prints simulated-time tables; this
   measures the OCaml implementation. *)

module K = Multics_kernel
module L = Multics_legacy
module Dg = Multics_depgraph
module Hw = Multics_hw

let t1_census () =
  (* T1: apply the whole restructuring pipeline. *)
  let _final, summaries =
    Multics_census.Restructure.apply_all Multics_census.Inventory.base_1973
  in
  assert (List.length summaries = 6)

let figures () =
  (* F2-F4: build the three graphs and run the loop analysis. *)
  assert (not (Dg.Graph.is_loop_free (Dg.Figures.fig2_superficial ())));
  assert (not (Dg.Graph.is_loop_free (Dg.Figures.fig3_actual ())));
  assert (Dg.Graph.is_loop_free (Dg.Figures.fig4_redesign ()))

let translation_hit =
  (* The hardware hot path: one address translation that hits. *)
  let config = { Hw.Hw_config.legacy_multics with Hw.Hw_config.memory_frames = 32 } in
  let machine = Hw.Machine.create config in
  let mem = machine.Hw.Machine.mem in
  Hw.Ptw.write mem 100 (Hw.Ptw.in_core ~frame:10);
  Hw.Sdw.write_at mem 4
    (Hw.Sdw.make ~page_table:100 ~length:1 ~read:true ~write:true
       ~execute:true ~r1:7 ~r2:7 ~r3:7);
  let cpu = machine.Hw.Machine.cpus.(0) in
  Hw.Cpu.load_user_dbr cpu (Some { Hw.Cpu.base = 0; n_segments = 8 });
  let virt = Hw.Addr.of_page ~segno:2 ~pageno:0 ~offset:5 in
  fun () ->
    match Hw.Cpu.translate config mem cpu virt Hw.Fault.Read with
    | Ok _ -> ()
    | Error _ -> assert false

let eventcount_cycle () =
  (* The synchronisation primitive of the two-level design. *)
  let ec = Multics_sync.Eventcount.create () in
  let woken = ref 0 in
  for i = 1 to 8 do
    ignore
      (Multics_sync.Eventcount.await ec ~value:i ~notify:(fun () -> incr woken))
  done;
  for _ = 1 to 8 do
    Multics_sync.Eventcount.advance ec
  done;
  assert (!woken = 8)

let kernel_boot () =
  (* Boot Kernel/Multics from nothing. *)
  ignore (K.Kernel.boot K.Kernel.small_config)

let kernel_workload () =
  (* P4's inner loop: a writer process end to end on the new kernel. *)
  let k = Bench_util.boot_new ~config:K.Kernel.small_config () in
  ignore
    (K.Kernel.spawn k ~pname:"w"
       (Bench_util.file_writer ~dir:">home" ~name:"f" ~pages:6));
  assert (K.Kernel.run_to_completion k)

(* The fault path end to end: write a file bigger than the pageable
   core so its head pages are evicted to disk, then touch every page
   back in.  Each re-touch is a missing-page fault through
   [service_missing_page] (with sequential read-ahead prefetching
   alongside) — the path PR 7 converted to raw PTW bit probes. *)
let fault_path_readback () =
  let config =
    { K.Kernel.small_config with
      K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 34;
      core_frames = 24 }
  in
  let k = Bench_util.boot_new ~config () in
  ignore
    (K.Kernel.spawn k ~pname:"w"
       (Bench_util.file_writer ~dir:">home" ~name:"f" ~pages:16));
  assert (K.Kernel.run_to_completion k);
  let reread =
    Array.concat
      [ [| K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
        Array.init 16 (fun pageno ->
            K.Workload.Touch { seg_reg = 0; pageno; offset = 0; write = false });
        [| K.Workload.Terminate |] ]
  in
  ignore (K.Kernel.spawn k ~pname:"r" reread);
  assert (K.Kernel.run_to_completion k);
  (* The read-back really went through the fault path. *)
  assert (K.Page_frame.faults_served (K.Kernel.page_frame k) > 0);
  assert (K.Page_frame.page_reads (K.Kernel.page_frame k) > 0)

(* Request-context allocation: the per-request cost every gate entry,
   login and fault pays in every trace mode — a few array writes,
   amortized over the store's chunked growth.  The overload plane's
   deadlines and retry budgets ride on these contexts. *)
let ctx_alloc_on () =
  let sink = Multics_obs.Sink.create ~mode:Multics_obs.Sink.Counters
      ~now:(fun () -> 0) () in
  for _ = 1 to 1024 do
    ignore (Multics_obs.Sink.new_ctx sink ~origin:"req" ())
  done

let legacy_workload () =
  let s = Bench_util.boot_old ~config:L.Old_supervisor.small_config () in
  ignore
    (L.Old_supervisor.spawn s ~pname:"w"
       (Bench_util.file_writer ~dir:">home" ~name:"f" ~pages:6));
  assert (L.Old_supervisor.run_to_completion s)

(* Deterministic pseudorandom stream — no wall clock, so every run
   exercises identical sequences. *)
let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s

(* The event queue alone: fill with n pseudorandom times, drain to
   empty.  Exercises add and pop at every depth up to n — the time
   wheel's claim is that both stay flat where the old Map's path cost
   grew with log n. *)
let eq_fill_drain n () =
  let q = Hw.Event_queue.create () in
  let next = lcg 12345 in
  for _ = 1 to n do
    Hw.Event_queue.add q ~time:(next ()) (fun () -> ())
  done;
  let popped = ref 0 in
  let rec drain () =
    match Hw.Event_queue.pop q with
    | Some _ ->
        incr popped;
        drain ()
    | None -> ()
  in
  drain ();
  assert (!popped = n)

(* The I/O scheduler alone, driven by a private event pump: n reads
   submitted against one pack, sequential or random record pattern,
   pumped to completion.  Measures the queue discipline itself —
   sort, sweep, way choice, completion fan-out — with no kernel above
   it. *)
let io_sched_pattern ~random_pattern n () =
  let disk =
    Hw.Disk.create ~packs:1 ~records_per_pack:1024
      ~read_latency_ns:2_000_000
  in
  let q = Hw.Event_queue.create () in
  let clock = ref 0 in
  let io =
    Hw.Io_sched.create ~disk
      ~now:(fun () -> !clock)
      ~schedule:(fun ~delay fn -> Hw.Event_queue.add q ~time:(!clock + delay) fn)
      ()
  in
  let next = lcg 99 in
  let completed = ref 0 in
  for i = 0 to n - 1 do
    let record = if random_pattern then next () land 1023 else i land 1023 in
    Hw.Io_sched.submit_read io ~pack:0 ~record ~done_:(fun _ ->
        incr completed)
  done;
  let rec pump () =
    match Hw.Event_queue.pop q with
    | Some (t, fn) ->
        clock := t;
        fn ();
        pump ()
    | None -> ()
  in
  pump ();
  assert (!completed = n)

let tests =
  let open Bechamel in
  [ Test.make ~name:"T1: census apply_all" (Staged.stage t1_census);
    Test.make ~name:"F2-F4: figures + loop analysis" (Staged.stage figures);
    Test.make ~name:"hw: translation hit" (Staged.stage translation_hit);
    Test.make ~name:"sync: eventcount 8 waiters" (Staged.stage eventcount_cycle);
    Test.make ~name:"kernel: boot" (Staged.stage kernel_boot);
    Test.make ~name:"P4 inner: new-kernel writer" (Staged.stage kernel_workload);
    Test.make ~name:"pfm: fault+read-ahead readback"
      (Staged.stage fault_path_readback);
    Test.make ~name:"P4 inner: legacy writer" (Staged.stage legacy_workload);
    Test.make ~name:"obs: 1024 ctx allocs (counters)"
      (Staged.stage ctx_alloc_on);
    Test.make ~name:"eq: fill+drain 1e4" (Staged.stage (eq_fill_drain 10_000));
    Test.make ~name:"eq: fill+drain 1e5" (Staged.stage (eq_fill_drain 100_000));
    Test.make ~name:"eq: fill+drain 1e6"
      (Staged.stage (eq_fill_drain 1_000_000));
    Test.make ~name:"io: 256 sequential reads"
      (Staged.stage (io_sched_pattern ~random_pattern:false 256));
    Test.make ~name:"io: 256 random reads"
      (Staged.stage (io_sched_pattern ~random_pattern:true 256)) ]

(* BENCH_perf.json rows for the wall-clock numbers.  Unit "ns_wall",
   not "ns": simulated-time metrics are deterministic and gated against
   regressions; wall-clock ones move with the host and are recorded for
   trend-reading only.  Every wall-clock row's unit ends in "_wall",
   so scripts/perf_gate.sh and the CI determinism diff can tell them
   apart by unit alone. *)
let metric_slugs =
  [ ("multics T1: census apply_all", "census_apply_all");
    ("multics F2-F4: figures + loop analysis", "figures_loops");
    ("multics hw: translation hit", "translation_hit");
    ("multics sync: eventcount 8 waiters", "eventcount_cycle");
    ("multics kernel: boot", "kernel_boot");
    ("multics P4 inner: new-kernel writer", "kernel_writer");
    ("multics pfm: fault+read-ahead readback", "pfm_fault_readback");
    ("multics P4 inner: legacy writer", "legacy_writer");
    ("multics obs: 1024 ctx allocs (counters)", "ctx_alloc_on_1024");
    ("multics eq: fill+drain 1e4", "eq_fill_drain_1e4");
    ("multics eq: fill+drain 1e5", "eq_fill_drain_1e5");
    ("multics eq: fill+drain 1e6", "eq_fill_drain_1e6");
    ("multics io: 256 sequential reads", "io_sched_seq_256");
    ("multics io: 256 random reads", "io_sched_rand_256") ]

let run () =
  Bench_util.section "MICRO" "Bechamel wall-clock micro-benchmarks";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"multics" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] ->
          Format.printf "  %-40s %12.0f ns/run@." name ns;
          (match List.assoc_opt name metric_slugs with
          | Some slug ->
              Bench_util.record ~section:"micro" ~metric:slug
                ~unit:"ns_wall" ns
          | None -> ())
      | _ -> Format.printf "  %-40s %12s@." name "n/a")
    (List.sort compare rows)
