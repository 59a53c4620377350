(* explore: the schedule explorer over thousands of short-lived kernels.

   [Explore.check_random], in calls of [batch] seeds, runs random
   schedules of the benchmark's own variant of
   [Harness.kernel_system]: a small kernel, two processes
   that ping-pong through eventcounts, the invariant oracle at
   quiescence and the flight-recorder dump, with a span around each of
   those calls.  It is a closed loop at one domain: each
   schedule boots, runs and checks a fresh kernel before the next
   starts, so fixed per-boot costs dominate, unlike the three
   long-lived workloads.

   An operation is one schedule; its simulated latency is the kernel's
   clock at quiescence. *)

module K = Multics_kernel
module X = Multics_check.Explore

let n_procs = 2
let rounds = 3

(* The seeds of successive runs do not overlap: a run of [n] schedules
   with seed [s] explores seeds [(s - 1) * n + 1 ...]. *)
let first_seed ~n ~seed = ((seed - 1) * n) + 1

(* Schedules per [check_random] call.  [check_random] keeps every
   schedule's decision trace until it merges them at the end; in one
   call of 20,000 schedules the collector had ever more to mark and the
   rate fell by 40% along the pass, so the throughput depended on which
   part of that slope a slow stretch of the host hit.  In calls of this
   size the kept traces stay a few megabytes and the rate stays level. *)
let batch = 500

(* Unlike the library harness, whose every compute step costs 2,000 ns,
   the explorer picks each step's cost at a choice point of its own:
   2,000 ns plus 0 to 7 increments of a step-specific size.  Without
   that, most schedules end at one of a few simulated instants and the
   median latency would read the same for every seed; the distinct
   increments keep the sums of different picks apart.  Alternative 0
   everywhere is the library harness's schedule. *)
let compute_choices = Array.init 8 Fun.id
let increments_ns = [| 97; 131; 173; 211; 257; 307 |]

let compute_ns choice ~step =
  2_000
  + increments_ns.(step)
    * Multics_choice.Choice.pick choice ~domain:"bench.compute"
        ~ids:compute_choices

let pingpong_program choice ~proc ~me ~peer =
  Array.concat
    (List.init rounds (fun i ->
         [| K.Workload.Compute (compute_ns choice ~step:((proc * rounds) + i));
            K.Workload.Advance_ec { ec = peer };
            K.Workload.Await_ec { ec = me; value = i + 1 } |])
    @ [ [| K.Workload.Terminate |] ])

(* What the system records about the schedules it ran. *)
type record = {
  mutable ops : int;
  mutable makespans : int list;
  mutable stats : Kstats.t;  (** summed over schedules, traced runs only *)
}

let system rec_ =
  let flight = ref "" in
  let run choice =
    let op = rec_.ops in
    rec_.ops <- op + 1;
    Trace.with_span ~op "explore.schedule" (fun () ->
        let kernel =
          Trace.with_span "kernel.boot" (fun () ->
              K.Kernel.boot
                { K.Kernel.small_config with K.Kernel.choice = Some choice })
        in
        Trace.with_span "kernel.spawn" (fun () ->
            for i = 0 to n_procs - 1 do
              let me = Printf.sprintf "ec%d" i in
              let peer = Printf.sprintf "ec%d" ((i + 1) mod n_procs) in
              ignore
                (K.Kernel.spawn kernel ~pname:(Printf.sprintf "pp%d" i)
                   (pingpong_program choice ~proc:i ~me ~peer))
            done);
        ignore
          (Trace.with_span "kernel.run" (fun () ->
               K.Kernel.run_to_completion kernel));
        let problems =
          Trace.with_span "oracle.check" (fun () ->
              Multics_check.Oracle.check kernel)
        in
        flight :=
          Trace.with_span "obs.flight_dump" (fun () -> K.Kernel.flight_dump kernel);
        rec_.makespans <- K.Kernel.now kernel :: rec_.makespans;
        Phase.mark ();
        if !Trace.on then
          rec_.stats <- Kstats.add rec_.stats (Kstats.of_kernel kernel);
        problems)
  in
  { X.sys_name = "kernel-pingpong"; sys_run = run;
    sys_flight = Some (fun () -> !flight) }

(* Wall-clock speed-up of the same schedules farmed over 2 domains
   against 1, on a quarter of the runs; the base is the 1-domain time.
   A diagnostic only: on a 2-core host it varies by about 16% from run
   to run.  It uses the library harness, whose system keeps no state
   outside its kernels, since these spans are not domain-safe. *)
let diagnostics ~n ~seed =
  let sys = Multics_check.Harness.kernel_system () in
  let runs = max 1 (n / 4) in
  let seed = first_seed ~n ~seed in
  let time domains =
    let t0 = Trace.now_ns () in
    (match X.check_random ~domains ~runs ~seed sys with
    | X.Passed _ -> ()
    | X.Failed _ -> failwith "explore: a farmed schedule fails the oracle");
    Trace.now_ns () - t0
  in
  let one = time 1 in
  let two = time 2 in
  [ ("par.speedup_2v1", Kstats.ratio one two, "x") ]

let prepare ~n ~seed =
  let rec_ = { ops = 0; makespans = []; stats = Kstats.zero } in
  let sys = system rec_ in
  (* The default schedule once: the generalized choice path must agree
     with the stock kernel before any random schedule counts. *)
  (match Trace.with_span "explore.check_default" (fun () -> X.check_default sys) with
  | X.Passed _ -> ()
  | X.Failed _ -> failwith "explore: the default schedule fails the oracle");
  fun () ->
    rec_.ops <- 0;
    rec_.makespans <- [];
    rec_.stats <- Kstats.zero;
    let start = first_seed ~n ~seed in
    let outcomes =
      Phase.measure (fun () ->
          List.init ((n + batch - 1) / batch) (fun b ->
              let first = b * batch in
              let runs = min batch (n - first) in
              Trace.with_span "explore.check_random" (fun () ->
                  X.check_random ~domains:1 ~runs ~seed:(start + first) sys)))
    in
    (* Each failing call reports its lowest violating seed: one failed
       schedule. *)
    let distinct, failed, problems =
      List.fold_left
        (fun (distinct, failed, problems) outcome ->
          match outcome with
          | X.Passed st -> (distinct + st.X.distinct, failed, problems)
          | X.Failed { f_seed; f_problems; _ } ->
              ( distinct, failed + 1,
                problems
                @ Printf.sprintf "schedule seed %s fails the oracle"
                    (match f_seed with Some s -> string_of_int s | None -> "?")
                  :: f_problems ))
        (0, 0, []) outcomes
    in
    let layers = if !Trace.on then Kstats.layers rec_.stats ~ops:n else [] in
    Round.make ~attempted:n ~completed:(n - failed) ~failed
      ~lateness_ns:0 ~latencies:rec_.makespans
      ~arrivals:(Printf.sprintf "seeds %d..%d" start (start + n - 1))
      ~problems ~layers
      ~notes:
        [ ("explore.distinct",
           Printf.sprintf "%d distinct schedules of %d (within calls of %d)"
             distinct n batch) ]
