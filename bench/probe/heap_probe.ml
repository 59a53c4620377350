(* Where the heap of the repository benchmark's passes goes.

     dune exec bench/probe/heap_probe.exe -- [SEED] [SECONDS]
     dune exec bench/probe/heap_probe.exe -- explore [SEED] [SECONDS] [CYCLES]

   The first form runs the same pass as [benchmark/paging.ml] (its
   kernel, file fill, job stream and closing checks, at its operations
   per second), then, after a full major collection, splits the live
   words among the user process manager's finished-process records, the
   request-context store, and everything else.  Defaults: seed 1, 13
   seconds.

   The second runs the [explore] workload's set-ups and measured pass
   as the benchmark's untraced run does (every set-up starts with a
   forced full collection, and so does the pass).  It prints the number
   of major collection cycles the set-ups took, then, at the end of each
   of the pass's first CYCLES cycles (default 40), the pass's operations
   so far and the heap's size and high-water mark.  The benchmark
   reports that high-water mark as [host_peak_heap_mb]. *)

module B = Multics_benchmark
module K = Multics_kernel

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let paging ~seed ~seconds =
  let n = B.Bench.size (Option.get (B.Bench.find "paging")) ~seconds in
  let base = live_words () in
  let k = K.Kernel.boot B.Paging.config in
  K.Kernel.mkdir k ~path:">data" ~acl:B.Paging.open_acl ~label:B.Paging.low;
  for f = 0 to B.Paging.files - 1 do
    K.Kernel.create_file k ~path:(B.Paging.file f) ~acl:B.Paging.open_acl
      ~label:B.Paging.low;
    ignore
      (K.Kernel.spawn k ~pname:(Printf.sprintf "fill%d" f)
         (K.Workload.concat
            [ [| K.Workload.Initiate { path = B.Paging.file f; reg = 0 } |];
              K.Workload.sequential_write ~seg_reg:0
                ~pages:B.Paging.file_pages ]))
  done;
  assert (K.Kernel.run_to_completion k);
  K.Kernel.checkpoint k;
  let rng = Random.State.make [| seed; 0x9a61 |] in
  let timetable = Random.State.make [| 0x9a61 |] in
  let files = B.Paging.files in
  let seq_order = Array.init files Fun.id and rand_order = Array.init files Fun.id in
  let next i =
    if i mod (2 * files) = 0 then begin
      B.Openloop.shuffle rng seq_order;
      B.Openloop.shuffle rng rand_order
    end;
    let seq = i mod 2 = 0 in
    let f = (if seq then seq_order else rand_order).(i mod (2 * files) / 2) in
    let what, program = B.Paging.job_program rng ~seq f in
    { B.Openloop.gap_ns = B.Openloop.poisson_gap timetable B.Paging.mean_gap_ns;
      what;
      launch =
        (fun () -> Ok (K.Kernel.spawn k ~pname:(Printf.sprintf "job%d" i) program));
      finish = ignore }
  in
  let r = B.Openloop.run k ~n ~launch_span:"kernel.spawn" ~next in
  (match B.Checks.single_kernel k with
  | [] -> ()
  | problems -> failwith (String.concat "; " problems));
  let live = live_words () - base in
  let procs = K.User_process.procs (K.Kernel.user_process k) in
  (* Less the list's own cells. *)
  let proc_words = Obj.reachable_words (Obj.repr procs) - (3 * List.length procs) in
  let obs = K.Kernel.obs k in
  let ctx_words = Multics_obs.Sink.ctx_words obs in
  Printf.printf "paging seed %d, %d jobs (%d completed), %d processes, %d contexts\n"
    seed n r.B.Openloop.r_completed (List.length procs)
    (Multics_obs.Sink.ctx_count obs);
  Printf.printf "  live heap          %8.1f MB\n" (mb live);
  Printf.printf "  process records    %8.1f MB  (%.0f bytes each)\n" (mb proc_words)
    (float_of_int (proc_words * (Sys.word_size / 8))
    /. float_of_int (List.length procs));
  Printf.printf "  context store      %8.1f MB\n" (mb ctx_words);
  Printf.printf "  everything else    %8.1f MB\n" (mb (live - proc_words - ctx_words))

let explore ~seed ~seconds ~cycles =
  let w = Option.get (B.Bench.find "explore") in
  let n = B.Bench.size w ~seconds in
  (* [Bench.run_untraced] runs the pass on the last of the set-ups
     before it; the set-ups after it cannot change the peak the pass
     reached. *)
  let before = w.B.Bench.setups - (w.B.Bench.setups / 2) in
  let in_pass = ref false and setup_cycles = ref 0 and pass_cycles = ref 0 in
  let peak = ref 0 and peak_at = ref (0, 0) in
  let row label ops =
    let g = Gc.quick_stat () in
    Printf.printf "%-14s  %8d  %9.2f  %9.2f\n%!" label ops (mb g.Gc.heap_words)
      (mb g.Gc.top_heap_words)
  in
  Printf.printf "explore seed %d, %d schedules, %d set-ups before the pass\n"
    seed n before;
  Printf.printf "%-14s  %8s  %9s  %9s\n" "major cycle" "ops" "heap MB"
    "peak MB";
  let alarm =
    Gc.create_alarm (fun () ->
        if not !in_pass then incr setup_cycles
        else begin
          incr pass_cycles;
          let top = (Gc.quick_stat ()).Gc.top_heap_words in
          if top > !peak then begin
            peak := top;
            peak_at := (!pass_cycles, !B.Phase.n_marks)
          end;
          if !pass_cycles <= cycles then
            row (Printf.sprintf "pass %d" !pass_cycles) !B.Phase.n_marks
        end)
  in
  let pass, _ = B.Bench.set_up w ~n ~seed ~times:before in
  row (Printf.sprintf "set-ups: %d" !setup_cycles) 0;
  in_pass := true;
  (* The pass's first cycles are its own forced collection, before it
     resets the count of operations: show them at 0. *)
  B.Phase.n_marks := 0;
  let round = pass () in
  Gc.delete_alarm alarm;
  Printf.printf
    "%d schedules completed over %d major cycles of the pass; peak heap %.2f MB, \
     first seen at the end of pass cycle %d (%d ops)\n"
    round.B.Round.completed !pass_cycles
    (mb (Gc.quick_stat ()).Gc.top_heap_words)
    (fst !peak_at) (snd !peak_at)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let arg l i default = try List.nth l i with _ -> default in
  match args with
  | "explore" :: rest ->
      explore ~seed:(int_of_string (arg rest 0 "1"))
        ~seconds:(float_of_string (arg rest 1 "13"))
        ~cycles:(int_of_string (arg rest 2 "40"))
  | rest ->
      paging ~seed:(int_of_string (arg rest 0 "1"))
        ~seconds:(float_of_string (arg rest 1 "13"))
