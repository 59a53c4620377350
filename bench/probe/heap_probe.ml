(* Where the live heap of the repository benchmark's [paging] pass sits.

     dune exec bench/probe/heap_probe.exe -- [SEED] [SECONDS]

   Runs the same pass as [benchmark/paging.ml] (its kernel, file fill,
   job stream and closing checks, at its operations per second), then,
   after a full major collection, splits the live words among the user
   process manager's finished-process records, the request-context
   store, and everything else.  Defaults: seed 1, 13 seconds. *)

module B = Multics_benchmark
module K = Multics_kernel

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let () =
  let arg i default =
    if Array.length Sys.argv > i then Sys.argv.(i) else default
  in
  let seed = int_of_string (arg 1 "1") in
  let seconds = float_of_string (arg 2 "13") in
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
