(* paging: one kernel whose files do not fit in memory.

   64 frames (24 for core segments, 40 pageable) against 8 files of 48
   pages.  Batch jobs arrive as a Poisson stream; half read a whole file
   in order, which is what read-ahead serves, and half make random
   touches, a quarter of them writes, which feed write-behind.  The I/O
   scheduler and the page frame manager dominate; there is almost no
   gate or directory work.

   The kinds alternate, and every [2 * files] jobs read each file once
   in order and touch each file once at random, each kind taking the
   files in a seeded order.  The seed also draws the touches; the
   arrival instants are one timetable for every seed (see
   [Openloop]). *)

module K = Multics_kernel
module Hw = Multics_hw

let files = 8
let file_pages = 48
let random_touches = 24
let write_pct = 25
let mean_gap_ns = 25_000_000.0
let low = Multics_aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let config =
  { K.Kernel.default_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    core_frames = 24 }

let file f = Printf.sprintf ">data>f%d" f

let job_program rng ~seq f =
  let kind, touches =
    if seq then
      ( "seq",
        List.init file_pages (fun pageno ->
            K.Workload.Touch { seg_reg = 0; pageno; offset = 0; write = false })
      )
    else
      ( "rand",
        List.init random_touches (fun _ ->
            let pageno = Random.State.int rng file_pages in
            let offset = Random.State.int rng Hw.Addr.page_size in
            let write = Random.State.int rng 100 < write_pct in
            K.Workload.Touch { seg_reg = 0; pageno; offset; write }) )
  in
  ( Printf.sprintf "%s:f%d" kind f,
    Array.of_list
      ((K.Workload.Initiate { path = file f; reg = 0 } :: touches)
      @ [ K.Workload.Terminate_seg { seg_reg = 0 }; K.Workload.Terminate ]) )

let prepare ~n ~seed =
  let k = Trace.with_span "kernel.boot" (fun () -> K.Kernel.boot config) in
  Trace.with_span "setup.files" (fun () ->
      K.Kernel.mkdir k ~path:">data" ~acl:open_acl ~label:low;
      for f = 0 to files - 1 do
        K.Kernel.create_file k ~path:(file f) ~acl:open_acl ~label:low;
        ignore
          (K.Kernel.spawn k ~pname:(Printf.sprintf "fill%d" f)
             (K.Workload.concat
                [ [| K.Workload.Initiate { path = file f; reg = 0 } |];
                  K.Workload.sequential_write ~seg_reg:0 ~pages:file_pages ]))
      done;
      if not (K.Kernel.run_to_completion k) then
        failwith "paging: the file fill did not complete";
      K.Kernel.checkpoint k);
  fun () ->
    let rng = Random.State.make [| seed; 0x9a61 |] in
    let timetable = Random.State.make [| 0x9a61 |] in
    let seq_order = Array.init files Fun.id and rand_order = Array.init files Fun.id in
    let before = Kstats.of_kernel k in
    let next i =
      if i mod (2 * files) = 0 then begin
        Openloop.shuffle rng seq_order;
        Openloop.shuffle rng rand_order
      end;
      let seq = i mod 2 = 0 in
      let f = (if seq then seq_order else rand_order).(i mod (2 * files) / 2) in
      let what, program = job_program rng ~seq f in
      { Openloop.gap_ns = Openloop.poisson_gap timetable mean_gap_ns;
        what;
        launch =
          (fun () -> Ok (K.Kernel.spawn k ~pname:(Printf.sprintf "job%d" i) program));
        finish = ignore }
    in
    let r =
      Phase.measure (fun () -> Openloop.run k ~n ~launch_span:"kernel.spawn" ~next)
    in
    let d = Kstats.diff ~before ~after:(Kstats.of_kernel k) in
    let problems = Checks.single_kernel k in
    Round.make ~attempted:r.Openloop.r_attempted
      ~completed:r.Openloop.r_completed ~failed:r.Openloop.r_failed
      ~lateness_ns:r.Openloop.r_lateness_ns ~latencies:r.Openloop.r_latencies
      ~arrivals:r.Openloop.r_arrivals ~problems
      ~layers:(Kstats.layers d ~ops:r.Openloop.r_completed)
      ~notes:(Kstats.bases d)
