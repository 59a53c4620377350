(* timesharing: one kernel serving an interactive user community.

   256 users, each with a home directory, share an 8-page editor.
   Sessions arrive as a Poisson stream and each one logs in through the
   Answering Service, runs a short editing session and logs out.  The
   load is login-, gate-, directory- and name-space-heavy, the working
   set fits in memory, and every session creates and deletes a file.

   Homes are per user because [Directory.delete_entry] never reuses a
   directory slot: in one shared directory, lookups slow with every
   create, and somewhere between 4,000 and 8,000 creates the kernel
   raises [Segment.ptw_abs: page beyond table].

   The seed draws who arrives and what they read; the arrival instants
   are one timetable for every seed (see [Openloop]).  Sessions come in
   rounds of one per user, in a seeded order, so no user has two
   sessions at once, as a user at one terminal would not. *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw

let users = 256
let editor = ">lib>editor"
let editor_pages = 8
let mean_gap_ns = 600_000.0
let low = Multics_aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let user u = Printf.sprintf "u%03d" u
let home u = ">udd>" ^ user u

let session_program rng ~home ~file =
  let read () =
    K.Workload.Touch
      { seg_reg = 0; pageno = Random.State.int rng editor_pages;
        offset = Random.State.int rng Hw.Addr.page_size; write = false }
  in
  let path = home ^ ">" ^ file in
  let write pageno = K.Workload.Touch { seg_reg = 1; pageno; offset = 0; write = true } in
  [| K.Workload.Initiate { path = editor; reg = 0 }; read (); read (); read ();
     read (); K.Workload.Create_file { dir = home; name = file };
     K.Workload.Initiate { path; reg = 1 }; write 0; write 1;
     K.Workload.List_dir { path = home }; K.Workload.Compute 200_000;
     K.Workload.Terminate_seg { seg_reg = 1 }; K.Workload.Delete { path };
     K.Workload.Terminate |]

let prepare ~n ~seed =
  let k = Trace.with_span "kernel.boot" (fun () -> K.Kernel.boot K.Kernel.default_config) in
  Trace.with_span "setup.files" (fun () ->
      K.Kernel.mkdir k ~path:">udd" ~acl:open_acl ~label:low;
      for u = 0 to users - 1 do
        K.Kernel.mkdir k ~path:(home u)
          ~acl:[ K.Acl.entry (user u) K.Acl.rwe ]
          ~label:low
      done;
      K.Kernel.mkdir k ~path:">lib" ~acl:open_acl ~label:low;
      K.Kernel.create_file k ~path:editor ~acl:open_acl ~label:low;
      K.Kernel.load_program k ~path:editor
        (List.init (editor_pages * Hw.Addr.page_size) (fun i ->
             Hw.Word.of_int (i + 1))));
  let svc = S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split in
  Trace.with_span "as.register" (fun () ->
      for u = 0 to users - 1 do
        S.Answering_service.register_user svc ~user:(user u) ~password:"pw"
          ~clearance:low
      done);
  fun () ->
    let rng = Random.State.make [| seed; 0x7153 |] in
    let timetable = Random.State.make [| 0x7153 |] in
    let order = Array.init users Fun.id in
    let before = Kstats.of_kernel k in
    let next i =
      if i mod users = 0 then Openloop.shuffle rng order;
      let u = order.(i mod users) in
      let program =
        session_program rng ~home:(home u) ~file:(Printf.sprintf "s%d" i)
      in
      { Openloop.gap_ns = Openloop.poisson_gap timetable mean_gap_ns;
        what = user u;
        launch =
          (fun () ->
            match
              S.Answering_service.login svc ~user:(user u) ~password:"pw"
                ~program
            with
            | Ok pid -> Ok pid
            | Error (`Bad_password | `No_such_user | `Shed) -> Error "login");
        finish =
          (fun pid ->
            Trace.with_span ~op:i "as.logout" (fun () ->
                S.Answering_service.logout svc ~pid)) }
    in
    let r =
      Phase.measure (fun () -> Openloop.run k ~n ~launch_span:"as.login" ~next)
    in
    let d = Kstats.diff ~before ~after:(Kstats.of_kernel k) in
    let problems = Checks.single_kernel k in
    Round.make ~attempted:r.Openloop.r_attempted
      ~completed:r.Openloop.r_completed ~failed:r.Openloop.r_failed
      ~lateness_ns:r.Openloop.r_lateness_ns ~latencies:r.Openloop.r_latencies
      ~arrivals:r.Openloop.r_arrivals ~problems
      ~layers:(Kstats.layers d ~ops:r.Openloop.r_completed)
      ~notes:(Kstats.bases d)
