(* P1-P5, S2, S3, S5: the performance paragraphs of the paper, as
   head-to-head experiments between the legacy supervisor and
   Kernel/Multics on shared workloads. *)

module K = Multics_kernel
module L = Multics_legacy
module S = Multics_services
module Hw = Multics_hw
module Aim = Multics_aim

let user_subject =
  { K.Directory.s_principal = { K.Acl.user = "user"; project = "proj" };
    s_label = Bench_util.low; s_trusted = false }

(* ------------------------------------------------------------------ *)
(* P1: the dynamic linker, in and out of the kernel. *)

let setup_link_tree k =
  K.Kernel.mkdir k ~path:">lib" ~acl:Bench_util.open_acl ~label:Bench_util.low;
  K.Kernel.mkdir k ~path:">lib>std" ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  for i = 0 to 19 do
    K.Kernel.create_file k
      ~path:(Printf.sprintf ">lib>std>routine_%d_" i)
      ~acl:Bench_util.open_acl ~label:Bench_util.low
  done

let perf_linker () =
  Bench_util.section "P1"
    "Dynamic linker: in-kernel vs user-ring (paper p.35-36)";
  let rules = [ ">home"; ">lib>std" ] in
  let time placement =
    (* Pathname caching is the paper's anticipated cure for this very
       penalty (measured in C1); here we measure the disease. *)
    let k =
      Bench_util.boot_new
        ~config:{ K.Kernel.default_config with K.Kernel.use_path_cache = false }
        ()
    in
    setup_link_tree k;
    let linker = S.Linker.create ~kernel:k ~placement in
    let before = K.Meter.total (K.Kernel.meter k) in
    for i = 0 to 19 do
      match
        S.Linker.resolve linker ~subject:user_subject ~ring:5
          ~symbol:(Printf.sprintf "routine_%d_" i)
          ~search_rules:rules
      with
      | Ok _ -> ()
      | Error `Unresolved -> failwith "bench: symbol must resolve"
    done;
    ((K.Meter.total (K.Kernel.meter k) - before) / 20,
     S.Linker.gate_crossings linker)
  in
  let in_kernel, _ = time S.Linker.In_kernel in
  let user_ring, crossings = time S.Linker.User_ring in
  Bench_util.recordi ~section:"P1" ~metric:"link_ns_in_kernel" in_kernel;
  Bench_util.recordi ~section:"P1" ~metric:"link_ns_user_ring" user_ring;
  Bench_util.row2 "per link resolved" (Bench_util.fmt_us in_kernel)
    (Bench_util.fmt_us user_ring);
  Bench_util.row2 "" "(in kernel)" "(user ring)";
  Format.printf
    "  user-ring linking is %.0f%% slower (%d gate crossings for 20 links)@."
    (Bench_util.pct_delta in_kernel user_ring)
    crossings;
  Format.printf
    "  paper: \"the dynamic linker ran somewhat slower when removed from \
     the kernel [causes] well understood and curable\"@.";
  Format.printf
    "  (the cure: the user-ring name manager's pathname cache — section C1 \
     — which skips the search gate crossings; it is off here)@.";
  Format.printf
    "  size effect (census): removing it saves 2K source lines, 2.5%% of \
     kernel entries, 11%% of user entries@."

(* ------------------------------------------------------------------ *)
(* P2: the name manager. *)

let perf_name_manager () =
  Bench_util.section "P2"
    "Name manager: in-kernel resolution vs user-ring loop (paper p.36)";
  let deep_path = ">home>a>b>c>leaf" in
  (* Legacy: the whole walk inside ring 0, carrying the big in-kernel
     algorithm. *)
  let s = Bench_util.boot_old () in
  L.Old_supervisor.mkdir s ~path:">home>a" ~acl:Bench_util.open_acl;
  L.Old_supervisor.mkdir s ~path:">home>a>b" ~acl:Bench_util.open_acl;
  L.Old_supervisor.mkdir s ~path:">home>a>b>c" ~acl:Bench_util.open_acl;
  L.Old_supervisor.create_file s ~path:deep_path ~acl:Bench_util.open_acl;
  let st = L.Old_supervisor.state s in
  let before = K.Meter.total (L.Old_supervisor.meter s) in
  for _ = 1 to 50 do
    match
      L.Old_directory.resolve st
        ~principal:{ K.Acl.user = "user"; project = "proj" }
        ~path:deep_path
    with
    | Ok _ -> ()
    | Error _ -> failwith "bench: legacy resolve"
  done;
  let legacy_per = (K.Meter.total (L.Old_supervisor.meter s) - before) / 50 in
  (* New: the user-ring name manager over the search primitive.  The
     pathname cache stays off — the paper compares the algorithms, and
     the cache's own effect is section C1. *)
  let k =
    Bench_util.boot_new
      ~config:{ K.Kernel.default_config with K.Kernel.use_path_cache = false }
      ()
  in
  K.Kernel.mkdir k ~path:">home>a" ~acl:Bench_util.open_acl ~label:Bench_util.low;
  K.Kernel.mkdir k ~path:">home>a>b" ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  K.Kernel.mkdir k ~path:">home>a>b>c" ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  K.Kernel.create_file k ~path:deep_path ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  let before = K.Meter.total (K.Kernel.meter k) in
  for _ = 1 to 50 do
    match
      K.Name_space.initiate (K.Kernel.name_space k) ~subject:user_subject
        ~ring:5 ~path:deep_path
    with
    | Ok _ -> ()
    | Error _ -> failwith "bench: new resolve"
  done;
  let new_per = (K.Meter.total (K.Kernel.meter k) - before) / 50 in
  Bench_util.recordi ~section:"P2" ~metric:"resolve_ns_legacy" legacy_per;
  Bench_util.recordi ~section:"P2" ~metric:"resolve_ns_new" new_per;
  Bench_util.row2 "per 5-component resolution" (Bench_util.fmt_us legacy_per)
    (Bench_util.fmt_us new_per);
  Bench_util.row2 "" "(old, in kernel)" "(new, user ring)";
  Format.printf "  the extracted name manager runs %.0f%% faster@."
    (-.Bench_util.pct_delta legacy_per new_per);
  (match Multics_census.Restructure.user_domain_algorithm_sizes with
  | [ (_, big, small) ] ->
      Format.printf
        "  and the algorithm shrank by a factor of %d (%d -> %d lines) once \
         outside the kernel@."
        (big / small) big small
  | _ -> ());
  Format.printf "  paper: \"the name space manager ran somewhat faster\"@."

(* ------------------------------------------------------------------ *)
(* P3: the Answering Service. *)

let perf_answering () =
  Bench_util.section "P3" "Answering Service: monolithic vs split (p.36)";
  let idle = [| K.Workload.Compute 1_000; K.Workload.Terminate |] in
  let time variant =
    let k = Bench_util.boot_new () in
    let svc = S.Answering_service.create ~kernel:k ~variant in
    S.Answering_service.register_user svc ~user:"alice" ~password:"pw"
      ~clearance:Bench_util.low;
    let before = K.Meter.total (K.Kernel.meter k) in
    for _ = 1 to 25 do
      (match
         S.Answering_service.login svc ~user:"alice" ~password:"pw"
           ~program:idle
       with
      | Ok pid ->
          ignore (K.Kernel.run_to_completion k);
          S.Answering_service.logout svc ~pid
      | Error _ -> failwith "bench: login");
      ()
    done;
    (K.Meter.total (K.Kernel.meter k) - before) / 25
  in
  let mono = time S.Answering_service.Monolithic in
  let split = time S.Answering_service.Split in
  Bench_util.recordi ~section:"P3" ~metric:"login_ns_monolithic" mono;
  Bench_util.recordi ~section:"P3" ~metric:"login_ns_split" split;
  Bench_util.row2 "per login session" (Bench_util.fmt_us mono)
    (Bench_util.fmt_us split);
  Bench_util.row2 "" "(monolithic)" "(split)";
  Format.printf
    "  split service is %.1f%% slower; trusted code shrinks 10,000 -> 900 \
     lines@."
    (Bench_util.pct_delta mono split);
  Format.printf
    "  paper: \"the revised Answering Service, in its preliminary \
     implementation, ran about 3%% slower\"@."

(* ------------------------------------------------------------------ *)
(* P4: the memory manager, at several memory sizes. *)

let manager_ns meter name =
  match List.assoc_opt name (K.Meter.by_manager meter) with
  | Some ns -> ns
  | None -> 0

(* Kernel time attributable to the memory path: everything except the
   cleaning daemon's overlapped I/O time and process-exchange work. *)
let memory_path_ns meter exclude =
  K.Meter.total meter - List.fold_left (fun acc m -> acc + manager_ns meter m) 0 exclude

let perf_memory () =
  Bench_util.section "P4"
    "Memory management: old (assembly, at fault time) vs new (PL/I, \
     dedicated processes) (p.36-37)";
  let pages = 14 in
  let touches = 300 in
  let writer seed =
    Bench_util.file_writer ~dir:">home" ~name:(Printf.sprintf "ws%d" seed)
      ~pages
  in
  (* Phase 2 is a single process over BOTH working sets: no context
     switching, no second state segment — only the memory path. *)
  let toucher =
    let prng = K.Workload.Prng.create ~seed:41 in
    let body =
      Array.init touches (fun _ ->
          K.Workload.Touch
            { seg_reg = K.Workload.Prng.int prng 2;
              pageno = K.Workload.Prng.int prng pages;
              offset = K.Workload.Prng.int prng 1024;
              write = K.Workload.Prng.pct prng 40 })
    in
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>ws1"; reg = 0 };
           K.Workload.Initiate { path = ">home>ws2"; reg = 1 } |];
        body ]
  in
  Format.printf "  %-14s %16s %16s %16s %16s@." "memory" "old: /fault"
    "new: /fault" "old: elapsed" "new: elapsed";
  (* Per-fault cost ratios (new / old), at the sizes where both kernels
     fault often enough for the column to measure the fault path. *)
  let ratios = ref [] in
  List.iter
    (fun frames ->
      (* Legacy: build the files first (unmeasured), then measure the
         touch phase, where kernel work is the fault path. *)
      let s =
        Bench_util.boot_old
          ~config:
            { L.Old_supervisor.default_config with
              L.Old_supervisor.hw =
                Hw.Hw_config.with_frames Hw.Hw_config.legacy_multics frames;
              reserved_frames = 24;
              (* long quanta: keep scheduling out of the memory numbers *)
              quantum = 1000 }
          ()
      in
      ignore (L.Old_supervisor.spawn s ~pname:"w1" (writer 1));
      ignore (L.Old_supervisor.spawn s ~pname:"w2" (writer 2));
      assert (L.Old_supervisor.run_to_completion s);
      let stats = L.Old_supervisor.stats s in
      let faults0 = stats.L.Old_types.st_faults in
      let kernel0 =
        memory_path_ns (L.Old_supervisor.meter s) [ "process_control" ]
      in
      let t0 = L.Old_supervisor.now s in
      ignore (L.Old_supervisor.spawn s ~pname:"t1" toucher);
      assert (L.Old_supervisor.run_to_completion s);
      let old_faults = stats.L.Old_types.st_faults - faults0 in
      let old_kernel =
        memory_path_ns (L.Old_supervisor.meter s) [ "process_control" ]
        - kernel0
      in
      let old_reads = stats.L.Old_types.st_page_reads in
      let old_elapsed = L.Old_supervisor.now s - t0 in
      (* New kernel, same phases. *)
      let k =
        Bench_util.boot_new
          ~config:
            { K.Kernel.default_config with
              K.Kernel.hw =
                Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics frames;
              core_frames = 24;
              scheduler = K.Scheduler.Round_robin { quantum = 1000 } }
          ()
      in
      ignore (K.Kernel.spawn k ~pname:"w1" (writer 1));
      ignore (K.Kernel.spawn k ~pname:"w2" (writer 2));
      assert (K.Kernel.run_to_completion k);
      let nfaults0 =
        K.Page_frame.faults_served (K.Kernel.page_frame k)
        + K.Segment.grows (K.Kernel.segment k)
      in
      let nkernel0 =
        memory_path_ns (K.Kernel.meter k)
          [ "page_cleaner_daemon"; K.Registry.user_process_manager ]
      in
      let t0 = K.Kernel.now k in
      ignore (K.Kernel.spawn k ~pname:"t1" toucher);
      assert (K.Kernel.run_to_completion k);
      let new_faults =
        K.Page_frame.faults_served (K.Kernel.page_frame k)
        + K.Segment.grows (K.Kernel.segment k)
        - nfaults0
      in
      let new_kernel =
        memory_path_ns (K.Kernel.meter k)
          [ "page_cleaner_daemon"; K.Registry.user_process_manager ]
        - nkernel0
      in
      let new_reads = K.Page_frame.page_reads (K.Kernel.page_frame k) in
      let new_elapsed = K.Kernel.now k - t0 in
      Bench_util.recordi ~section:"P4"
        ~metric:(Printf.sprintf "touch_elapsed_ns_old_%df" frames)
        old_elapsed;
      Bench_util.recordi ~section:"P4"
        ~metric:(Printf.sprintf "touch_elapsed_ns_new_%df" frames)
        new_elapsed;
      (* Fewer than a handful of faults means the column would measure
         process setup, not the fault path. *)
      let per f n =
        if f < 10 then "-"
        else Printf.sprintf "%.1f us" (Bench_util.us (n / f))
      in
      if old_faults >= 10 && new_faults >= 10 then begin
        let ratio =
          float_of_int (new_kernel / new_faults)
          /. float_of_int (old_kernel / old_faults)
        in
        Bench_util.record ~section:"P4"
          ~metric:(Printf.sprintf "per_fault_ratio_%df" frames)
          ~unit:"x" ratio;
        ratios := (frames, ratio) :: !ratios
      end;
      Format.printf
        "  %4d frames   %16s %16s %13.0f us %13.0f us  (reads %d/%d)@."
        frames
        (per old_faults old_kernel) (per new_faults new_kernel)
        (Bench_util.us old_elapsed) (Bench_util.us new_elapsed)
        old_reads new_reads)
    [ 96; 56; 48; 44 ];
  (* The paper's claim: recoding in PL/I costs "a factor of two in the
     speed of the code".  The band runs from that factor up to twice
     it; the process structure's own work sits on top of the factor. *)
  let lo = K.Cost.factor K.Cost.Pl1 in
  let hi = 2.0 *. lo in
  let ratios = List.rev !ratios in
  if ratios = [] then failwith "bench_perf: P4 measured no per-fault ratio";
  List.iter
    (fun (frames, ratio) ->
      if ratio < lo || ratio > hi then
        failwith
          (Printf.sprintf
             "bench_perf: P4 per-fault ratio %.1fx at %d frames lies outside \
              [%.1fx, %.1fx]"
             ratio frames lo hi))
    ratios;
  Format.printf
    "@.  shape check: new/old kernel time per fault is %s (where both \
     kernels take at least 10 faults), inside [%.1fx, %.1fx]: at least the \
     paper's PL/I \"factor of two\", at most twice it.@."
    (String.concat " and "
       (List.map
          (fun (frames, r) -> Printf.sprintf "%.1fx at %d frames" r frames)
          ratios))
    lo hi

(* ------------------------------------------------------------------ *)
(* P5: one-level vs two-level scheduling. *)

let perf_scheduler () =
  Bench_util.section "P5"
    "Processor multiplexing: one-level vs two-level scheduler (p.36)";
  (* A compute-dominated mix isolates the multiplexing machinery; the
     memory manager's deliberate PL/I costs are measured in P4.  Long
     programs amortise process creation so the comparison sees the
     steady-state scheduling overhead. *)
  let mix spawn =
    for i = 1 to 8 do
      spawn (Printf.sprintf "cpu%d" i)
        (K.Workload.compute_bound ~steps:150 ~step_ns:3_000)
    done;
    for i = 1 to 2 do
      spawn
        (Printf.sprintf "io%d" i)
        (Bench_util.file_writer ~dir:">home" ~name:(Printf.sprintf "io%d" i)
           ~pages:2)
    done
  in
  let s = Bench_util.boot_old () in
  mix (fun pname program -> ignore (L.Old_supervisor.spawn s ~pname program));
  assert (L.Old_supervisor.run_to_completion s);
  let old_elapsed = L.Old_supervisor.now s in
  let old_switches = (L.Old_supervisor.stats s).L.Old_types.st_switches in
  let k = Bench_util.boot_new () in
  mix (fun pname program -> ignore (K.Kernel.spawn k ~pname program));
  assert (K.Kernel.run_to_completion k);
  let new_elapsed = K.Kernel.now k in
  let new_switches = K.Vp.context_switches (K.Kernel.vp k) in
  Bench_util.recordi ~section:"P5" ~metric:"mix_elapsed_ns_one_level"
    old_elapsed;
  Bench_util.recordi ~section:"P5" ~metric:"mix_elapsed_ns_two_level"
    new_elapsed;
  Bench_util.row2 "elapsed (10-process mix)"
    (Bench_util.fmt_us old_elapsed) (Bench_util.fmt_us new_elapsed);
  Bench_util.row2 "context switches" (string_of_int old_switches)
    (string_of_int new_switches);
  Bench_util.row2 "" "(one-level)" "(two-level)";
  Format.printf
    "  two-level elapsed %.0f%% over one-level.  Paper: \"we are confident \
     that the combination of the layers will have a performance about the \
     same as the current system.  However, this claim is only \
     speculative\" — the residual here is the level-2 exchange writing \
     process states through the virtual memory.@."
    (Float.abs (Bench_util.pct_delta old_elapsed new_elapsed))

(* ------------------------------------------------------------------ *)
(* S2: quota — static cells vs dynamic upward search, by depth. *)

let perf_quota () =
  Bench_util.section "S2"
    "Quota: static cells vs dynamic upward search (paper pp. 14, 21-22)";
  Format.printf "  %-8s %22s %26s@." "depth" "old: levels walked"
    "kernel ns per page grown";
  Format.printf "  %-8s %22s %13s %12s@." "" "" "(old)" "(new)";
  List.iter
    (fun depth ->
      (* Build a chain of directories [depth] deep in both systems and
         grow the same file page by page, measuring only the grow
         path. *)
      let path = Buffer.create 32 in
      Buffer.add_string path ">home";
      let s = Bench_util.boot_old () in
      let k = Bench_util.boot_new () in
      for i = 1 to depth do
        Buffer.add_string path (Printf.sprintf ">d%d" i);
        L.Old_supervisor.mkdir s ~path:(Buffer.contents path)
          ~acl:Bench_util.open_acl;
        K.Kernel.mkdir k ~path:(Buffer.contents path)
          ~acl:Bench_util.open_acl ~label:Bench_util.low
      done;
      let dir = Buffer.contents path in
      let file = dir ^ ">f" in
      (* Old: activate and grow via the kernel-touch path (each first
         touch performs the upward search). *)
      L.Old_supervisor.create_file s ~path:file ~acl:Bench_util.open_acl;
      let st = L.Old_supervisor.state s in
      let de =
        match
          L.Old_directory.resolve st
            ~principal:{ K.Acl.user = "root"; project = "sys" } ~path:file
        with
        | Ok (de, _) -> de
        | Error _ -> failwith "bench: old resolve"
      in
      let before_lv = st.L.Old_types.stats.L.Old_types.st_quota_search_levels in
      let before_n = st.L.Old_types.stats.L.Old_types.st_quota_searches in
      let before_old = K.Meter.total (L.Old_supervisor.meter s) in
      for pageno = 0 to 7 do
        match
          L.Old_storage.kernel_touch_sync st ~uid:de.L.Old_types.od_uid
            ~pageno ~write:true
        with
        | Ok () -> ()
        | Error msg -> failwith ("bench: old grow: " ^ msg)
      done;
      let old_ns = (K.Meter.total (L.Old_supervisor.meter s) - before_old) / 8 in
      let levels =
        st.L.Old_types.stats.L.Old_types.st_quota_search_levels - before_lv
      in
      let searches =
        max 1 (st.L.Old_types.stats.L.Old_types.st_quota_searches - before_n)
      in
      (* New: activate with the statically bound cell, then grow. *)
      K.Kernel.create_file k ~path:file ~acl:Bench_util.open_acl
        ~label:Bench_util.low;
      let target =
        match
          K.Name_space.initiate (K.Kernel.name_space k)
            ~subject:K.Kernel.root_subject ~ring:1 ~path:file
        with
        | Ok target -> target
        | Error _ -> failwith "bench: new resolve"
      in
      let sm = K.Kernel.segment k in
      let slot =
        match
          K.Segment.activate sm ~caller:"bench" ~uid:target.K.Directory.t_uid
            ~cell:target.K.Directory.t_cell
        with
        | Ok slot -> slot
        | Error _ -> failwith "bench: new activate"
      in
      let before_new = K.Meter.total (K.Kernel.meter k) in
      for pageno = 0 to 7 do
        match K.Segment.grow sm ~caller:"bench" ~slot ~pageno with
        | Ok () -> ()
        | Error _ -> failwith "bench: new grow"
      done;
      let new_ns = (K.Meter.total (K.Kernel.meter k) - before_new) / 8 in
      Format.printf "  %-8d %15.1f / grow %13d %12d@." depth
        (float_of_int levels /. float_of_int searches)
        old_ns new_ns)
    [ 1; 2; 4; 6 ];
  Format.printf
    "@.  the old search walks further as the file sits deeper; the \
     statically bound cell is flat.  The semantic price: quota \
     directories may change status only while childless.@."

(* ------------------------------------------------------------------ *)
(* S3: the descriptor lock bit vs interpretive retranslation. *)

let perf_lock_bit () =
  Bench_util.section "S3"
    "Ablation: descriptor lock bit vs interpretive retranslation (pp. 13, \
     19-20)";
  let prog seed pages =
    K.Workload.concat
      [ Bench_util.file_writer ~dir:">home"
          ~name:(Printf.sprintf "f%d" seed) ~pages;
        K.Workload.random_touches ~seg_reg:0 ~pages ~count:150 ~write_pct:40
          ~seed ]
  in
  (* Legacy hardware: no lock bit; races pay the retranslation. *)
  let s =
    Bench_util.boot_old
      ~config:
        { L.Old_supervisor.default_config with
          L.Old_supervisor.hw =
            Hw.Hw_config.with_frames Hw.Hw_config.legacy_multics 40;
          reserved_frames = 24 }
      ()
  in
  ignore (L.Old_supervisor.spawn s ~pname:"a" (prog 1 12));
  ignore (L.Old_supervisor.spawn s ~pname:"b" (prog 2 12));
  assert (L.Old_supervisor.run_to_completion s);
  let stats = L.Old_supervisor.stats s in
  Format.printf
    "  old hardware: %d faults, %d lock contentions, %d interpretive \
     retranslations (%.1f us wasted)@."
    (stats.L.Old_types.st_faults + stats.L.Old_types.st_page_reads)
    stats.L.Old_types.st_lock_contentions stats.L.Old_types.st_retranslations
    (Bench_util.us
       (stats.L.Old_types.st_retranslations
       * (K.Cost.lock_spin + K.Cost.retranslation)));
  (* New hardware: the lock bit turns the race into a clean wait. *)
  let k =
    Bench_util.boot_new
      ~config:
        { K.Kernel.default_config with
          K.Kernel.hw =
            Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 40;
          core_frames = 24 }
      ()
  in
  ignore (K.Kernel.spawn k ~pname:"a" (prog 1 12));
  ignore (K.Kernel.spawn k ~pname:"b" (prog 2 12));
  assert (K.Kernel.run_to_completion k);
  Format.printf
    "  new hardware: %d faults, 0 retranslations — raced processors take a \
     locked-descriptor fault and wait on the transit eventcount; %d \
     wakeup-waiting saves@."
    (K.Page_frame.faults_served (K.Kernel.page_frame k))
    (K.Vp.wakeup_waiting_saves (K.Kernel.vp k));
  Format.printf
    "  paper: the retranslation \"requires page control to know the format \
     of and depend upon the correctness of\" higher modules' tables — the \
     lock bit removes the dependency as well as the cost.@."

(* ------------------------------------------------------------------ *)
(* S5: the quota confinement channel. *)

let perf_confinement () =
  Bench_util.section "S5" "The read-that-writes confinement anomaly (p.30)";
  let k = Bench_util.boot_new () in
  K.Kernel.mkdir k ~path:">home>box" ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  K.Kernel.set_quota k ~path:">home>box" ~limit:32;
  K.Kernel.create_file k ~path:">home>box>blank" ~acl:Bench_util.open_acl
    ~label:Bench_util.low;
  let usage () =
    match K.Kernel.quota_usage k ~path:">home>box" with
    | Some (used, _) -> used
    | None -> 0
  in
  let before = usage () in
  let t0 = K.Kernel.now k in
  let reader =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>box>blank"; reg = 0 } |];
        K.Workload.sequential_read ~seg_reg:0 ~pages:8 ]
  in
  ignore (K.Kernel.spawn k ~pname:"reader" reader);
  assert (K.Kernel.run_to_completion k);
  let after = usage () in
  let dt = K.Kernel.now k - t0 in
  Format.printf
    "  a pure READER of 8 never-written pages moved the quota count %d -> \
     %d: each read allocated a zero page and updated the accounting@."
    before after;
  Format.printf
    "  as a covert channel: %d page-charges in %.0f us = ~%.0f bits/s \
     through the quota variable — \"a read implicitly causes information \
     to be written, perhaps on the other side of a protection boundary, in \
     violation of the confinement goal\"@."
    (after - before) (Bench_util.us dt)
    (float_of_int (after - before) /. (float_of_int dt /. 1e9))

let run () =
  perf_linker ();
  perf_name_manager ();
  perf_answering ();
  perf_memory ();
  perf_scheduler ();
  perf_quota ();
  perf_lock_bit ();
  perf_confinement ()
