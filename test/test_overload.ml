(* The overload-control plane: deadlines, retry budgets, circuit
   breakers and brownout, each pinned at its own layer, plus the
   plane's determinism contracts (double runs and the explorer's
   domain-count independence are byte-identical). *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw
module Aim = Multics_aim
module Obs = Multics_obs
module Check = Multics_check
module Choice = Multics_choice.Choice

let check = Alcotest.check
let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let boot ?(config = K.Kernel.small_config) () =
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  k

(* A CPU- and paging-heavy session: the knob is [touches]. *)
let busy_program ~i ~touches =
  let name = Printf.sprintf "f%d" i in
  K.Workload.concat
    [ [| K.Workload.Create_file { dir = ">home"; name };
         K.Workload.Initiate { path = ">home>" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages:8;
      K.Workload.random_touches ~seg_reg:0 ~pages:8 ~count:touches
        ~write_pct:25 ~seed:(42 + i) ]

let disk_checksum k = Hw.Disk.fingerprint (K.Kernel.machine k).Hw.Machine.disk

(* ------------------------------------------------------------------ *)
(* Deadlines *)

let test_deadline_expires_process () =
  let k = boot () in
  ignore
    (K.Kernel.spawn k ~pname:"slow" ~deadline_ns:50_000
       (busy_program ~i:0 ~touches:400));
  ignore (K.Kernel.spawn k ~pname:"free" (busy_program ~i:1 ~touches:40));
  ignore (K.Kernel.run_to_completion k);
  check Alcotest.int "expired process retired at dispatch" 1
    (K.Kernel.proc_timeouts k);
  let up = K.Kernel.user_process k in
  check Alcotest.int "the deadlined process is the one that failed" 1
    (K.User_process.failed up);
  check Alcotest.int "the undeadlined process finished" 1
    (K.User_process.completed up)

(* A login's deadline is the session's: the spawned process inherits
   the login context's deadline even when the overload config carries
   a (much longer) config-wide default. *)
let test_login_deadline_inherited () =
  let config =
    { K.Kernel.small_config with
      K.Kernel.overload =
        { K.Kernel.default_overload with
          K.Kernel.ov_deadline_ns = 5_000_000_000 } }
  in
  let k = boot ~config () in
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  S.Answering_service.register_user svc ~user:"alice" ~password:"pw"
    ~clearance:low;
  let session_deadline = 200_000 in
  let t_login = K.Kernel.now k in
  match
    S.Answering_service.login ~deadline_ns:session_deadline svc ~user:"alice"
      ~password:"pw"
      ~program:(busy_program ~i:0 ~touches:400)
  with
  | Error _ -> Alcotest.fail "login should succeed"
  | Ok pid ->
      let p = K.User_process.proc (K.Kernel.user_process k) pid in
      let d = Obs.Sink.ctx_deadline (K.Kernel.obs k) p.K.User_process.p_ctx in
      check Alcotest.bool "a deadline is stamped" true (d > 0);
      check Alcotest.bool
        "the ambient login deadline, not the config default" true
        (d <= t_login + session_deadline);
      ignore (K.Kernel.run_to_completion k);
      check Alcotest.int "the session expired at the login's deadline" 1
        (K.Kernel.proc_timeouts k)

(* ------------------------------------------------------------------ *)
(* Retry budget and jittered backoff, at the I/O scheduler *)

let io_rig ?(budget = 0) ?choice ~fail_times () =
  let hw = Hw.Hw_config.with_cpus Hw.Hw_config.kernel_multics 1 in
  let machine = Hw.Machine.create ~disk_packs:1 ~records_per_pack:8 hw in
  let obs =
    Obs.Sink.create ~mode:Obs.Sink.Counters
      ~now:(fun () -> Hw.Machine.now machine)
      ()
  in
  Hw.Machine.set_obs machine obs;
  let disk = machine.Hw.Machine.disk in
  let faults = Hw.Fault_inject.create () in
  if fail_times > 0 then
    Hw.Fault_inject.fail_reads faults ~pack:0 ~record:0 ~times:fail_times;
  let config =
    { (Hw.Io_sched.config_of_disk disk) with
      Hw.Io_sched.retry_limit = 8;
      retry_budget = budget }
  in
  let io =
    Hw.Io_sched.create ~config ~faults ?choice
      ~now:(fun () -> Hw.Machine.now machine)
      ~disk ~schedule:(Hw.Machine.schedule machine) ()
  in
  Hw.Io_sched.set_obs io obs;
  Hw.Disk.write_record disk ~pack:0 ~record:0
    (Hw.Page_image.of_words (Array.make Hw.Addr.page_size 7));
  (machine, obs, io)

let test_retry_budget_denies () =
  let machine, obs, io = io_rig ~budget:1 ~fail_times:3 () in
  (* Budgets are charged to the request's root context; ctx 0 (no request)
     always passes, so mint one. *)
  let ctx = Obs.Sink.new_ctx obs ~parent:0 ~origin:"test" () in
  Obs.Sink.set_current obs ctx;
  let res = ref None in
  Hw.Io_sched.submit_read io ~pack:0 ~record:0 ~done_:(fun r -> res := Some r);
  Obs.Sink.set_current obs 0;
  Hw.Machine.run machine;
  (match !res with
  | Some (Error Hw.Io_sched.Timed_out) -> ()
  | Some (Ok _) -> Alcotest.fail "read should have been shed"
  | Some (Error e) ->
      Alcotest.fail
        (Format.asprintf "wrong error: %a" Hw.Io_sched.pp_io_error e)
  | None -> Alcotest.fail "read never completed");
  let st = Hw.Io_sched.stats io in
  check Alcotest.bool "a retry was refused by the dry budget" true
    (st.Hw.Io_sched.s_budget_denied >= 1);
  check Alcotest.int "exactly the budgeted retry ran" 1
    st.Hw.Io_sched.s_retries

let test_backoff_jitter_inert_then_scripted () =
  let completion ?choice () =
    let machine, _obs, io = io_rig ?choice ~fail_times:1 () in
    let done_at = ref (-1) in
    Hw.Io_sched.submit_read io ~pack:0 ~record:0 ~done_:(fun r ->
        (match r with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "transient read should recover");
        done_at := Hw.Machine.now machine);
    Hw.Machine.run machine;
    check Alcotest.bool "read completed" true (!done_at >= 0);
    !done_at
  in
  let plain = completion () in
  (* A live strategy that draws 0 waits the plain backoff. *)
  check Alcotest.int "a zero draw is free" plain
    (completion ~choice:(Choice.record_default ()) ());
  (* A live strategy picking the largest quarter-step delays the retry. *)
  let jittered = completion ~choice:(Choice.scripted [ 3 ]) () in
  check Alcotest.bool "scripted jitter pushes the retry later" true
    (jittered > plain)

(* ------------------------------------------------------------------ *)
(* Offline windows re-arm *)

let test_offline_windows_rearm () =
  let f = Hw.Fault_inject.create () in
  Hw.Fault_inject.pack_offline f ~pack:0 ~at_ns:100;
  Hw.Fault_inject.pack_online f ~pack:0 ~at_ns:200;
  Hw.Fault_inject.pack_offline f ~pack:0 ~at_ns:300;
  Hw.Fault_inject.pack_online f ~pack:0 ~at_ns:400;
  List.iter
    (fun (t, expect) ->
      check Alcotest.bool
        (Printf.sprintf "offline at %d" t)
        expect
        (Hw.Fault_inject.pack_is_offline f ~pack:0 ~now:t))
    [ (50, false); (150, true); (250, false); (350, true); (450, false) ]

(* ------------------------------------------------------------------ *)
(* Circuit breakers end to end: a pack drops twice; each window trips
   the breaker and raises its own Pack_offline signal, each
   recovery closes it through the half-open probe, and no page is
   damaged — shed reads fall back to their on-disk records.  Every
   signal reaches the directory manager: one raised by a read
   completion is delivered at the next fault exit, and each delivery
   drops the pathname cache above the gate. *)

let breaker_pages = 24

let test_kernel_breaker_two_outages () =
  let faults = Hw.Fault_inject.create () in
  let config =
    { K.Kernel.small_config with
      K.Kernel.faults;
      overload =
        { K.Kernel.default_overload with
          K.Kernel.ov_breaker_threshold = 3;
          ov_breaker_cooldown_ns = 2_000_000 };
      hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 40;
      core_frames = 24;
      disk_packs = 1;
      records_per_pack = 128;
      use_io_sched = true;
      read_ahead = 2 }
  in
  let k = boot ~config () in
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (K.Workload.concat
          [ [| K.Workload.Create_file { dir = ">home"; name = "big" };
               K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
            K.Workload.sequential_write ~seg_reg:0 ~pages:breaker_pages ]));
  Alcotest.(check bool) "writer completes" true (K.Kernel.run_to_completion k);
  K.Kernel.checkpoint k;
  let one_pass tag =
    ignore
      (K.Kernel.spawn k ~pname:tag
         (K.Workload.concat
            [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
              K.Workload.sequential_read ~seg_reg:0 ~pages:breaker_pages ]));
    Alcotest.(check bool)
      (tag ^ " completes")
      true
      (K.Kernel.run_to_completion ~max_events:4_000_000 k)
  in
  (* Size the outages off a fault-free pass so each lands mid-read and
     lifts while reads remain — the pass can only finish through a
     successful half-open probe. *)
  let t0 = K.Kernel.now k in
  one_pass "warm";
  let span = max 1 (K.Kernel.now k - t0) in
  let ns = K.Kernel.name_space k in
  let outage tag =
    let t = K.Kernel.now k in
    Hw.Fault_inject.pack_offline faults ~pack:0 ~at_ns:(t + (span / 5));
    Hw.Fault_inject.pack_online faults ~pack:0
      ~at_ns:(t + (span / 5) + (span / 2));
    let before = K.Name_space.cache_invalidations ns in
    one_pass tag;
    check Alcotest.int (tag ^ ": the cache dropped once for the window") 1
      (K.Name_space.cache_invalidations ns - before)
  in
  outage "pass1";
  outage "pass2";
  check Alcotest.int "every signal delivered" 0
    (K.Upward_signal.pending (K.Kernel.signals k));
  let io = K.Kernel.io_stats k in
  check Alcotest.bool "each window tripped the breaker" true
    (io.K.Kernel.io_breaker_opens >= 2);
  check Alcotest.bool "each recovery closed it through a probe" true
    (io.K.Kernel.io_breaker_closes >= 2);
  check Alcotest.int "one Pack_offline signal per window" 2
    io.K.Kernel.io_offline;
  check Alcotest.int "shed reads damaged nothing" 0 io.K.Kernel.io_damaged

(* ------------------------------------------------------------------ *)
(* Brownout: the ladder moves one rung at a time, and overload moves
   it. *)

let test_brownout_ladder_steps () =
  (* Bench C6's proportions, which are known to breach the ready-wait
     watchdog: many paging sessions on few frames. *)
  let config =
    { K.Kernel.default_config with
      K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 72;
      core_frames = 44;
      disk_packs = 2;
      records_per_pack = 512;
      max_processes = 32;
      overload =
        { K.Kernel.default_overload with
          K.Kernel.ov_brownout_tick_ns = 20_000_000 } }
  in
  let k = boot ~config () in
  for i = 0 to 17 do
    ignore
      (K.Kernel.spawn k
         ~pname:(Printf.sprintf "u%d" i)
         (K.Workload.concat
            [ [| K.Workload.Create_file
                   { dir = ">home"; name = Printf.sprintf "f%d" i };
                 K.Workload.Initiate
                   { path = Printf.sprintf ">home>f%d" i; reg = 0 } |];
              K.Workload.sequential_write ~seg_reg:0 ~pages:16;
              K.Workload.random_touches ~seg_reg:0 ~pages:16 ~count:90
                ~write_pct:25 ~seed:(1000 + i) ]))
  done;
  (* Record every rung the ladder visits: only the brownout tick moves
     the level, one rung per tick, and each tick is an event of its
     own, so polling it after each step sees each change. *)
  let transitions = ref [] and last = ref 0 in
  K.Kernel.start k;
  while Hw.Machine.step (K.Kernel.machine k) do
    let level = K.Kernel.brownout_level k in
    if level <> !last then begin
      transitions := level :: !transitions;
      last := level
    end
  done;
  check Alcotest.bool "every session finished" true
    (K.User_process.all_done (K.Kernel.user_process k));
  check Alcotest.bool "overload escalated the ladder" true
    (K.Kernel.brownout_escalations k >= 1);
  let steps = List.rev !transitions in
  check Alcotest.bool "the ladder was walked" true (steps <> []);
  let rec one_rung prev = function
    | [] -> ()
    | l :: rest ->
        check Alcotest.int
          (Printf.sprintf "one rung at a time (%d -> %d)" prev l)
          1 (abs (l - prev));
        check Alcotest.bool "within the ladder" true
          (l >= 0 && l <= K.Kernel.brownout_max_level);
        one_rung l rest
  in
  one_rung 0 steps

(* A small kernel whose ladder ticks every [tick] ns, a breaching
   ready-wait sample planted at an instant, and a check of the rung
   after running up to one. *)
let brownout_kernel ~tick =
  boot
    ~config:
      { K.Kernel.small_config with
        K.Kernel.overload =
          { K.Kernel.default_overload with
            K.Kernel.ov_brownout_tick_ns = tick } }
    ()

let breach k ~at =
  Hw.Machine.schedule_at (K.Kernel.machine k) ~time:at (fun () ->
      Obs.Sink.add_latency (K.Kernel.obs k) ~name:"sched.ready_wait"
        30_000_000)

let level_at k tag ~until expect =
  K.Kernel.run ~until k;
  check Alcotest.int tag expect (K.Kernel.brownout_level k)

(* The top rung is the one that reaches above the kernel: the
   Answering Service reads the ladder at each login and refuses every
   class but 0.  Breaching ready-wait samples drive the ladder by hand:
   two land inside each of the first three tick periods, so each of the
   first three ticks finds the breach total grown and raises the ladder
   one rung. *)
let test_brownout_top_rung_sheds () =
  let tick = 1_000_000 in
  let k = brownout_kernel ~tick in
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  let login ~load_class user =
    S.Answering_service.register_user svc ~user ~password:"pw"
      ~clearance:low;
    S.Answering_service.login ~load_class svc ~user ~password:"pw"
      ~program:(K.Workload.compute_bound ~steps:50 ~step_ns:100_000)
  in
  let admitted tag r = check Alcotest.bool tag true (Result.is_ok r) in
  for rung = 0 to K.Kernel.brownout_max_level - 1 do
    breach k ~at:((rung * tick) + (tick / 2));
    breach k ~at:((rung * tick) + (3 * tick / 4))
  done;
  admitted "class 1 admitted at rung 0" (login ~load_class:1 "a");
  level_at k "rung 1 after the first breach" ~until:(9 * tick / 8) 1;
  admitted "class 1 admitted at rung 1" (login ~load_class:1 "b");
  level_at k "top rung after three ticks" ~until:(25 * tick / 8)
    K.Kernel.brownout_max_level;
  admitted "class 0 admitted at the top rung" (login ~load_class:0 "c");
  check Alcotest.bool "class 1 shed at the top rung" true
    (login ~load_class:1 "d" = Error `Shed);
  check Alcotest.int "one login shed" 1
    (S.Answering_service.shed_logins svc)

(* The tick law: breaches alone move nothing.  A burst inside one tick
   period leaves the ladder at rung 0 until the tick, which raises it
   exactly one rung however many breaches it finds; the next tick, with
   no new breach, lowers it one rung. *)
let test_brownout_tick_law () =
  let tick = 1_000_000 in
  let k = brownout_kernel ~tick in
  for i = 1 to 5 do
    breach k ~at:(i * tick / 8)
  done;
  level_at k "rung 0 after the burst, before the tick" ~until:(7 * tick / 8) 0;
  level_at k "one rung at the tick" ~until:(9 * tick / 8) 1;
  check Alcotest.int "one escalation for five breaches" 1
    (K.Kernel.brownout_escalations k);
  level_at k "the quiet tick lowers it" ~until:(17 * tick / 8) 0

(* The ladder cannot stick.  A kernel that drains above rung 0 keeps
   ticking until it is back at full service, and a spawn into a kernel
   whose tick has stopped starts it again. *)
let test_brownout_no_stuck_rung () =
  let tick = 1_000_000 in
  let k = brownout_kernel ~tick in
  let session tag =
    ignore
      (K.Kernel.spawn k ~pname:tag
         (K.Workload.compute_bound ~steps:30 ~step_ns:100_000))
  in
  for rung = 0 to 2 do
    breach k ~at:((rung * tick) + (tick / 2));
    breach k ~at:((rung * tick) + (3 * tick / 4))
  done;
  session "s1";
  check Alcotest.bool "the session completes" true
    (K.Kernel.run_to_completion k);
  check Alcotest.int "the drained kernel is back at rung 0" 0
    (K.Kernel.brownout_level k);
  check Alcotest.int "after three escalations" 3
    (K.Kernel.brownout_escalations k);
  (* The queue is empty, so the tick has stopped.  Work arriving now
     must start it again, or these breaches would never be read. *)
  let t0 = K.Kernel.now k in
  breach k ~at:(t0 + (tick / 4));
  breach k ~at:(t0 + (tick / 2));
  session "s2";
  level_at k "the spawn re-armed the tick" ~until:(t0 + (9 * tick / 8)) 1;
  check Alcotest.bool "the second session completes" true
    (K.Kernel.run_to_completion k);
  check Alcotest.int "and the ladder drains again" 0
    (K.Kernel.brownout_level k)

(* Deadlines ride on request contexts, which every trace mode keeps:
   an explicit spawn deadline and an explicit login deadline both
   expire, at the same instant, whatever the mode. *)
let test_explicit_deadlines_every_mode () =
  let run trace =
    let k = boot ~config:{ K.Kernel.small_config with K.Kernel.trace } () in
    let svc =
      S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
    in
    S.Answering_service.register_user svc ~user:"alice" ~password:"pw"
      ~clearance:low;
    ignore
      (K.Kernel.spawn k ~pname:"slow" ~deadline_ns:50_000
         (busy_program ~i:0 ~touches:400));
    (match
       S.Answering_service.login ~deadline_ns:200_000 svc ~user:"alice"
         ~password:"pw"
         ~program:(busy_program ~i:1 ~touches:400)
     with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "login should succeed");
    ignore (K.Kernel.run_to_completion k);
    (K.Kernel.proc_timeouts k, K.Kernel.now k)
  in
  List.iter
    (fun (tag, trace) ->
      let timeouts, clock = run trace in
      check Alcotest.int (tag ^ ": both sessions timed out") 2 timeouts;
      check Alcotest.int (tag ^ ": clock") 264_629 clock)
    [ ("counters", Obs.Sink.Counters); ("full", Obs.Sink.Full) ]

(* ------------------------------------------------------------------ *)
(* Determinism: the full plane — deadlines, budget, breakers,
   brownout, plus a transient fault — run twice is byte-identical in
   clock, io_report and disk image. *)

let controlled_run () =
  let faults = Hw.Fault_inject.create () in
  Hw.Fault_inject.fail_reads faults ~pack:0 ~record:40 ~times:2;
  let config =
    { K.Kernel.small_config with
      K.Kernel.faults;
      overload =
        { K.Kernel.ov_deadline_ns = 0;
          ov_retry_budget = 4;
          ov_breaker_threshold = 3;
          ov_breaker_cooldown_ns = 2_000_000;
          ov_brownout_tick_ns = 5_000_000 };
      hw = Hw.Hw_config.with_cpus Hw.Hw_config.kernel_multics 1 }
  in
  let k = boot ~config () in
  for i = 0 to 5 do
    let deadline_ns = if i mod 3 = 2 then Some 400_000 else None in
    ignore
      (K.Kernel.spawn k
         ~pname:(Printf.sprintf "u%d" i)
         ?deadline_ns
         (busy_program ~i ~touches:150))
  done;
  ignore (K.Kernel.run_to_completion k);
  (K.Kernel.now k, K.Kernel.io_stats k, K.Kernel.proc_timeouts k,
   disk_checksum k)

let test_double_run_byte_identical () =
  let t1, io1, shed1, d1 = controlled_run () in
  let t2, io2, shed2, d2 = controlled_run () in
  check Alcotest.int "clock identical" t1 t2;
  check Alcotest.bool "io_report identical" true (io1 = io2);
  check Alcotest.int "same processes expired" shed1 shed2;
  check Alcotest.int "disk image identical" d1 d2

(* The explorer over the overload plane's choice points is domain-count
   independent: DFS outcomes on the breaker harness are byte-identical
   at 1 and 4 pool domains, clean and seeded-bug alike. *)
let test_breaker_explorer_domains () =
  let bytes o = Format.asprintf "%a" Check.Explore.pp_outcome o in
  let dfs ?bug domains =
    bytes
      (Check.Explore.check_dfs ~domains ~max_runs:400
         (Check.Harness.breaker_system ?bug ()))
  in
  check Alcotest.string "clean DFS at 1 = 4 domains" (dfs 1) (dfs 4);
  check Alcotest.string "buggy DFS at 1 = 4 domains" (dfs ~bug:true 1)
    (dfs ~bug:true 4)

let tests =
  [ Alcotest.test_case "deadline retires the expired process" `Quick
      test_deadline_expires_process;
    Alcotest.test_case "login deadline inherited by the session" `Quick
      test_login_deadline_inherited;
    Alcotest.test_case "retry budget sheds as timed-out" `Quick
      test_retry_budget_denies;
    Alcotest.test_case "backoff jitter: inert until scripted" `Quick
      test_backoff_jitter_inert_then_scripted;
    Alcotest.test_case "offline windows re-arm" `Quick
      test_offline_windows_rearm;
    Alcotest.test_case "breakers across two outages, no damage" `Quick
      test_kernel_breaker_two_outages;
    Alcotest.test_case "brownout ladder steps one rung" `Quick
      test_brownout_ladder_steps;
    Alcotest.test_case "brownout top rung sheds logins" `Quick
      test_brownout_top_rung_sheds;
    Alcotest.test_case "brownout moves one rung per tick" `Quick
      test_brownout_tick_law;
    Alcotest.test_case "brownout ladder cannot stick" `Quick
      test_brownout_no_stuck_rung;
    Alcotest.test_case "explicit deadlines hold in every trace mode" `Quick
      test_explicit_deadlines_every_mode;
    Alcotest.test_case "full plane double run byte-identical" `Quick
      test_double_run_byte_identical;
    Alcotest.test_case "explorer domain-count independent" `Quick
      test_breaker_explorer_domains ]
