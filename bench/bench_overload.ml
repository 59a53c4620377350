(* C6: overload — end-to-end overload control.

   The machine is driven well past capacity (2-4x the sessions its
   frames and arms can serve inside their deadline) and run twice:

     uncontrolled  no deadlines, no brownout: every session crawls,
                   almost none finishes inside the window
     controlled    the overload plane on: deadlines cancel hopeless
                   work at the checkpoints, the brownout ladder sheds
                   optional work (read-ahead, cleaner, then whole
                   logins by load class)

   Acceptance: the controlled run's goodput — sessions completed
   within the window — is at least twice the uncontrolled run's, with
   a bounded p95 page-read latency.

   Two more sub-experiments:

     C6a  the default config, every overload knob inert: its clock and
          disk checksum are the baseline rows the perf gate and the
          determinism diff hold fixed
     C6d  a pack drops offline twice with circuit breakers armed:
          each window trips the breaker (fail-fast, no damage to
          idempotent reads), each recovery closes it through the
          half-open probe, and each window raises its own
          Pack_offline signal — the workload completes once the
          pack is back. *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw
module Obs = Multics_obs

let sec = "C6"
let fail fmt = Printf.ksprintf failwith fmt

let base_config =
  { K.Kernel.default_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    core_frames = 24; use_io_sched = true; read_ahead = 2 }

(* ------------------------------------------------------------------ *)
(* C6a: the plane off. *)

let plane_off () =
  Format.printf "C6a  overload plane off (default config):@.";
  let k = Bench_util.boot_new ~config:base_config () in
  for i = 0 to 3 do
    ignore
      (K.Kernel.spawn k ~pname:(Printf.sprintf "w%d" i)
         (Bench_util.file_writer ~dir:">home"
            ~name:(Printf.sprintf "f%d" i) ~pages:12))
  done;
  if not (K.Kernel.run_to_completion k) then fail "bench_overload: C6a stuck";
  K.Kernel.shutdown k;
  let t0 = K.Kernel.now k and d0 = Bench_util.disk_checksum k in
  Format.printf "  clock %d, disk checksum %d@." t0 d0;
  Bench_util.recordi ~section:sec ~metric:"plane_off_elapsed_ns" t0;
  Bench_util.recordi ~section:sec ~metric:"plane_off_disk_checksum"
    ~unit:"hash" d0

(* ------------------------------------------------------------------ *)
(* C6b/C6c: goodput under 2-4x overload, uncontrolled vs controlled. *)

let n_users = 18
let late_users = 6
let window = 250_000_000 (* ns: the goodput window *)
let user_pages = 16

let user_program i =
  let name = Printf.sprintf "u%d" i in
  K.Workload.concat
    [ [| K.Workload.Create_file { dir = ">home"; name };
         K.Workload.Initiate { path = ">home>" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages:user_pages;
      K.Workload.random_touches ~seg_reg:0 ~pages:user_pages ~count:90
        ~write_pct:25 ~seed:(1000 + i) ]

(* [trace] is the sink mode: C6 runs under [Counters], and C3 runs the
   controlled plane under both modes and demands identical results. *)
let overload_run ~trace ~controlled =
  let overload =
    if not controlled then K.Kernel.default_overload
    else
      { K.Kernel.ov_deadline_ns = window;
        ov_retry_budget = 8;
        ov_breaker_threshold = 4;
        ov_breaker_cooldown_ns = 10_000_000;
        ov_brownout_tick_ns = 20_000_000 }
  in
  let k =
    Bench_util.boot_new
      ~config:
        { base_config with
          K.Kernel.overload;
          trace;
          hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 72;
          core_frames = 44;
          disk_packs = 2;
          max_processes = 32 }
      ()
  in
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  let deadline_for_class c =
    if not controlled then None
    else match c with 0 -> None | 1 -> Some (window / 2) | _ -> Some (window / 3)
  in
  for i = 0 to n_users - 1 do
    let user = Printf.sprintf "user%02d" i in
    S.Answering_service.register_user svc ~user ~password:"pw"
      ~clearance:Bench_util.low;
    match
      S.Answering_service.login ~load_class:(i mod 3)
        ?deadline_ns:(deadline_for_class (i mod 3))
        svc ~user ~password:"pw" ~program:(user_program i)
    with
    | Ok _ -> ()
    | Error _ -> fail "bench_overload: initial login refused"
  done;
  (* A late wave at half-window: under brownout's last rung these are
     shed at the front door, by load class. *)
  let late_shed = ref 0 in
  Hw.Machine.schedule (K.Kernel.machine k) ~delay:(window / 2) (fun () ->
      for i = 0 to late_users - 1 do
        let user = Printf.sprintf "late%02d" i in
        S.Answering_service.register_user svc ~user ~password:"pw"
          ~clearance:Bench_util.low;
        match
          S.Answering_service.login
            ~load_class:(1 + (i mod 2))
            ?deadline_ns:(deadline_for_class (1 + (i mod 2)))
            svc ~user ~password:"pw" ~program:(user_program (100 + i))
        with
        | Ok _ -> ()
        | Error `Shed -> incr late_shed
        | Error _ -> fail "bench_overload: late login failed"
      done);
  K.Kernel.run ~until:window k;
  let goodput = K.User_process.completed (K.Kernel.user_process k) in
  let p95 =
    Obs.Histo.percentile
      (Obs.Sink.histo (K.Kernel.obs k) ~name:"pfm.page_read")
      ~pct:95
  in
  (k, svc, goodput, p95, !late_shed)

let goodput () =
  Format.printf "@.C6b  uncontrolled overload (%d+%d sessions, %d us window):@."
    n_users late_users (window / 1000);
  let _k_off, _, good_off, p95_off, _ =
    overload_run ~trace:Obs.Sink.Counters ~controlled:false
  in
  Format.printf "  goodput %d/%d, page-read p95 %d us@." good_off
    (n_users + late_users) (p95_off / 1000);
  Format.printf "@.C6c  controlled overload (deadlines + brownout):@.";
  let k_on, svc, good_on, p95_on, late_shed =
    overload_run ~trace:Obs.Sink.Counters ~controlled:true
  in
  let io = K.Kernel.io_stats k_on in
  Format.printf "  goodput %d/%d, page-read p95 %d us@." good_on
    (n_users + late_users) (p95_on / 1000);
  Format.printf
    "  shed: %d processes timed out, %d gate calls refused, %d i/o timeouts, \
     %d logins shed (%d total); brownout peaked via %d escalations (level %d \
     at end)@."
    (K.Kernel.proc_timeouts k_on) (K.Kernel.shed_calls k_on)
    io.K.Kernel.io_timeouts late_shed
    (S.Answering_service.shed_logins svc)
    (K.Kernel.brownout_escalations k_on)
    (K.Kernel.brownout_level k_on);
  if good_on < 2 * max 1 good_off then
    fail "bench_overload: controlled goodput %d < 2x uncontrolled %d" good_on
      good_off;
  if K.Kernel.brownout_escalations k_on = 0 then
    fail "bench_overload: overload never escalated the brownout ladder";
  if K.Kernel.proc_timeouts k_on = 0 then
    fail "bench_overload: no expired process was ever retired";
  if p95_on > p95_off then
    fail "bench_overload: controlled p95 %d worse than uncontrolled %d" p95_on
      p95_off;
  Bench_util.recordi ~section:sec ~metric:"goodput_uncontrolled" ~unit:"count"
    good_off;
  Bench_util.recordi ~section:sec ~metric:"goodput_controlled" ~unit:"count"
    good_on;
  Bench_util.recordi ~section:sec ~metric:"p95_read_uncontrolled_ns" p95_off;
  Bench_util.recordi ~section:sec ~metric:"p95_read_controlled_ns" p95_on;
  Bench_util.recordi ~section:sec ~metric:"proc_timeouts" ~unit:"count"
    (K.Kernel.proc_timeouts k_on);
  Bench_util.recordi ~section:sec ~metric:"logins_shed" ~unit:"count"
    (S.Answering_service.shed_logins svc);
  Bench_util.recordi ~section:sec ~metric:"brownout_escalations" ~unit:"count"
    (K.Kernel.brownout_escalations k_on)

(* ------------------------------------------------------------------ *)
(* C6d: circuit breakers across two offline windows. *)

let breaker_pages = 24

(* The pack holding ">home>big" — the only [breaker_pages]-page
   segment (allocation is deterministic, so the discovery run and the
   fault run agree). *)
let big_home_pack k =
  let d = (K.Kernel.machine k).Hw.Machine.disk in
  let found = ref 0 in
  for pack = 0 to Hw.Disk.n_packs d - 1 do
    List.iter
      (fun (_, (e : Hw.Disk.vtoc_entry)) ->
        if e.Hw.Disk.len_pages >= breaker_pages then found := pack)
      (Hw.Disk.vtoc_entries d ~pack)
  done;
  !found

let breaker_run faults overload =
  (* Fewer frames than the segment has pages: no pass can be served
     from core, every pass goes back to the platters — and meets the
     offline windows. *)
  let config =
    { base_config with
      K.Kernel.faults;
      overload;
      hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 40;
      core_frames = 24 }
  in
  Bench_util.boot_new ~config ()

let one_pass k tag =
  ignore
    (K.Kernel.spawn k ~pname:tag
       (K.Workload.concat
          [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
            K.Workload.sequential_read ~seg_reg:0 ~pages:breaker_pages ]));
  if not (K.Kernel.run_to_completion ~max_events:4_000_000 k) then
    fail "bench_overload: C6d pass %s stuck" tag

let breakers () =
  Format.printf "@.C6d  circuit breakers across two offline windows:@.";
  let faults = Hw.Fault_inject.create () in
  let plane =
    { K.Kernel.default_overload with
      K.Kernel.ov_breaker_threshold = 3;
      ov_breaker_cooldown_ns = 2_000_000 }
  in
  let k = breaker_run faults plane in
  ignore
    (K.Kernel.spawn k ~pname:"writer"
       (Bench_util.file_writer ~dir:">home" ~name:"big" ~pages:breaker_pages));
  if not (K.Kernel.run_to_completion k) then
    fail "bench_overload: C6d writer stuck";
  K.Kernel.checkpoint k;
  let pack = big_home_pack k in
  (* A fault-free pass sizes the offline windows: each opens a fifth
     of a pass in and holds for half a pass, so it always lands on an
     actively reading pass, and always ends while reads remain — the
     pass cannot finish until a half-open probe has succeeded and
     closed the breaker again. *)
  let t0 = K.Kernel.now k in
  one_pass k "warm";
  let span = max 1 (K.Kernel.now k - t0) in
  let outage tag =
    let t = K.Kernel.now k in
    Hw.Fault_inject.pack_offline faults ~pack ~at_ns:(t + (span / 5));
    Hw.Fault_inject.pack_online faults ~pack
      ~at_ns:(t + (span / 5) + (span / 2));
    one_pass k tag
  in
  outage "pass1";
  outage "pass2";
  let io = K.Kernel.io_stats k in
  Format.printf
    "  pack %d down twice (%d us fault-free pass): %d fast-fails; breakers \
     opened %d, probed %d, closed %d; %d offline signals; %d pages damaged@."
    pack (span / 1000) io.K.Kernel.io_fast_fails io.K.Kernel.io_breaker_opens
    io.K.Kernel.io_breaker_probes io.K.Kernel.io_breaker_closes
    io.K.Kernel.io_offline io.K.Kernel.io_damaged;
  if io.K.Kernel.io_breaker_opens < 2 then
    fail "bench_overload: two offline windows opened the breaker %d times"
      io.K.Kernel.io_breaker_opens;
  if io.K.Kernel.io_breaker_closes < 2 then
    fail "bench_overload: two recoveries closed the breaker %d times"
      io.K.Kernel.io_breaker_closes;
  if io.K.Kernel.io_offline <> 2 then
    fail "bench_overload: expected 2 Pack_offline signals, saw %d"
      io.K.Kernel.io_offline;
  if io.K.Kernel.io_damaged <> 0 then
    fail "bench_overload: breaker-armed offline window damaged %d pages"
      io.K.Kernel.io_damaged;
  Bench_util.recordi ~section:sec ~metric:"breaker_opens" ~unit:"count"
    io.K.Kernel.io_breaker_opens;
  Bench_util.recordi ~section:sec ~metric:"breaker_closes" ~unit:"count"
    io.K.Kernel.io_breaker_closes;
  Bench_util.recordi ~section:sec ~metric:"breaker_fast_fails" ~unit:"count"
    io.K.Kernel.io_fast_fails;
  Bench_util.recordi ~section:sec ~metric:"offline_signals" ~unit:"count"
    io.K.Kernel.io_offline

let run () =
  Bench_util.section sec "overload: deadlines, breakers, brownout";
  plane_off ();
  goodput ();
  breakers ();
  Bench_util.write_section_metrics ~section:sec ~path:"BENCH_overload_c6.json"
