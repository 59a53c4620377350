module Hw = Multics_hw
module Sync = Multics_sync
module Aim = Multics_aim
module Dg = Multics_depgraph

(* End-to-end overload control.  Every field has an inert value, and
   [default_overload] sets them all. *)
type overload_config = {
  ov_deadline_ns : int;
  ov_retry_budget : int;
  ov_breaker_threshold : int;
  ov_breaker_cooldown_ns : int;
  ov_brownout_tick_ns : int;
}

let default_overload =
  { ov_deadline_ns = 0; ov_retry_budget = 0; ov_breaker_threshold = 0;
    ov_breaker_cooldown_ns = 0; ov_brownout_tick_ns = 0 }

type config = {
  hw : Hw.Hw_config.t;
  disk_packs : int;
  records_per_pack : int;
  core_frames : int;
  ast_slots : int;
  pt_words : int;
  max_processes : int;
  max_quota_cells : int;
  scheduler : Scheduler.policy;
  use_cleaner_daemon : bool;
  root_quota : int;
  use_path_cache : bool;
  use_io_sched : bool;
  read_ahead : int;
  trace : Multics_obs.Sink.mode;
  faults : Hw.Fault_inject.t;
  choice : Multics_choice.Choice.t option;
  overload : overload_config;
}

let default_config =
  { hw = Hw.Hw_config.kernel_multics;
    disk_packs = 4; records_per_pack = 1024; core_frames = 32;
    ast_slots = 64; pt_words = 64; max_processes = 16;
    max_quota_cells = 64; scheduler = Scheduler.Round_robin { quantum = 32 };
    use_cleaner_daemon = true; root_quota = 2048; use_path_cache = true;
    use_io_sched = true; read_ahead = 2;
    trace = Multics_obs.Sink.Counters;
    faults = Hw.Fault_inject.none;
    choice = None;
    overload = default_overload }

let small_config =
  { default_config with
    hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 64;
    disk_packs = 3; records_per_pack = 64; core_frames = 24; ast_slots = 16;
    pt_words = 16; max_processes = 8; max_quota_cells = 16; root_quota = 128 }

(* Fixed virtual processors: 0 runs the scheduler daemon, 1 the page
   cleaner, and the rest multiplex user processes. *)
let first_user_vp = 2
let user_vps = 4
let n_vps = first_user_vp + user_vps

(* The brownout ladder's top rung, at which the Answering Service sheds
   logins. *)
let brownout_max_level = 3

(* The dependency graph every kernel's call census is audited against.
   Built once, when the module initialises and before any domain can
   boot a kernel, and only read afterwards: the explorer boots
   thousands of kernels, and they all share it. *)
let declared = Registry.declared_graph ()

type t = {
  cfg : config;
  machine : Hw.Machine.t;
  meter : Meter.t;
  obs : Multics_obs.Sink.t;
  core : Core_segment.t;
  vp : Vp.t;
  volume : Volume.t;
  quota : Quota_cell.t;
  page_frame : Page_frame.t;
  signals : Upward_signal.t;
  segment : Segment.t;
  known : Known_segment.t;
  address_space : Address_space.t;
  user_process : User_process.t;
  directory : Directory.t;
  gate : Gate.t;
  name_space : Name_space.t;
  fault_dispatch : Fault_dispatch.t;
  aim_audit : Aim.Audit.t;
  mutable started : bool;
  mutable denials : int;
  mutable shed_calls : int;  (* gate calls refused by an expired deadline *)
  mutable proc_timeouts : int;  (* processes terminated past their deadline *)
  (* Brownout: the graceful-degradation ladder.  0 = full service; each
     rung sheds the next-cheapest class of optional work. *)
  mutable brownout_level : int;
  mutable brownout_escalations : int;
  mutable last_brownout_change : int;  (* simulated instant *)
  mutable breach_snapshot : int;  (* slo breach total at last quiet tick *)
}

let root_subject =
  { Directory.s_principal = { Acl.user = "root"; project = "sys" };
    s_label = Aim.Label.system_low;
    s_trusted = true }

let subject_of (p : User_process.proc) =
  { Directory.s_principal = p.User_process.principal;
    s_label = p.User_process.label;
    s_trusted = p.User_process.trusted }

(* The gate name-plate: the live analogue of the entry-point census.
   User gates admit ring 4 and above; administrative gates only rings
   0-1 (the Answering Service's trusted process). *)
let gate_table =
  [ (* file system, user callable *)
    ("hcs_$initiate", 5); ("hcs_$terminate_noname", 5); ("hcs_$fs_search", 5);
    ("hcs_$make_seg", 5); ("hcs_$append_branch", 5); ("hcs_$append_branchx", 5);
    ("hcs_$delentry_file", 5); ("hcs_$star_list", 5); ("hcs_$status_long", 5);
    ("hcs_$status_minf", 5); ("hcs_$set_acl", 5); ("hcs_$delete_acl_entries", 5);
    ("hcs_$list_acl", 5); ("hcs_$get_quota", 5); ("hcs_$quota_move", 5);
    ("hcs_$truncate_seg", 5); ("hcs_$set_max_length", 5);
    ("hcs_$fs_get_path_name", 5); ("hcs_$get_uid", 5);
    (* processes and synchronisation, user callable *)
    ("hcs_$block", 5); ("hcs_$wakeup", 5); ("hcs_$read_events", 5);
    ("hcs_$get_time", 5); ("hcs_$level_get", 5); ("hcs_$level_set", 5);
    ("hcs_$get_authorization", 5); ("hcs_$get_usage_values", 5);
    ("hcs_$proc_info", 5); ("hcs_$set_timer", 5); ("hcs_$reset_timer", 5);
    (* administrative, rings 0-1 only *)
    ("hphcs_$create_proc", 1); ("hphcs_$destroy_proc", 1);
    ("hphcs_$set_quota", 1); ("hphcs_$quota_reload", 1);
    ("hphcs_$shutdown", 1); ("hphcs_$reclassify", 1);
    ("hphcs_$set_process_authorization", 1); ("hphcs_$wire_seg", 1);
    ("hphcs_$deactivate_seg", 1); ("phcs_$ring0_peek", 1);
    ("phcs_$set_kst_attributes", 1); ("hphcs_$syserr_log", 1) ]

let rec boot_internal ?previous_disk cfg =
  let ov = cfg.overload in
  let machine =
    Hw.Machine.create ~disk_packs:cfg.disk_packs
      ~records_per_pack:cfg.records_per_pack ?disk:previous_disk cfg.hw
  in
  let meter = Meter.create ~declared in
  (* The sink reads the machine clock through a thunk and never charges
     the meter or schedules events — which is why switching [cfg.trace]
     cannot move simulated time (bench C3 asserts exactly that). *)
  let obs =
    Multics_obs.Sink.create ~mode:cfg.trace
      ~now:(fun () -> Hw.Machine.now machine)
      ()
  in
  Hw.Machine.set_obs machine obs;
  (* SLO watchdogs: simulated-time latency thresholds on the service
     histograms.  Purely observational — a breach bumps a counter and
     drops an instant in the flight ring, never touching the clock. *)
  Multics_obs.Sink.set_slo obs ~histo:"pfm.page_read"
    ~threshold_ns:40_000_000;
  Multics_obs.Sink.set_slo obs ~histo:"io.queue_age"
    ~threshold_ns:250_000_000;
  Multics_obs.Sink.set_slo obs ~histo:"as.login" ~threshold_ns:30_000_000;
  Multics_obs.Sink.set_slo obs ~histo:"sched.ready_wait"
    ~threshold_ns:20_000_000;
  (* An active strategy's picks become trace instants, so a recorded
     counterexample lines up with the kernel's own timeline. *)
  (match cfg.choice with
  | Some c -> Multics_choice.Choice.set_obs c obs
  | None -> ());
  let aim_audit = Aim.Audit.create () in
  let core = Core_segment.create ~machine ~meter ~reserved_frames:cfg.core_frames in
  let vp = Vp.create ?choice:cfg.choice ~machine ~meter ~core ~n_vps () in
  (* The overload plane's I/O knobs (retry budgets, circuit breakers)
     ride on the I/O scheduler's config, the rest of which derives from
     the disk's latencies. *)
  let io_config =
    { (Hw.Io_sched.config_of_disk machine.Hw.Machine.disk) with
      Hw.Io_sched.retry_budget = ov.ov_retry_budget;
      breaker_threshold = ov.ov_breaker_threshold;
      breaker_cooldown_ns = ov.ov_breaker_cooldown_ns }
  in
  let volume =
    Volume.create ~faults:cfg.faults ?choice:cfg.choice ~io_config ~machine
      ~meter ()
  in
  (* A scheduled power failure freezes the machine at its instant: the
     write-behind buffer tears and no further event runs.  Planted only
     when the plan carries one, so the empty plan leaves the event
     queue bit-identical. *)
  (match Hw.Fault_inject.crash_schedule cfg.faults with
  | Some (at_ns, surviving_writes) ->
      Hw.Machine.schedule_at machine ~time:at_ns (fun () ->
          ignore (Volume.crash volume ~surviving_writes);
          (* Last gasp: snapshot the flight recorder so the post-mortem
             sees the final events before the clock freezes. *)
          Multics_obs.Sink.note_dump obs ~reason:"halt";
          Hw.Machine.halt machine)
  | None -> ());
  let quota =
    Quota_cell.create ~machine ~meter ~core ~volume
      ~max_cells:cfg.max_quota_cells
  in
  let page_frame =
    Page_frame.create ?choice:cfg.choice ~machine ~meter ~core
      ~volume ~quota ~use_cleaner_daemon:cfg.use_cleaner_daemon
      ~use_io_sched:cfg.use_io_sched ~read_ahead:cfg.read_ahead ()
  in
  let signals = Upward_signal.create ~meter in
  Upward_signal.set_obs signals obs;
  Volume.set_signals volume signals;
  (* A new incarnation resumes its uid supply above everything already
     on disk. *)
  let uid_start =
    match previous_disk with
    | Some _ -> Volume.rebuild_locator volume
    | None -> 0
  in
  let uid_supply = Ids.generator ~start:uid_start () in
  let segment =
    Segment.create ~machine ~meter ~core ~volume ~quota ~page_frame
      ~signals ~ast_slots:cfg.ast_slots ~pt_words:cfg.pt_words ~uid_supply
  in
  let known =
    Known_segment.create ~machine ~meter ~segment
      ~first_user_segno:cfg.hw.Hw.Hw_config.system_segno_split
  in
  let address_space =
    Address_space.create ~machine ~meter ~core ~segment ~known
      ~max_spaces:cfg.max_processes
  in
  let user_process =
    User_process.create ?choice:cfg.choice ~machine ~meter ~known
      ~address_space ~segment ~vp ~policy:cfg.scheduler
      ~state_pack:(cfg.disk_packs - 1) ()
  in
  let directory =
    Directory.create ~machine ~meter ~segment ~quota ~volume ~known
      ~audit:aim_audit
  in
  let gate = Gate.create ~meter ~signals ~directory ~obs in
  List.iter (fun (g, ring) -> Gate.define gate ~name:g ~max_ring:ring)
    gate_table;
  let name_space =
    Name_space.create ~use_cache:cfg.use_path_cache ~obs ~meter ~gate
      ~directory ()
  in
  let fault_dispatch =
    Fault_dispatch.create ~meter ~page_frame ~known ~address_space ~gate ~obs
  in
  (match previous_disk with
  | None ->
      ignore
        (Directory.create_root directory ~caller:Registry.gate
           ~quota_limit:cfg.root_quota)
  | Some _ -> Directory.restore directory ~caller:Registry.gate);
  (* Permanently bound virtual processors. *)
  User_process.bind_scheduler_daemon user_process ~vp_id:0;
  if cfg.use_cleaner_daemon then
    Vp.bind vp ~vp_id:1 ~name:Registry.page_frame_manager
      ~step:(Page_frame.cleaner_step page_frame);
  User_process.bind_user_vps user_process
    ~vp_ids:(List.init user_vps (fun i -> first_user_vp + i));
  (* The system address space, on every physical processor. *)
  Array.iter (Address_space.install_system_dbr address_space)
    machine.Hw.Machine.cpus;
  Core_segment.freeze core;
  let t =
    { cfg; machine; meter; obs; core; vp; volume; quota; page_frame;
      signals; segment; known; address_space; user_process; directory; gate;
      name_space; fault_dispatch; aim_audit; started = false; denials = 0;
      shed_calls = 0; proc_timeouts = 0; brownout_level = 0;
      brownout_escalations = 0; last_brownout_change = 0; breach_snapshot = 0 }
  in
  User_process.set_interpreter user_process (interpreter t);
  if ov.ov_brownout_tick_ns > 0 then arm_brownout t ov;
  t

(* ------------------------------------------------------------------ *)
(* Brownout: graceful degradation under overload.  SLO breaches (from
   the sink's watchdogs — simulated-time latency thresholds) escalate a
   shedding ladder one rung at a time; a periodic tick with no new
   breaches walks it back down.  Rungs, cheapest shed first:
     1  read-ahead off            (prefetch is pure optional work)
     2  cleaner daemon throttled  (fault path evicts inline)
     3  logins shed by load class (whole sessions refused at the door)
   Recovery applies the same rungs in reverse.  The kernel applies the
   first two itself; the Answering Service reads [brownout_level] at
   each login for the third. *)

and total_breaches t =
  List.fold_left
    (fun acc (s : Multics_obs.Sink.slo_view) ->
      acc + s.Multics_obs.Sink.sv_breaches)
    0
    (Multics_obs.Sink.slos t.obs)

and apply_brownout t level =
  Page_frame.set_read_ahead_enabled t.page_frame (level < 1);
  Page_frame.set_cleaner_throttled t.page_frame (level >= 2);
  Multics_obs.Sink.counter_event t.obs ~cat:"kernel" ~name:"brownout_level"
    level

and arm_brownout t ov =
  Multics_obs.Sink.set_on_breach t.obs (fun _histo ->
      let now = Hw.Machine.now t.machine in
      (* Rate-limit escalation to one rung per tick period: a single
         convoy of late requests breaches many watchdogs at once, and
         shedding needs a tick to show up in the latency signal. *)
      if
        t.brownout_level < brownout_max_level
        && (t.brownout_level = 0
           || now - t.last_brownout_change >= ov.ov_brownout_tick_ns)
      then begin
        t.brownout_level <- t.brownout_level + 1;
        t.brownout_escalations <- t.brownout_escalations + 1;
        t.last_brownout_change <- now;
        t.breach_snapshot <- total_breaches t;
        Multics_obs.Sink.count t.obs "kernel.brownout_escalate";
        apply_brownout t t.brownout_level
      end);
  (* The recovery tick: de-escalate one rung per quiet period.  The
     tick re-arms itself only while processes are still running, so a
     drained system's event queue still empties. *)
  let rec tick () =
    if not (Hw.Machine.halted t.machine) then begin
      let breaches = total_breaches t in
      if t.brownout_level > 0 && breaches = t.breach_snapshot then begin
        t.brownout_level <- t.brownout_level - 1;
        t.last_brownout_change <- Hw.Machine.now t.machine;
        Multics_obs.Sink.count t.obs "kernel.brownout_recover";
        apply_brownout t t.brownout_level
      end;
      t.breach_snapshot <- breaches;
      if not (User_process.all_done t.user_process) then
        Hw.Machine.schedule t.machine ~delay:ov.ov_brownout_tick_ns tick
    end
  in
  Hw.Machine.schedule t.machine ~delay:ov.ov_brownout_tick_ns tick

(* ------------------------------------------------------------------ *)
(* The workload interpreter: executes one action of a user process. *)

and interpreter t (p : User_process.proc) : User_process.interp_outcome =
  let action_base = 500 in
  if
    (* Dispatch is a deadline checkpoint: a process whose root context's
       deadline has passed is terminated here rather than allowed to
       keep faulting — the only place an expired request can be retired
       for good (every other checkpoint only refuses one step, and a
       shed page read would otherwise refault forever). *)
    Multics_obs.Sink.ctx_expired t.obs ~now:(Hw.Machine.now t.machine)
      p.User_process.p_ctx
  then begin
    t.proc_timeouts <- t.proc_timeouts + 1;
    Multics_obs.Sink.count t.obs "kernel.proc_timeout";
    User_process.Failed ("deadline expired", action_base)
  end
  else if p.User_process.pc >= Array.length p.User_process.program then
    User_process.Finished action_base
  else
    let subject = subject_of p in
    let ring = p.User_process.ring in
    let deny () =
      t.denials <- t.denials + 1;
      User_process.Did action_base
    in
    match p.User_process.program.(p.User_process.pc) with
    | Workload.Terminate -> User_process.Finished action_base
    | Workload.Compute ns -> User_process.Did (max ns action_base)
    | Workload.Touch { seg_reg; pageno; offset; write } -> (
        let segno = p.User_process.regs.(seg_reg) in
        if segno < 0 then
          User_process.Failed ("touch through empty register", action_base)
        else
          let virt = Hw.Addr.of_page ~segno ~pageno ~offset in
          let access = if write then Hw.Fault.Write else Hw.Fault.Read in
          let rec attempt n =
            if n > 12 then
              User_process.Failed ("unresolvable fault loop", action_base)
            else
              match
                Hw.Cpu.translate t.cfg.hw t.machine.Hw.Machine.mem
                  p.User_process.vcpu virt access
              with
              | Ok abs ->
                  if write then
                    Hw.Phys_mem.write t.machine.Hw.Machine.mem abs
                      ((p.User_process.pid * 1000) + pageno + 1)
                  else ignore (Hw.Phys_mem.read t.machine.Hw.Machine.mem abs);
                  User_process.Did action_base
              | Error fault -> (
                  match
                    Fault_dispatch.handle t.fault_dispatch
                      ~proc:p.User_process.pid fault
                  with
                  | Fault_dispatch.Retry -> attempt (n + 1)
                  | Fault_dispatch.Wait (ec, v) ->
                      User_process.Blocked_page (ec, v, action_base)
                  | Fault_dispatch.Error msg ->
                      User_process.Failed (msg, action_base))
          in
          attempt 0)
    | Workload.Initiate { path; reg } -> (
        match Name_space.initiate t.name_space ~subject ~ring ~path with
        | Error (`No_access | `Bad_path) ->
            p.User_process.regs.(reg) <- -1;
            deny ()
        | Ok target ->
            let segno =
              Known_segment.make_known t.known ~caller:Registry.gate
                ~proc:p.User_process.pid ~uid:target.Directory.t_uid
                ~cell:target.Directory.t_cell ~mode:target.Directory.t_mode
                ~ring
            in
            p.User_process.regs.(reg) <- segno;
            User_process.Did action_base)
    | Workload.Terminate_seg { seg_reg } ->
        let segno = p.User_process.regs.(seg_reg) in
        if segno >= 0 then begin
          Address_space.disconnect t.address_space ~caller:Registry.gate
            ~proc:p.User_process.pid ~segno;
          Known_segment.terminate t.known ~caller:Registry.gate
            ~proc:p.User_process.pid ~segno;
          p.User_process.regs.(seg_reg) <- -1
        end;
        User_process.Did action_base
    | Workload.Create_file { dir; name } -> (
        match with_parent t ~subject ~ring ~path:(dir ^ ">" ^ name) with
        | None -> deny ()
        | Some (dir_uid, leaf) -> (
            match
              gate_call t ~ring "hcs_$append_branch" (fun () ->
                  Directory.create_entry t.directory ~caller:Registry.gate
                    ~subject ~dir_uid ~name:leaf ~kind:Directory.K_segment
                    ~acl:
                      [ Acl.entry p.User_process.principal.Acl.user Acl.rw;
                        Acl.entry "*" Acl.r ]
                    ~label:p.User_process.label)
            with
            | Some (Ok _) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.Create_dir { parent; name } -> (
        match with_parent t ~subject ~ring ~path:(parent ^ ">" ^ name) with
        | None -> deny ()
        | Some (dir_uid, leaf) -> (
            match
              gate_call t ~ring "hcs_$append_branchx" (fun () ->
                  Directory.create_entry t.directory ~caller:Registry.gate
                    ~subject ~dir_uid ~name:leaf ~kind:Directory.K_directory
                    ~acl:[ Acl.entry p.User_process.principal.Acl.user Acl.rwe ]
                    ~label:p.User_process.label)
            with
            | Some (Ok _) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.Delete { path } -> (
        match with_parent t ~subject ~ring ~path with
        | None -> deny ()
        | Some (dir_uid, leaf) -> (
            match
              gate_call t ~ring "hcs_$delentry_file" (fun () ->
                  Directory.delete_entry t.directory ~caller:Registry.gate
                    ~subject ~dir_uid ~name:leaf)
            with
            | Some (Ok ()) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.Set_quota { path; pages } -> (
        match with_parent t ~subject ~ring ~path with
        | None -> deny ()
        | Some (dir_uid, leaf) -> (
            match
              gate_call t ~ring "hcs_$quota_move" (fun () ->
                  Directory.set_quota t.directory ~caller:Registry.gate
                    ~subject ~dir_uid ~name:leaf ~limit:pages)
            with
            | Some (Ok ()) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.Set_acl { path; user; read; write } -> (
        match with_parent t ~subject ~ring ~path with
        | None -> deny ()
        | Some (dir_uid, leaf) -> (
            let acl =
              [ Acl.entry user { Acl.read; write; execute = false };
                Acl.entry p.User_process.principal.Acl.user Acl.rw ]
            in
            match
              gate_call t ~ring "hcs_$set_acl" (fun () ->
                  Directory.set_acl t.directory ~caller:Registry.gate ~subject
                    ~dir_uid ~name:leaf ~acl)
            with
            | Some (Ok ()) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.List_dir { path } -> (
        let resolve () =
          match Name_space.components path with
          | [] -> Some (Directory.root_uid t.directory)
          | _ -> (
              match
                Name_space.resolve_parent t.name_space ~subject ~ring ~path
              with
              | Error `Bad_path -> None
              | Ok (dir_uid, leaf) -> (
                  match
                    Directory.search t.directory ~caller:Registry.gate ~subject
                      ~dir_uid ~name:leaf
                  with
                  | `Found uid -> Some uid
                  | `No_entry -> None))
        in
        match resolve () with
        | None -> deny ()
        | Some dir_uid -> (
            match
              gate_call t ~ring "hcs_$star_list" (fun () ->
                  Directory.list_names t.directory ~caller:Registry.gate
                    ~subject ~dir_uid)
            with
            | Some (Ok _) -> User_process.Did action_base
            | _ -> deny ()))
    | Workload.Execute { seg_reg; entry } -> (
        let segno = p.User_process.regs.(seg_reg) in
        if segno < 0 then
          User_process.Failed ("execute through empty register", action_base)
        else begin
          let state =
            match p.User_process.isa with
            | Some st -> st
            | None ->
                let st = Hw.Isa.init ~segno ~entry in
                p.User_process.isa <- Some st;
                st
          in
          (* Retire a burst of instructions per dispatch step. *)
          let burst = 16 in
          let rec run n cost =
            if n >= burst then User_process.Again cost
            else
              match
                Hw.Isa.step t.cfg.hw t.machine.Hw.Machine.mem
                  p.User_process.vcpu state
              with
              | Hw.Isa.Ok c -> run (n + 1) (cost + c)
              | Hw.Isa.Halt c ->
                  p.User_process.isa <- None;
                  User_process.Did (cost + c)
              | Hw.Isa.Illegal msg ->
                  p.User_process.isa <- None;
                  User_process.Failed (msg, cost + action_base)
              | Hw.Isa.Fault fault -> (
                  match
                    Fault_dispatch.handle t.fault_dispatch
                      ~proc:p.User_process.pid fault
                  with
                  | Fault_dispatch.Retry -> run n cost
                  | Fault_dispatch.Wait (ec, v) ->
                      User_process.Blocked_page (ec, v, cost + action_base)
                  | Fault_dispatch.Error msg ->
                      p.User_process.isa <- None;
                      User_process.Failed (msg, cost + action_base))
          in
          run 0 0
        end)
    | Workload.Await_ec { ec; value } ->
        let event = User_process.user_eventcount t.user_process ec in
        if Sync.Eventcount.read event >= value then User_process.Did action_base
        else User_process.Blocked_user (event, value, action_base)
    | Workload.Advance_ec { ec } ->
        let event = User_process.user_eventcount t.user_process ec in
        ignore
          (gate_call t ~ring "hcs_$wakeup" (fun () ->
               Sync.Eventcount.advance event));
        User_process.Did action_base

and gate_call : 'a. t -> ring:int -> string -> (unit -> 'a) -> 'a option =
 fun t ~ring gate_name f ->
  match Gate.call t.gate ~name:gate_name ~caller_ring:ring f with
  | Ok v -> Some v
  | Error `Timed_out ->
      t.shed_calls <- t.shed_calls + 1;
      None
  | Error (`No_gate | `Ring_violation) -> None

and with_parent t ~subject ~ring ~path =
  match Name_space.resolve_parent t.name_space ~subject ~ring ~path with
  | Ok (dir_uid, leaf) -> Some (dir_uid, leaf)
  | Error `Bad_path -> None

let boot cfg = boot_internal cfg

let shutdown t =
  if not (User_process.all_done t.user_process) then
    failwith "Kernel.shutdown: processes still running";
  (* Caches do not survive an incarnation. *)
  Name_space.clear_cache t.name_space;
  Hw.Machine.flush_all_tlbs t.machine;
  Directory.persist t.directory ~caller:Registry.gate;
  List.iter
    (fun slot -> Segment.deactivate t.segment ~caller:Registry.gate ~slot)
    (Segment.active_slots t.segment);
  List.iter
    (fun (cell, _, _) ->
      Quota_cell.unregister t.quota ~caller:Registry.gate cell)
    (Quota_cell.registered t.quota);
  (* Settle every write-behind so the packs outlive this incarnation
     intact. *)
  Volume.quiesce t.volume

(* Make the current hierarchy durable without shutting down: persist
   every directory's payload and settle the write-behinds.  The chaos
   bench's analogue of Multics' periodic "hierarchy dumper" — a crash
   after a checkpoint loses at most the work since it. *)
let checkpoint t =
  Directory.persist t.directory ~caller:Registry.gate;
  Volume.quiesce t.volume

let halted t = Hw.Machine.halted t.machine

let reboot cfg ~from =
  (* Defensive: a caller that skipped shutdown still gets settled
     packs.  After a power failure nothing more may land — the torn
     buffer is the whole point — so a halted machine is left alone. *)
  if not (Hw.Machine.halted from.machine) then Volume.quiesce from.volume;
  boot_internal ~previous_disk:from.machine.Hw.Machine.disk cfg

(* ------------------------------------------------------------------ *)

let machine t = t.machine
let meter t = t.meter
let obs t = t.obs
let core t = t.core
let vp t = t.vp
let volume t = t.volume
let quota t = t.quota
let page_frame t = t.page_frame
let segment t = t.segment
let user_process t = t.user_process
let directory t = t.directory
let gate t = t.gate
let name_space t = t.name_space
let signals t = t.signals
let aim_audit t = t.aim_audit
let config t = t.cfg

let admin_parent t ~path =
  match
    Name_space.resolve_parent t.name_space ~subject:root_subject ~ring:1 ~path
  with
  | Ok v -> v
  | Error `Bad_path -> failwith (Printf.sprintf "bad path %S" path)

let mkdir t ~path ~acl ~label =
  let dir_uid, leaf = admin_parent t ~path in
  match
    Gate.call t.gate ~name:"hcs_$append_branchx" ~caller_ring:1 (fun () ->
        Directory.create_entry t.directory ~caller:Registry.gate
          ~subject:root_subject ~dir_uid ~name:leaf
          ~kind:Directory.K_directory ~acl ~label)
  with
  | Ok (Ok _) | Ok (Error `Name_duplicated) -> ()
  | Ok (Error `No_access) -> failwith ("mkdir: no access: " ^ path)
  | Ok (Error `Bad_label) -> failwith ("mkdir: bad label: " ^ path)
  | Ok (Error `No_space) -> failwith ("mkdir: no space: " ^ path)
  | Error _ -> failwith "mkdir: gate failure"

let create_file t ~path ~acl ~label =
  let dir_uid, leaf = admin_parent t ~path in
  match
    Gate.call t.gate ~name:"hcs_$append_branch" ~caller_ring:1 (fun () ->
        Directory.create_entry t.directory ~caller:Registry.gate
          ~subject:root_subject ~dir_uid ~name:leaf ~kind:Directory.K_segment
          ~acl ~label)
  with
  | Ok (Ok _) -> ()
  | Ok (Error `Name_duplicated) -> ()
  | _ -> failwith ("create_file: failed: " ^ path)

let set_quota t ~path ~limit =
  let dir_uid, leaf = admin_parent t ~path in
  match
    Gate.call t.gate ~name:"hphcs_$set_quota" ~caller_ring:1 (fun () ->
        Directory.set_quota t.directory ~caller:Registry.gate
          ~subject:root_subject ~dir_uid ~name:leaf ~limit)
  with
  | Ok (Ok ()) -> ()
  | Ok (Error `Has_children) -> failwith ("set_quota: has children: " ^ path)
  | Ok (Error `Over_quota) -> failwith ("set_quota: over quota: " ^ path)
  | _ -> failwith ("set_quota: failed: " ^ path)

let quota_usage t ~path =
  let dir_uid, leaf = admin_parent t ~path in
  Directory.quota_usage t.directory ~caller:Registry.gate ~dir_uid ~name:leaf

let load_program t ~path words =
  let target =
    match
      Name_space.initiate t.name_space ~subject:root_subject ~ring:1 ~path
    with
    | Ok target -> target
    | Error _ -> failwith ("load_program: cannot initiate " ^ path)
  in
  let slot =
    match
      Segment.activate t.segment ~caller:Registry.gate
        ~uid:target.Directory.t_uid ~cell:target.Directory.t_cell
    with
    | Ok slot -> slot
    | Error _ -> failwith "load_program: cannot activate"
  in
  List.iteri
    (fun i word ->
      match
        Segment.write_word t.segment ~caller:Registry.gate ~slot
          ~pageno:(i / Hw.Addr.page_size)
          ~offset:(i mod Hw.Addr.page_size)
          word
      with
      | Ok () -> ()
      | Error _ -> failwith "load_program: write failed")
    words

let spawn t ?(principal = { Acl.user = "user"; project = "proj" })
    ?(label = Aim.Label.system_low) ?(trusted = false) ?(ring = 5)
    ?deadline_ns ~pname program =
  (* The spawn is a request root: a relative deadline becomes the
     process's absolute one.  Precedence: an explicit argument wins;
     otherwise an ambient deadline (the caller — say a deadlined
     login — is mid-request and the process belongs to it) is
     inherited by [create_process]; the overload config's default
     applies only to spawns arriving with neither. *)
  let ambient =
    Multics_obs.Sink.ctx_deadline t.obs (Multics_obs.Sink.current t.obs) > 0
  in
  let deadline_ns =
    match deadline_ns with
    | Some _ as d -> d
    | None when ambient -> None
    | None when t.cfg.overload.ov_deadline_ns > 0 ->
        Some t.cfg.overload.ov_deadline_ns
    | None -> None
  in
  let deadline =
    Option.map (fun d -> Hw.Machine.now t.machine + d) deadline_ns
  in
  User_process.create_process ?deadline t.user_process ~caller:Registry.gate
    ~pname ~principal ~label ~trusted ~ring ~program

let start t =
  if not t.started then begin
    t.started <- true;
    Vp.start t.vp
  end

let run ?until ?max_events t =
  start t;
  Hw.Machine.run ?until ?max_events t.machine

let run_to_completion ?(max_events = 2_000_000) t =
  run ~max_events t;
  User_process.all_done t.user_process

let now t = Hw.Machine.now t.machine
let denials t = t.denials
let shed_calls t = t.shed_calls
let proc_timeouts t = t.proc_timeouts
let brownout_level t = t.brownout_level
let brownout_escalations t = t.brownout_escalations

type cache_report = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  path_hits : int;
  path_misses : int;
  path_invalidations : int;
}

let stats t =
  let m = t.machine in
  (* Reaped processes' vCPUs leave the broadcast set; their counters
     persist in the machine's retired totals. *)
  let tlb read retired =
    List.fold_left
      (fun acc (cpu : Hw.Cpu.t) -> acc + read cpu.Hw.Cpu.tlb)
      retired (Hw.Machine.all_cpus m)
  in
  { tlb_hits = tlb Hw.Assoc_mem.hits m.Hw.Machine.retired_tlb_hits;
    tlb_misses = tlb Hw.Assoc_mem.misses m.Hw.Machine.retired_tlb_misses;
    tlb_flushes = tlb Hw.Assoc_mem.flushes m.Hw.Machine.retired_tlb_flushes;
    path_hits = Name_space.cache_hits t.name_space;
    path_misses = Name_space.cache_misses t.name_space;
    path_invalidations = Name_space.cache_invalidations t.name_space }

type io_report = {
  io_reads : int;
  io_writes : int;
  io_batches : int;
  io_merges : int;
  io_mean_batch : float;
  io_max_batch : int;
  io_queue_peak : int;
  io_busy_ns : int;
  prefetch_issued : int;
  prefetch_hits : int;
  prefetch_dropped : int;
  io_retries : int;
  io_dead_records : int;
  io_spared : int;
  io_damaged : int;
  io_offline : int;
  io_timeouts : int;
  io_fast_fails : int;
  io_budget_denied : int;
  io_breaker_opens : int;
  io_breaker_probes : int;
  io_breaker_closes : int;
}

let io_stats t =
  let s = Volume.io_stats t.volume in
  { io_reads = s.Hw.Io_sched.s_reads;
    io_writes = s.Hw.Io_sched.s_writes;
    io_batches = s.Hw.Io_sched.s_batches;
    io_merges = s.Hw.Io_sched.s_merges;
    io_mean_batch = Hw.Io_sched.mean_batch s;
    io_max_batch = s.Hw.Io_sched.s_max_batch;
    io_queue_peak = s.Hw.Io_sched.s_queue_peak;
    io_busy_ns = s.Hw.Io_sched.s_busy_ns;
    prefetch_issued = Page_frame.prefetch_issued t.page_frame;
    prefetch_hits = Page_frame.prefetch_hits t.page_frame;
    prefetch_dropped = Page_frame.prefetch_dropped t.page_frame;
    io_retries = s.Hw.Io_sched.s_retries;
    io_dead_records = s.Hw.Io_sched.s_gave_up;
    io_spared = Volume.spared_records t.volume;
    io_damaged = Volume.damaged_pages t.volume;
    io_offline = Volume.offline_signals t.volume;
    io_timeouts = s.Hw.Io_sched.s_timeouts;
    io_fast_fails = s.Hw.Io_sched.s_fast_fails;
    io_budget_denied = s.Hw.Io_sched.s_budget_denied;
    io_breaker_opens = s.Hw.Io_sched.s_breaker_opens;
    io_breaker_probes = s.Hw.Io_sched.s_breaker_probes;
    io_breaker_closes = s.Hw.Io_sched.s_breaker_closes }

let dependency_audit t = Meter.calls t.meter

let pp_slos ppf t =
  match Multics_obs.Sink.slos t.obs with
  | [] -> ()
  | slos ->
      Format.fprintf ppf "  slo watchdogs (threshold in simulated ns):@.";
      List.iter
        (fun (s : Multics_obs.Sink.slo_view) ->
          if s.Multics_obs.Sink.sv_breaches = 0 then
            Format.fprintf ppf "    %-16s <= %-10d ok@."
              s.Multics_obs.Sink.sv_histo s.Multics_obs.Sink.sv_threshold
          else
            Format.fprintf ppf
              "    %-16s <= %-10d %d breaches, worst %d, last %d at t=%d \
               ctx=%d@."
              s.Multics_obs.Sink.sv_histo s.Multics_obs.Sink.sv_threshold
              s.Multics_obs.Sink.sv_breaches s.Multics_obs.Sink.sv_worst
              s.Multics_obs.Sink.sv_last_ns s.Multics_obs.Sink.sv_last_t
              s.Multics_obs.Sink.sv_last_ctx)
        slos

let slo_report t = Format.asprintf "%a" pp_slos t

let trace_report t =
  Format.asprintf "%a%a" Multics_obs.Trace_export.pp_timeline
    (Multics_obs.Sink.buf t.obs)
    pp_slos t

let flight_dump t = Multics_obs.Sink.flight_dump t.obs

let pp_histos ppf t =
  match Multics_obs.Sink.histos t.obs with
  | [] -> ()
  | histos ->
      Format.fprintf ppf "  latency histograms (simulated ns):@.";
      List.iter
        (fun h -> Format.fprintf ppf "    %a@." Multics_obs.Histo.pp h)
        histos

let histo_report t = Format.asprintf "%a" pp_histos t

let chrome_trace t =
  let census =
    List.map
      (fun (from, to_, count) -> ("dep:" ^ from ^ "->" ^ to_, count))
      (Dg.Conformance.observed (dependency_audit t))
  in
  Multics_obs.Trace_export.chrome_json
    ~counters:(Multics_obs.Sink.counters t.obs @ census)
    (Multics_obs.Sink.buf t.obs)

let pp_report ppf t =
  Format.fprintf ppf "Kernel/Multics after %d simulated us@." (now t / 1000);
  Format.fprintf ppf "  processes: %d completed, %d failed, %d denials@."
    (User_process.completed t.user_process)
    (User_process.failed t.user_process)
    t.denials;
  Format.fprintf ppf
    "  paging: %d faults, %d reads, %d writes, %d evictions (%d zero \
     reclaims, %d inline)@."
    (Page_frame.faults_served t.page_frame)
    (Page_frame.page_reads t.page_frame)
    (Page_frame.page_writes t.page_frame)
    (Page_frame.evictions t.page_frame)
    (Page_frame.zero_reclaims t.page_frame)
    (Page_frame.inline_evictions t.page_frame);
  Format.fprintf ppf
    "  segments: %d activations, %d deactivations, %d relocations, %d grows@."
    (Segment.activations t.segment)
    (Segment.deactivations t.segment)
    (Segment.relocations t.segment)
    (Segment.grows t.segment);
  Format.fprintf ppf "  signals: %d raised; full packs: %d@."
    (Upward_signal.total_raised t.signals)
    (Volume.full_pack_exceptions t.volume);
  let io = io_stats t in
  Format.fprintf ppf
    "  disk i/o: %d reads, %d writes in %d batches (mean %.1f, max %d), %d \
     merges, queue peak %d, arm busy %d us@."
    io.io_reads io.io_writes io.io_batches io.io_mean_batch io.io_max_batch
    io.io_merges io.io_queue_peak (io.io_busy_ns / 1000);
  Format.fprintf ppf
    "  read-ahead: %d issued, %d hits, %d dropped at low water@."
    io.prefetch_issued io.prefetch_hits io.prefetch_dropped;
  if
    io.io_retries + io.io_dead_records + io.io_spared + io.io_damaged
    + io.io_offline
    > 0
  then
    Format.fprintf ppf
      "  fault handling: %d retries, %d records died, %d spared, %d pages \
       damaged, %d packs offline@."
      io.io_retries io.io_dead_records io.io_spared io.io_damaged
      io.io_offline;
  if
    io.io_timeouts + io.io_fast_fails + io.io_budget_denied
    + io.io_breaker_opens + t.shed_calls + t.proc_timeouts
    + t.brownout_escalations
    > 0
  then
    Format.fprintf ppf
      "  overload: %d i/o timeouts, %d fast-fails, %d budget-denied; \
       breakers %d opened %d probed %d closed; %d calls shed, %d processes \
       timed out; brownout level %d after %d escalations@."
      io.io_timeouts io.io_fast_fails io.io_budget_denied io.io_breaker_opens
      io.io_breaker_probes io.io_breaker_closes t.shed_calls t.proc_timeouts
      t.brownout_level t.brownout_escalations;
  Format.fprintf ppf
    "  vps: %d dispatches, %d switches, %d wakeup-waiting saves@."
    (Vp.dispatches t.vp) (Vp.context_switches t.vp)
    (Vp.wakeup_waiting_saves t.vp);
  Format.fprintf ppf "  gates: %d defined (%d user-callable), %d calls@."
    (Gate.registered t.gate) (Gate.user_callable t.gate)
    (Gate.calls_total t.gate);
  Format.fprintf ppf "  caches:@.";
  let pp_cache cache hits misses invalidations =
    let lookups = hits + misses in
    Format.fprintf ppf
      "    %-12s %8d hits %8d misses %6d invalidations (%.1f%% hit)@." cache
      hits misses invalidations
      (if lookups = 0 then 0.0
       else 100.0 *. (float_of_int hits /. float_of_int lookups))
  in
  let c = stats t in
  pp_cache "sdw_am" c.tlb_hits c.tlb_misses c.tlb_flushes;
  pp_cache "pathname" c.path_hits c.path_misses c.path_invalidations;
  pp_cache "read_ahead" io.prefetch_hits
    (max 0 (io.prefetch_issued - io.prefetch_hits))
    io.prefetch_dropped;
  pp_histos ppf t;
  pp_slos ppf t;
  (match Multics_obs.Sink.by_user t.obs with
  | [] -> ()
  | users ->
      Format.fprintf ppf "  usage by user:@.";
      List.iter
        (fun (user, (cpu_ns, ios)) ->
          Format.fprintf ppf "    %-16s %8d us cpu %6d ios@." user
            (cpu_ns / 1000) ios)
        users);
  Format.fprintf ppf "  kernel time by manager:@.";
  List.iter
    (fun (manager, ns) ->
      Format.fprintf ppf "    %-28s %8d us@." manager (ns / 1000))
    (Meter.by_manager t.meter)
