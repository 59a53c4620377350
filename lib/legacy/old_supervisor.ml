module K = Multics_kernel
module Hw = Multics_hw
module Sync = Multics_sync
module Dg = Multics_depgraph
open Old_types

type config = {
  hw : Hw.Hw_config.t;
  disk_packs : int;
  records_per_pack : int;
  reserved_frames : int;
  ast_slots : int;
  pt_words : int;
  max_processes : int;
  quantum : int;
  root_quota : int;
}

let default_config =
  { hw = Hw.Hw_config.legacy_multics;
    disk_packs = 4; records_per_pack = 1024; reserved_frames = 32;
    ast_slots = 64; pt_words = 64; max_processes = 16; quantum = 32;
    root_quota = 2048 }

let small_config =
  { default_config with
    hw = Hw.Hw_config.with_frames Hw.Hw_config.legacy_multics 64;
    disk_packs = 3; records_per_pack = 64; reserved_frames = 24;
    ast_slots = 16; pt_words = 16; max_processes = 8; root_quota = 128 }

type t = {
  st : Old_types.state;
  cfg : config;
  current : int option array;  (* per-cpu loaded pid *)
  last_pid : int array;
  user_ecs : (string, Sync.Eventcount.t) Hashtbl.t;
  mutable started : bool;
}

let state t = t.st
let now t = Hw.Machine.now t.st.machine
let stats t = t.st.stats
let meter t = t.st.meter

(* ------------------------------------------------------------------ *)
(* Boot *)

let boot cfg =
  let machine =
    Hw.Machine.create ~disk_packs:cfg.disk_packs
      ~records_per_pack:cfg.records_per_pack cfg.hw
  in
  let total = Hw.Phys_mem.frames machine.Hw.Machine.mem in
  let reserved_base_frame = total - cfg.reserved_frames in
  let reserved_base = Hw.Addr.frame_base reserved_base_frame in
  let pt_area_words = cfg.ast_slots * cfg.pt_words in
  let dseg_area_base = reserved_base + pt_area_words in
  let dseg_words = Hw.Addr.max_segments * Hw.Sdw.words in
  assert (
    pt_area_words + (cfg.max_processes * dseg_words)
    <= cfg.reserved_frames * Hw.Addr.page_size);
  let st =
    { machine;
      meter = K.Meter.create ~declared:(Dg.Graph.create ());
      ast =
        Array.init cfg.ast_slots (fun i ->
            { oe_index = i; oe_uid = -1; oe_pack = 0; oe_vtoc = 0;
              oe_parent = -1; oe_is_dir = false; oe_quota_limit = -1;
              oe_quota_used = 0; oe_active_inferiors = 0; oe_live = false;
              oe_pt_base = reserved_base + (i * cfg.pt_words) });
      pt_words = cfg.pt_words;
      frames =
        Array.init reserved_base_frame (fun _ ->
            { fr_ptw = -1; fr_record = -1; fr_ast = -1; fr_pageno = -1 });
      free_frames = List.init reserved_base_frame (fun i -> i);
      n_free = reserved_base_frame;
      clock_hand = 0;
      fault_intervals = [];
      dirs = Hashtbl.create 32;
      root_uid = 0;
      next_uid = 1;
      procs = Hashtbl.create 16;
      ready = Queue.create ();
      cpu_busy = Array.make cfg.hw.Hw.Hw_config.n_cpus false;
      next_pid = 1;
      quantum = cfg.quantum;
      dseg_area_base;
      stats =
        { st_faults = 0; st_page_reads = 0; st_page_writes = 0;
          st_evictions = 0; st_zero_reclaims = 0; st_retranslations = 0;
          st_lock_contentions = 0; st_quota_search_levels = 0;
          st_quota_searches = 0; st_full_packs = 0; st_relocations = 0;
          st_resolutions = 0; st_switches = 0; st_loads = 0;
          st_completed = 0; st_failed = 0; st_denials = 0;
          st_deactivation_blocked = 0 } }
  in
  (* The root directory, a quota repository for the whole system. *)
  let root_uid = fresh_uid st in
  st.root_uid <- root_uid;
  let map = Array.make Hw.Addr.max_pages_per_segment Hw.Disk.unallocated in
  let _root_vtoc =
    Hw.Disk.create_vtoc_entry machine.Hw.Machine.disk ~pack:0
      { Hw.Disk.uid = root_uid; file_map = map; len_pages = 0;
        is_directory = true;
        quota = Some { Hw.Disk.limit = cfg.root_quota; used = 0 };
        aim_label = 0; damaged = false; is_process_state = false }
  in
  Hashtbl.replace st.dirs root_uid
    { odir_uid = root_uid; odir_parent = -1; odir_is_quota = true;
      odir_entries = Hashtbl.create 16;
      odir_acl = [ K.Acl.entry "*" K.Acl.rwe ]; odir_depth = 0 };
  (* Process-state segments live in >pdd, out of users' way. *)
  (match
     Old_storage.create_segment st ~dir_uid:root_uid ~name:"pdd" ~is_dir:true
       ~acl:[ K.Acl.entry "root" K.Acl.rwe ]
   with
  | Ok _ -> ()
  | Error _ -> failwith "Old_supervisor.boot: cannot create >pdd");
  { st; cfg;
    current = Array.make cfg.hw.Hw.Hw_config.n_cpus None;
    last_pid = Array.make cfg.hw.Hw.Hw_config.n_cpus (-1);
    user_ecs = Hashtbl.create 8;
    started = false }

(* ------------------------------------------------------------------ *)
(* Administrative helpers (no AIM in the pre-kernel system model). *)

let root_principal = { K.Acl.user = "root"; project = "sys" }

let split_parent path =
  match List.rev (String.split_on_char '>' path |> List.filter (( <> ) "")) with
  | [] -> failwith "bad path"
  | leaf :: rev ->
      (String.concat ">" (List.rev rev), leaf)

let mkdir t ~path ~acl =
  let parent, leaf = split_parent path in
  match
    Old_directory.create_entry t.st ~principal:root_principal
      ~dir_path:parent ~name:leaf ~is_dir:true ~acl
  with
  | Ok _ | Error `Name_duplicated -> ()
  | Error `No_access -> failwith ("mkdir: no access: " ^ path)

let create_file t ~path ~acl =
  let parent, leaf = split_parent path in
  match
    Old_directory.create_entry t.st ~principal:root_principal
      ~dir_path:parent ~name:leaf ~is_dir:false ~acl
  with
  | Ok _ | Error `Name_duplicated -> ()
  | Error `No_access -> failwith ("create_file: no access: " ^ path)

let set_quota t ~path ~limit =
  match
    Old_directory.set_quota t.st ~principal:root_principal ~path ~limit
  with
  | Ok () -> ()
  | Error `No_access -> failwith ("set_quota: no access: " ^ path)

let quota_usage t ~path = Old_directory.quota_usage t.st ~path

(* ------------------------------------------------------------------ *)
(* Process control (single level) *)

let user_eventcount t name =
  match Hashtbl.find_opt t.user_ecs name with
  | Some ec -> ec
  | None ->
      let ec =
        Sync.Eventcount.create ~name:("old.user." ^ name)
          ~obs:(Hw.Machine.obs t.st.machine) ()
      in
      Hashtbl.replace t.user_ecs name ec;
      ec

type step_outcome =
  | S_did of int
  | S_block of Sync.Eventcount.t * int * int
  | S_finish of int
  | S_fail of string * int

let proc t pid = Hashtbl.find t.st.procs pid

(* Connect a known segment eagerly (legacy has no lazy missing-segment
   machinery worth modelling separately). *)
let connect_segment t (p : oproc) ~segno ~uid ~mode =
  match Old_storage.activate t.st ~uid with
  | Error `Gone -> Error "segment gone"
  | Error `No_slot -> Error "AST full"
  | Ok ast ->
      Old_storage.connect t.st p ~segno ~ast ~mode;
      Ok ()

let interpret t (p : oproc) =
  let base = 500 in
  if p.op_pc >= Array.length p.op_program then S_finish base
  else
    match p.op_program.(p.op_pc) with
    | K.Workload.Terminate -> S_finish base
    | K.Workload.Compute ns -> S_did (max ns base)
    | K.Workload.Touch { seg_reg; pageno; offset; write } -> (
        let segno = p.op_regs.(seg_reg) in
        if segno < 0 then S_fail ("touch through empty register", base)
        else
          let virt = Hw.Addr.of_page ~segno ~pageno ~offset in
          let access = if write then Hw.Fault.Write else Hw.Fault.Read in
          let rec attempt n =
            if n > 12 then S_fail ("unresolvable fault loop", base)
            else
              match
                Hw.Cpu.translate t.cfg.hw t.st.machine.Hw.Machine.mem p.op_vcpu
                  virt access
              with
              | Ok abs ->
                  if write then
                    Hw.Phys_mem.write t.st.machine.Hw.Machine.mem abs
                      ((p.op_pid * 1000) + pageno + 1)
                  else ignore (Hw.Phys_mem.read t.st.machine.Hw.Machine.mem abs);
                  S_did base
              | Error (Hw.Fault.Missing_page { ptw_abs; _ }) -> (
                  p.op_faults <- p.op_faults + 1;
                  match Old_storage.service_page_fault t.st p ~ptw_abs with
                  | Old_storage.O_retry -> attempt (n + 1)
                  | Old_storage.O_wait (ec, v) -> S_block (ec, v, base)
                  | Old_storage.O_error msg -> S_fail (msg, base))
              | Error (Hw.Fault.Missing_segment { segno }) -> (
                  match Hashtbl.find_opt p.op_kst segno with
                  | None -> S_fail ("segment fault on unknown segno", base)
                  | Some uid -> (
                      match
                        connect_segment t p ~segno ~uid ~mode:K.Acl.rw
                      with
                      | Ok () -> attempt (n + 1)
                      | Error msg -> S_fail (msg, base)))
              | Error (Hw.Fault.Access_violation _) ->
                  S_fail ("access violation", base)
              | Error f -> S_fail (Hw.Fault.to_string f, base)
          in
          attempt 0)
    | K.Workload.Initiate { path; reg } -> (
        (* One gate, whole resolution inside the kernel. *)
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match Old_directory.resolve t.st ~principal:p.op_principal ~path with
        | Error `No_access ->
            p.op_regs.(reg) <- -1;
            S_did base
        | Ok (de, mode) -> (
            match Hashtbl.find_opt p.op_kst_rev de.od_uid with
            | Some segno ->
                p.op_regs.(reg) <- segno;
                S_did base
            | None -> (
                let segno = p.op_next_segno in
                p.op_next_segno <- segno + 1;
                Hashtbl.replace p.op_kst segno de.od_uid;
                Hashtbl.replace p.op_kst_rev de.od_uid segno;
                match connect_segment t p ~segno ~uid:de.od_uid ~mode with
                | Ok () ->
                    p.op_regs.(reg) <- segno;
                    S_did base
                | Error msg -> S_fail (msg, base))))
    | K.Workload.Terminate_seg { seg_reg } ->
        let segno = p.op_regs.(seg_reg) in
        if segno >= 0 then begin
          (match Hashtbl.find_opt p.op_kst segno with
          | Some uid -> Hashtbl.remove p.op_kst_rev uid
          | None -> ());
          Hashtbl.remove p.op_kst segno;
          Hw.Sdw.write_at t.st.machine.Hw.Machine.mem
            (p.op_dseg_base + (segno * Hw.Sdw.words))
            Hw.Sdw.invalid;
          p.op_regs.(seg_reg) <- -1
        end;
        S_did base
    | K.Workload.Create_file { dir; name } -> (
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match
          Old_directory.create_entry t.st ~principal:p.op_principal
            ~dir_path:dir ~name ~is_dir:false
            ~acl:[ K.Acl.entry p.op_principal.K.Acl.user K.Acl.rw ]
        with
        | Ok _ -> S_did base
        | Error _ ->
            t.st.stats.st_denials <- t.st.stats.st_denials + 1;
            S_did base)
    | K.Workload.Create_dir { parent; name } -> (
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match
          Old_directory.create_entry t.st ~principal:p.op_principal
            ~dir_path:parent ~name ~is_dir:true
            ~acl:[ K.Acl.entry p.op_principal.K.Acl.user K.Acl.rwe ]
        with
        | Ok _ -> S_did base
        | Error _ ->
            t.st.stats.st_denials <- t.st.stats.st_denials + 1;
            S_did base)
    | K.Workload.Delete { path } -> (
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match
          Old_directory.delete_entry t.st ~principal:p.op_principal ~path
        with
        | Ok () -> S_did base
        | Error _ ->
            t.st.stats.st_denials <- t.st.stats.st_denials + 1;
            S_did base)
    | K.Workload.Set_quota { path; pages } -> (
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match
          Old_directory.set_quota t.st ~principal:p.op_principal ~path
            ~limit:pages
        with
        | Ok () -> S_did base
        | Error _ ->
            t.st.stats.st_denials <- t.st.stats.st_denials + 1;
            S_did base)
    | K.Workload.Set_acl _ ->
        (* The pre-kernel supervisor model does not expose ACL editing;
           count it as a refused request. *)
        t.st.stats.st_denials <- t.st.stats.st_denials + 1;
        S_did base
    | K.Workload.List_dir { path } -> (
        charge_pl1 t.st ~manager:directory_control K.Cost.gate_crossing;
        match Old_directory.list_names t.st ~principal:p.op_principal ~path with
        | Ok _ -> S_did base
        | Error _ ->
            t.st.stats.st_denials <- t.st.stats.st_denials + 1;
            S_did base)
    | K.Workload.Execute _ ->
        S_fail ("the legacy model does not interpret machine code", base)
    | K.Workload.Await_ec { ec; value } ->
        let event = user_eventcount t ec in
        if Sync.Eventcount.read event >= value then S_did base
        else S_block (event, value, base)
    | K.Workload.Advance_ec { ec } ->
        Sync.Eventcount.advance (user_eventcount t ec);
        S_did base

(* Switching process states touches the (pageable!) state segment:
   process control depending on segment control. *)
let touch_state t (p : oproc) =
  share t.st ~from:process_control ~to_:segment_control;
  match
    Old_storage.kernel_touch_sync t.st ~uid:p.op_state_uid ~pageno:0
      ~write:true
  with
  | Ok () -> ()
  | Error _ -> ()

let rec kick t =
  Array.iteri
    (fun i busy ->
      if (not busy) && not (Queue.is_empty t.st.ready) then begin
        t.st.cpu_busy.(i) <- true;
        Hw.Machine.schedule t.st.machine ~delay:0 (fun () -> run_cpu t i)
      end)
    t.st.cpu_busy

and run_cpu t i =
  let dispatch_next () =
    match Queue.take_opt t.st.ready with
    | None ->
        t.st.cpu_busy.(i) <- false;
        t.current.(i) <- None
    | Some pid ->
        let p = proc t pid in
        if p.op_state <> O_ready then run_cpu t i
        else begin
          ignore (K.Meter.take_pending t.st.meter);
          p.op_state <- O_running;
          p.op_quantum <- t.st.quantum;
          t.current.(i) <- Some pid;
          t.st.stats.st_loads <- t.st.stats.st_loads + 1;
          if t.last_pid.(i) <> pid then begin
            t.st.stats.st_switches <- t.st.stats.st_switches + 1;
            charge_asm t.st ~manager:process_control
              (K.Cost.context_switch_vp + K.Cost.process_load);
            touch_state t p
          end;
          t.last_pid.(i) <- pid;
          let cost = max 1 (K.Meter.take_pending t.st.meter) in
          Hw.Machine.schedule t.st.machine ~delay:cost (fun () -> run_cpu t i)
        end
  in
  match t.current.(i) with
  | None -> dispatch_next ()
  | Some pid ->
      let p = proc t pid in
      if p.op_quantum <= 0 then begin
        (* Preempt: write the state segment out. *)
        ignore (K.Meter.take_pending t.st.meter);
        touch_state t p;
        p.op_state <- O_ready;
        Queue.add pid t.st.ready;
        t.current.(i) <- None;
        let cost = max 1 (K.Meter.take_pending t.st.meter) in
        Hw.Machine.schedule t.st.machine ~delay:cost (fun () -> run_cpu t i)
      end
      else begin
        ignore (K.Meter.take_pending t.st.meter);
        let outcome = interpret t p in
        let kernel_cost = K.Meter.take_pending t.st.meter in
        let base =
          match outcome with
          | S_did c | S_block (_, _, c) | S_finish c | S_fail (_, c) -> c
        in
        let total = max 1 (base + kernel_cost) in
        p.op_cpu_ns <- p.op_cpu_ns + total;
        Hw.Machine.schedule t.st.machine ~delay:total (fun () ->
            (match outcome with
            | S_did _ ->
                p.op_pc <- p.op_pc + 1;
                p.op_quantum <- p.op_quantum - 1
            | S_block (ec, value, _) ->
                (* Give the processor to another process: page control
                   invoking process control. *)
                share t.st ~from:page_control ~to_:process_control;
                p.op_state <- O_waiting;
                t.current.(i) <- None;
                let ready_now =
                  Sync.Eventcount.await ec ~value ~notify:(fun () ->
                      if p.op_state = O_waiting then begin
                        p.op_state <- O_ready;
                        (* Re-check the blocking action. *)
                        Queue.add p.op_pid t.st.ready;
                        kick t
                      end)
                in
                if ready_now then begin
                  p.op_state <- O_ready;
                  Queue.add p.op_pid t.st.ready
                end
            | S_finish _ ->
                p.op_state <- O_done;
                t.st.stats.st_completed <- t.st.stats.st_completed + 1;
                t.current.(i) <- None
            | S_fail (msg, _) ->
                p.op_state <- O_failed msg;
                t.st.stats.st_failed <- t.st.stats.st_failed + 1;
                t.current.(i) <- None);
            run_cpu t i)
      end

(* Blocked processes that re-enter via Await must not re-run the action
   that blocked them when it was an Await_ec that is now satisfied; the
   interpreter re-checks, so re-running is safe and correct for every
   blocking action (touches retry, awaits re-test). *)

let spawn t ?(principal = { K.Acl.user = "user"; project = "proj" }) ~pname
    program =
  ignore pname;
  let pid = t.st.next_pid in
  t.st.next_pid <- pid + 1;
  if pid > t.cfg.max_processes then
    failwith "Old_supervisor.spawn: process table full";
  let dseg_words = Hw.Addr.max_segments * Hw.Sdw.words in
  let dseg_base = t.st.dseg_area_base + ((pid - 1) * dseg_words) in
  for segno = 0 to Hw.Addr.max_segments - 1 do
    Hw.Sdw.write_at t.st.machine.Hw.Machine.mem
      (dseg_base + (segno * Hw.Sdw.words))
      Hw.Sdw.invalid
  done;
  (* The pageable state segment, in >pdd. *)
  let state_de =
    match
      Old_storage.create_segment t.st ~dir_uid:t.st.root_uid
        ~name:(Printf.sprintf "pdd_state_%d" pid) ~is_dir:false
        ~acl:[ K.Acl.entry "root" K.Acl.rw ]
    with
    | Ok de -> de
    | Error _ -> failwith "Old_supervisor.spawn: cannot create state segment"
  in
  let vcpu = Hw.Cpu.create ~id:(2000 + pid) in
  vcpu.Hw.Cpu.ring <- 5;
  Hw.Cpu.load_user_dbr vcpu
    (Some { Hw.Cpu.base = dseg_base; n_segments = Hw.Addr.max_segments });
  let p =
    { op_pid = pid; op_principal = principal; op_program = program; op_pc = 0;
      op_regs = Array.make K.Workload.n_registers (-1); op_state = O_ready;
      op_quantum = 0; op_vcpu = vcpu; op_dseg_base = dseg_base;
      op_kst = Hashtbl.create 8; op_kst_rev = Hashtbl.create 8;
      op_next_segno = t.cfg.hw.Hw.Hw_config.system_segno_split;
      op_state_uid = state_de.od_uid; op_cpu_ns = 0; op_faults = 0 }
  in
  Hashtbl.replace t.st.procs pid p;
  Queue.add pid t.st.ready;
  if t.started then kick t;
  pid

let start t =
  if not t.started then begin
    t.started <- true;
    kick t
  end

let run ?until ?max_events t =
  start t;
  Hw.Machine.run ?until ?max_events t.st.machine

let all_done t =
  Hashtbl.fold
    (fun _ p acc ->
      acc && match p.op_state with O_done | O_failed _ -> true | _ -> false)
    t.st.procs true

let run_to_completion ?(max_events = 2_000_000) t =
  run ~max_events t;
  all_done t

let proc_state t pid = (proc t pid).op_state

let observed_graph t =
  let g = Dg.Graph.create ~name:"legacy supervisor (observed)" () in
  List.iter
    (fun (from, to_, _count) -> Dg.Graph.add_edge g ~from ~to_ Dg.Dep_kind.Shared_data)
    (Dg.Conformance.observed (K.Meter.calls t.st.meter));
  g

let pp_report ppf t =
  let s = t.st.stats in
  Format.fprintf ppf "Legacy Multics supervisor after %d simulated us@."
    (now t / 1000);
  Format.fprintf ppf "  processes: %d completed, %d failed, %d denials@."
    s.st_completed s.st_failed s.st_denials;
  Format.fprintf ppf
    "  paging: %d faults, %d reads, %d writes, %d evictions (%d zero \
     reclaims)@."
    s.st_faults s.st_page_reads s.st_page_writes s.st_evictions
    s.st_zero_reclaims;
  Format.fprintf ppf
    "  races: %d lock contentions, %d interpretive retranslations@."
    s.st_lock_contentions s.st_retranslations;
  Format.fprintf ppf "  quota: %d upward searches walking %d levels@."
    s.st_quota_searches s.st_quota_search_levels;
  Format.fprintf ppf
    "  storage: %d full packs, %d relocations, %d blocked deactivations@."
    s.st_full_packs s.st_relocations s.st_deactivation_blocked;
  Format.fprintf ppf "  resolutions in kernel: %d; switches: %d@."
    s.st_resolutions s.st_switches
