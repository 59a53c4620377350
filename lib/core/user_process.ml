module Hw = Multics_hw
module Sync = Multics_sync
module Aim = Multics_aim

type proc_state = P_ready | P_running | P_blocked | P_done | P_failed of string

type proc = {
  pid : int;
  pname : string;
  principal : Acl.principal;
  label : Aim.Label.t;
  trusted : bool;
  ring : int;
  vcpu : Hw.Cpu.t;
  mutable program : Workload.program;  (* emptied on reap *)
  mutable pc : int;
  regs : int array;
  mutable pstate : proc_state;
  mutable quantum : int;
  mutable cpu_ns : int;
  mutable actions_done : int;
  mutable isa : Hw.Isa.state option;
  mutable ready_since : int;  (* entered the ready queue; -1 = not queued *)
  state_uid : Ids.uid;
  p_ctx : int;  (* root request context; origin = accounting principal *)
}

type interp_outcome =
  | Did of int
  | Again of int
  | Blocked_page of Sync.Eventcount.t * int * int
  | Blocked_user of Sync.Eventcount.t * int * int
  | Finished of int
  | Failed of string * int

type t = {
  machine : Hw.Machine.t;
  meter : Meter.t;
  acct : Meter.account;
  obs : Multics_obs.Sink.t;
  known : Known_segment.t;
  address_space : Address_space.t;
  segment : Segment.t;
  vp : Vp.t;
  sched : Scheduler.t;
  up_choice : Multics_choice.Choice.t option;
  procs_tbl : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  work_ec : Sync.Eventcount.t;
  wake_queue : int Sync.Msg_queue.t;
  user_ecs : (string, Sync.Eventcount.t) Hashtbl.t;
  state_pack : int;
  mutable interpreter : (proc -> interp_outcome) option;
  current : (int, int) Hashtbl.t;  (* vp_id -> pid *)
  mutable loads : int;
  mutable completed : int;
  mutable failed_count : int;
}

let name = Registry.user_process_manager
let lang = Cost.Pl1

let charge t ns = Meter.charge t.acct lang ns

let entry t ns = charge t (Cost.kernel_call + ns)

let create ?choice ~machine ~meter ~known ~address_space ~segment ~vp
    ~policy ~state_pack () =
  let obs = Hw.Machine.obs machine in
  { machine; meter; acct = Meter.account meter name; obs; known;
    address_space; segment; vp;
    sched = Scheduler.create ?choice policy;
    up_choice = choice;
    procs_tbl = Hashtbl.create 32; next_pid = 1;
    work_ec = Sync.Eventcount.create ~name:"upm.work" ~obs ?choice ();
    wake_queue =
      Sync.Msg_queue.create ~name:"upm.wakeups" ~obs ~capacity:64 ();
    user_ecs = Hashtbl.create 16; state_pack; interpreter = None;
    current = Hashtbl.create 8; loads = 0; completed = 0;
    failed_count = 0 }

let set_interpreter t f = t.interpreter <- Some f

let proc t pid =
  match Hashtbl.find_opt t.procs_tbl pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "User_process: no process %d" pid)

let procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs_tbl []
  |> List.sort (fun a b -> compare a.pid b.pid)

let user_eventcount t ec_name =
  match Hashtbl.find_opt t.user_ecs ec_name with
  | Some ec -> ec
  | None ->
      let ec =
        Sync.Eventcount.create ~name:("user." ^ ec_name)
          ~histo:"ec.wait:user" ~obs:t.obs ?choice:t.up_choice ()
      in
      Hashtbl.replace t.user_ecs ec_name ec;
      ec

let scheduler t = t.sched

(* Touch the state segment around load/unload: process states really do
   live in the virtual memory (activating it again if the segment
   manager chose it as a deactivation victim meanwhile). *)
let touch_state t p =
  match
    Segment.activate t.segment ~uid:p.state_uid ~cell:Quota_cell.no_cell
  with
  | Error _ -> ()
  | Ok slot ->
      ignore
        (Segment.kernel_touch t.segment ~slot ~pageno:0 ~write:true)

(* Release a finished process's kernel resources so its descriptor
   segment and KST slots can serve new processes.  The record itself
   stays (callers read a finished process's state, registers and cpu
   time by pid), but not its program, which is most of its size: a
   long-running kernel would otherwise keep every program it ever ran. *)
let reap t (p : proc) =
  p.program <- [||];
  Address_space.destroy_space t.address_space ~proc:p.pid;
  Known_segment.destroy_kst t.known ~proc:p.pid;
  Segment.delete_by_uid t.segment ~uid:p.state_uid ~cell:Quota_cell.no_cell;
  (* The dead process's virtual CPU leaves the setfaults broadcast
     set; keeping it would make every AM clear walk every process the
     machine has ever run. *)
  Hw.Machine.unregister_cpu t.machine p.vcpu

let load t vp_id pid =
  let p = proc t pid in
  (* Ready-queue wait: how long the process sat runnable before a VP
     picked it up.  The canonical CPU-overload signal — the "sched.
     ready_wait" SLO watchdog breaches when dispatch falls behind.
     Sampled under the process's own context so the watchdog blames
     the starved requester. *)
  (if p.ready_since >= 0 then begin
     let prev = Multics_obs.Sink.current t.obs in
     Multics_obs.Sink.set_current t.obs p.p_ctx;
     Multics_obs.Sink.add_latency t.obs ~name:"sched.ready_wait"
       (Hw.Machine.now t.machine - p.ready_since);
     Multics_obs.Sink.set_current t.obs prev
   end);
  p.ready_since <- -1;
  p.pstate <- P_running;
  p.quantum <- Scheduler.quantum_for t.sched pid;
  Hashtbl.replace t.current vp_id pid;
  Hw.Cpu.load_user_dbr p.vcpu (Some (Address_space.dbr_of t.address_space ~proc:pid));
  touch_state t p;
  t.loads <- t.loads + 1;
  charge t Cost.process_load

let unload t vp_id pid =
  let p = proc t pid in
  Hashtbl.remove t.current vp_id;
  touch_state t p;
  charge t Cost.process_unload

let make_ready t pid =
  let p = proc t pid in
  p.pstate <- P_ready;
  p.ready_since <- Hw.Machine.now t.machine;
  Multics_obs.Sink.count t.obs "upm.ready";
  Scheduler.enqueue t.sched pid;
  Sync.Eventcount.advance t.work_ec;
  Vp.kick t.vp

(* Step function for a user-multiplexed virtual processor. *)
let user_step t (vp : Vp.vp) =
  match Hashtbl.find_opt t.current vp.Vp.vp_id with
  | None -> (
      match Scheduler.next t.sched with
      | None ->
          Vp.Wait
            (t.work_ec, Sync.Eventcount.read t.work_ec + 1, Cost.kernel_call)
      | Some pid ->
          ignore (Meter.take_pending t.meter);
          load t vp.Vp.vp_id pid;
          Vp.Continue (Meter.take_pending t.meter))
  | Some pid -> (
      let p = proc t pid in
      if p.quantum <= 0 then begin
        (* Quantum expired: preempt at the action boundary. *)
        ignore (Meter.take_pending t.meter);
        unload t vp.Vp.vp_id pid;
        p.pstate <- P_ready;
        p.ready_since <- Hw.Machine.now t.machine;
        Scheduler.requeue_preempted t.sched pid;
        Sync.Eventcount.advance t.work_ec;
        Vp.Continue (Meter.take_pending t.meter)
      end
      else
        let interpret =
          match t.interpreter with
          | Some f -> f
          | None -> fun _ -> Failed ("no interpreter installed", 0)
        in
        (* The process's root context is ambient for the action: gate
           calls and faults open children under it, and anything the
           action leaves current (a fault awaiting its page) is
           captured by the VP dispatcher when this step returns. *)
        Multics_obs.Sink.set_current t.obs p.p_ctx;
        let note_cpu cost =
          Multics_obs.Sink.attribute t.obs ~ctx:p.p_ctx ~cpu_ns:cost ~ios:0
        in
        (* Fold the hardware's translation time (descriptor walks vs.
           associative-memory hits) into the step's simulated cost. *)
        let xl0 = p.vcpu.Hw.Cpu.xl_ns in
        let outcome = interpret p in
        let xl = p.vcpu.Hw.Cpu.xl_ns - xl0 in
        let outcome =
          if xl = 0 then outcome
          else
            match outcome with
            | Did c -> Did (c + xl)
            | Again c -> Again (c + xl)
            | Blocked_page (ec, v, c) -> Blocked_page (ec, v, c + xl)
            | Blocked_user (ec, v, c) -> Blocked_user (ec, v, c + xl)
            | Finished c -> Finished (c + xl)
            | Failed (m, c) -> Failed (m, c + xl)
        in
        match outcome with
        | Did cost ->
            p.pc <- p.pc + 1;
            p.quantum <- p.quantum - 1;
            p.cpu_ns <- p.cpu_ns + cost;
            note_cpu cost;
            p.actions_done <- p.actions_done + 1;
            Vp.Continue cost
        | Again cost ->
            p.quantum <- p.quantum - 1;
            p.cpu_ns <- p.cpu_ns + cost;
            note_cpu cost;
            Vp.Continue cost
        | Blocked_page (ec, value, cost) ->
            p.cpu_ns <- p.cpu_ns + cost;
            note_cpu cost;
            (* Keep the VP: transit waits are short and re-loading would
               cost more than it saves. *)
            Vp.Wait (ec, value, cost)
        | Blocked_user (ec, value, cost) ->
            p.pc <- p.pc + 1;
            p.cpu_ns <- p.cpu_ns + cost;
            note_cpu cost;
            ignore (Meter.take_pending t.meter);
            unload t vp.Vp.vp_id pid;
            p.pstate <- P_blocked;
            let ready_now =
              Sync.Eventcount.await ec ~value ~notify:(fun () ->
                  (* Level-1 territory: the process holds no VP, so the
                     wakeup must travel through the wired queue to the
                     scheduler daemon. *)
                  charge t Cost.msg_send;
                  match Sync.Msg_queue.send t.wake_queue pid with
                  | Ok () -> ()
                  | Error `Full ->
                      (* Bounded wired storage: fall back to direct
                         requeue (counted; a real system would retry). *)
                      make_ready t pid)
            in
            if ready_now then make_ready t pid;
            Vp.Continue (cost + Meter.take_pending t.meter)
        | Finished cost ->
            p.cpu_ns <- p.cpu_ns + cost;
            note_cpu cost;
            p.pstate <- P_done;
            t.completed <- t.completed + 1;
            ignore (Meter.take_pending t.meter);
            unload t vp.Vp.vp_id pid;
            reap t p;
            Vp.Continue (cost + Meter.take_pending t.meter)
        | Failed (msg, cost) ->
            note_cpu cost;
            p.pstate <- P_failed msg;
            t.failed_count <- t.failed_count + 1;
            ignore (Meter.take_pending t.meter);
            unload t vp.Vp.vp_id pid;
            reap t p;
            Vp.Continue (cost + Meter.take_pending t.meter))

(* The scheduler daemon: drains level-1 wakeup messages into the ready
   queue. *)
let scheduler_step t (_vp : Vp.vp) =
  let rec drain n =
    match Sync.Msg_queue.receive t.wake_queue with
    | Some pid ->
        charge t Cost.msg_receive;
        make_ready t pid;
        drain (n + 1)
    | None -> n
  in
  ignore (Meter.take_pending t.meter);
  ignore (drain 0);
  let cost = Cost.kernel_call + Meter.take_pending t.meter in
  let items = Sync.Msg_queue.items t.wake_queue in
  Vp.Wait (items, Sync.Msg_queue.consumed t.wake_queue + 1, cost)

let bind_user_vps t ~vp_ids =
  List.iter
    (fun vp_id ->
      Vp.bind t.vp ~vp_id ~name:"user_multiplex" ~step:(user_step t))
    vp_ids

let bind_scheduler_daemon t ~vp_id =
  Vp.bind t.vp ~vp_id ~name:"scheduler_daemon" ~step:(scheduler_step t)

let create_process ?deadline t ~pname ~principal ~label ~trusted ~ring
    ~program =
  entry t Cost.process_load;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Known_segment.create_kst t.known ~proc:pid;
  Address_space.create_space t.address_space ~proc:pid;
  (* The process state segment: a real segment, so that storing process
     states uses the virtual memory as the two-level design intends. *)
  (* [process_state]: tagged in the VTOC so a post-crash salvage can
     reclaim orphaned state segments of the dead incarnation. *)
  let state_uid, _index =
    Segment.create_segment t.segment ~process_state:true
      ~pack:t.state_pack ~is_directory:false ~label:(Aim.Label.encode label)
      ()
  in
  let vcpu = Hw.Cpu.create ~id:(1000 + pid) in
  vcpu.Hw.Cpu.ring <- ring;
  Address_space.install_system_dbr t.address_space vcpu;
  (* Descriptor changes must reach this processor's associative
     memory when setfaults broadcasts its clear. *)
  Hw.Machine.register_cpu t.machine vcpu;
  let p =
    { pid; pname; principal; label; trusted; ring; vcpu; program; pc = 0;
      regs = Array.make Workload.n_registers (-1); pstate = P_ready;
      quantum = 0; cpu_ns = 0; actions_done = 0; isa = None;
      ready_since = -1;
      state_uid;
      (* The process's root context: everything done on its behalf —
         gate calls, faults, the I/O they spawn — chains to this id,
         whose origin is the accounting principal, so per-user
         attribution is a root lookup. *)
      p_ctx =
        (* A process spawned on behalf of a deadlined request (a login
           with a deadline, a gate call) carries that deadline into its
           own root: the whole session is one end-to-end request. *)
        (let deadline =
           match deadline with
           | Some _ as d -> d
           | None ->
               let ambient =
                 Multics_obs.Sink.ctx_deadline t.obs
                   (Multics_obs.Sink.current t.obs)
               in
               if ambient > 0 then Some ambient else None
         in
         Multics_obs.Sink.new_ctx t.obs ~parent:0 ?deadline
           ~origin:principal.Acl.user ())
    }
  in
  Hashtbl.replace t.procs_tbl pid p;
  make_ready t pid;
  pid

let state_uids t =
  Hashtbl.fold (fun _ p acc -> p.state_uid :: acc) t.procs_tbl []

(* Every process ends by [Finished] or [Failed], which count it; the
   brownout tick asks this every period, so it must not walk every
   process ever spawned.  (Not [next_pid]: a creation that fails after
   taking its pid leaves no process.) *)
let all_done t = t.completed + t.failed_count = Hashtbl.length t.procs_tbl

let loads t = t.loads
let wake_messages t = Sync.Msg_queue.consumed t.wake_queue
let completed t = t.completed
let failed t = t.failed_count
