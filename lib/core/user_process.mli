(** The user process manager (level 2 of the two-level implementation).

    Implements an arbitrary number of user processes above the fixed
    virtual processors.  Process states live in ordinary segments (a
    per-process state segment is paged in and out around loading), so
    this manager depends on the virtual memory — which is safe exactly
    because everything below it does not.

    Wakeups discovered at level 1 (an eventcount advanced while the
    awaiting process holds no VP) travel through the wired message queue
    to the scheduler daemon, which re-queues the process — Reed's upward
    communication path (paper p.26). *)

type proc_state =
  | P_ready
  | P_running
  | P_blocked
  | P_done
  | P_failed of string

type proc = {
  pid : int;
  pname : string;
  principal : Acl.principal;
  label : Multics_aim.Label.t;
  trusted : bool;
  ring : int;
  vcpu : Multics_hw.Cpu.t;  (** this process's register set *)
  mutable program : Workload.program;
      (** the actions to run; emptied when the process finishes *)
  mutable pc : int;
  regs : int array;
  mutable pstate : proc_state;
  mutable quantum : int;
  mutable cpu_ns : int;
  mutable actions_done : int;
  mutable isa : Multics_hw.Isa.state option;
      (** live machine-code execution, carried across dispatch steps *)
  mutable ready_since : int;
      (** Instant the process entered the ready queue; [-1] while
          running, blocked or done.  Feeds the ["sched.ready_wait"]
          histogram (and its SLO watchdog) at dispatch. *)
  state_uid : Ids.uid;  (** the process-state segment *)
  p_ctx : int;
      (** root request context; its origin is the accounting principal,
          so every event done on the process's behalf joins back to the
          user for attribution *)
}

(** What one interpreted action did; produced by the kernel facade's
    interpreter and folded into scheduling here. *)
type interp_outcome =
  | Did of int  (** completed, costing ns *)
  | Again of int
      (** partial progress (a long Execute); stay on the same action *)
  | Blocked_page of Multics_sync.Eventcount.t * int * int
      (** page transit: keep the VP, retry the same action on wake *)
  | Blocked_user of Multics_sync.Eventcount.t * int * int
      (** user-level await: release the VP; wake via the message queue *)
  | Finished of int
  | Failed of string * int

type t

val create :
  ?choice:Multics_choice.Choice.t ->
  machine:Multics_hw.Machine.t -> meter:Meter.t ->
  known:Known_segment.t -> address_space:Address_space.t ->
  segment:Segment.t -> vp:Vp.t -> policy:Scheduler.policy ->
  state_pack:int -> unit -> t
(** [choice] is threaded into the level-2 scheduler's pick and every
    eventcount this manager creates (the work eventcount and the
    user-visible ones). *)

val set_interpreter : t -> (proc -> interp_outcome) -> unit
(** Installed by the kernel facade before any process runs. *)

val bind_user_vps : t -> vp_ids:int list -> unit
(** Hand these virtual processors to user multiplexing. *)

val bind_scheduler_daemon : t -> vp_id:int -> unit
(** Bind the scheduler daemon (drains the wakeup message queue). *)

val create_process :
  ?deadline:int ->
  t -> pname:string -> principal:Acl.principal ->
  label:Multics_aim.Label.t -> trusted:bool -> ring:int ->
  program:Workload.program -> int
(** Returns the pid; the process is ready to run.  [deadline] (an
    absolute simulated instant) stamps the process's root context;
    without it the root inherits the ambient context's deadline, so a
    process spawned inside a deadlined login or gate call is bounded by
    the same end-to-end deadline. *)

val proc : t -> int -> proc
(** A process's record, by pid, for the life of the manager.  A
    finished ([P_done] or [P_failed]) process keeps its record with
    [pstate], [pname], [principal], [regs] and [cpu_ns] intact.  Its
    address space, KST, state segment and broadcast slot are released
    when it finishes, and its [program] is emptied, so what a finished
    process keeps is the record alone, about 0.5 KB. *)

val procs : t -> proc list
(** Every process ever created, by pid. *)

val user_eventcount : t -> string -> Multics_sync.Eventcount.t
(** Named user-level eventcounts (created on first use). *)

val state_uids : t -> Ids.uid list
(** Backing state segments of live (unreaped) processes — system
    segments outside any directory, excluded from orphan scans. *)

val all_done : t -> bool
(** Every created process is [P_done] or [P_failed].  Constant time:
    computed from the completion counts, not by walking the table. *)

val scheduler : t -> Scheduler.t

(* Statistics *)
val loads : t -> int
val wake_messages : t -> int
(** Wakeups that travelled through the wired message queue. *)

val completed : t -> int
val failed : t -> int
