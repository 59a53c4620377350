(** Kernel/Multics: the assembled system.

    [boot] builds the machine and every manager bottom-up in dependency
    order (the OCaml module graph mirrors the paper's lattice — this
    file can only see downward), creates the root directory, defines the
    gates, binds the permanent virtual processors (scheduler daemon,
    page-cleaning daemon) and installs the workload interpreter.

    Examples and benches drive the system through this interface:
    create directories and processes, [run] the event loop, read the
    statistics, audit the dependency structure. *)

type overload_config = {
  ov_deadline_ns : int;
      (** Default end-to-end deadline (relative simulated ns) stamped on
          every spawned process's root context; [0] = none.  Expired
          requests are cancelled at the checkpoints: gate entry, I/O
          submit, I/O dispatch, and process dispatch. *)
  ov_retry_budget : int;
      (** I/O retries allowed per request root before further failures
          are shed as [Timed_out]; [0] = unlimited (the seed's
          per-record retry limit still applies). *)
  ov_breaker_threshold : int;
      (** Consecutive I/O failures on one pack that trip its circuit
          breaker; [0] disables breakers. *)
  ov_breaker_cooldown_ns : int;
      (** Simulated time an open breaker waits before the half-open
          probe.  Must be positive when breakers are enabled. *)
  ov_brownout_tick_ns : int;
      (** Arms the graceful-degradation ladder when positive: SLO
          breaches shed read-ahead, then the cleaner daemon, then
          logins by load class, at most one rung per tick period; each
          quiet tick recovers one rung.  [0] disables brownout. *)
}

val default_overload : overload_config
(** Every knob [0]: the plane switched off; override fields from
    here. *)

type config = {
  hw : Multics_hw.Hw_config.t;
  disk_packs : int;
  records_per_pack : int;
  core_frames : int;  (** frames reserved for core segments *)
  ast_slots : int;
  pt_words : int;  (** maximum pages per activated segment *)
  max_processes : int;
  max_quota_cells : int;
  scheduler : Scheduler.policy;
  use_cleaner_daemon : bool;
  root_quota : int;  (** pages in the root quota cell *)
  use_path_cache : bool;
      (** Enable the name manager's pathname resolution cache.  The
          hardware associative memory is controlled separately by
          [hw.assoc_mem_size]. *)
  use_io_sched : bool;
      (** Route page reads and write-behinds through the per-pack
          elevator queues, whose policy knobs derive from the disk's
          latencies (see {!Multics_hw.Io_sched.config_of_disk}); [false]
          reproduces the seed's flat-latency synchronous disk
          protocol. *)
  read_ahead : int;
      (** Records prefetched after two sequential missing-page faults on
          a segment; [0] disables read-ahead. *)
  trace : Multics_obs.Sink.mode;
      (** Observability: [Counters] (the default) keeps counters,
          latency histograms, SLO watchdogs, request contexts and the
          flight ring; [Full] also records the event ring for timeline
          export.  Request contexts are causal ids allocated at gate
          entry, login and fault, propagated through dispatch, queues
          and I/O completions so every trace event joins back to the
          request it serves; the overload plane's deadlines and retry
          budgets ride on them in either mode.  Never affects
          simulated time or disk contents (bench C3 asserts it, with
          the overload plane armed too). *)
  faults : Multics_hw.Fault_inject.t;
      (** Deterministic fault plan for the disk subsystem (the default
          is the empty plan, which leaves every run bit-identical to a
          fault-free kernel).  A plan with a scheduled power failure
          freezes the machine at that instant — see {!reboot} and the
          salvager. *)
  choice : Multics_choice.Choice.t option;
      (** Schedule-exploration strategy ([None] — the default — leaves
          every nondeterministic choice point on its built-in
          deterministic path, bit-identical to a kernel without the
          hook).  [Some c] threads [c] into VP dispatch, the level-2
          scheduler pick, eventcount wakeup order, I/O completion
          delivery order and retry backoff — the explorer in
          [Multics_check] drives these to search the schedule space. *)
  overload : overload_config;
      (** End-to-end overload control: deadlines, retry budgets,
          circuit breakers and brownout.  The default,
          {!default_overload}, leaves every knob inert.  Deadlines and
          retry budgets ride on request contexts and brownout on SLO
          samples, which every [trace] mode keeps. *)
}

val default_config : config
(** 2 CPUs, 256 frames (32 wired), 4 packs, 6 VPs (4 user), round-robin. *)

val small_config : config
(** A cramped machine for tests: 64 frames, tiny packs. *)

type t

val boot : config -> t

val shutdown : t -> unit
(** Orderly shutdown: persist the directory hierarchy into its backing
    segments, deactivate every active segment (flushing all pages to
    their records) and write the quota cells back to their VTOC
    entries.  Requires every process to have finished.  The disk then
    contains the complete system state. *)

val checkpoint : t -> unit
(** Make the hierarchy durable mid-run without shutting down: persist
    every directory's payload and settle the write-behinds.  A crash
    after a checkpoint loses at most the work since it — the salvager
    repairs the rest. *)

val halted : t -> bool
(** The machine froze at a scheduled power failure; the only useful
    next step is {!reboot} over the surviving disk, then a salvage. *)

val reboot : config -> from:t -> t
(** Boot a fresh incarnation over the previous system's disk packs:
    rebuild the segment locator from the VTOCs, resume the uid supply
    above everything on disk, and read the directory hierarchy back.
    Files, ACLs, labels and quota survive; [from] should have been
    {!shutdown} first.  After a crash ([halted from]) nothing more is
    flushed — the new incarnation sees exactly what the power failure
    left, and the salvager makes it consistent. *)

(* Component accessors. *)
val machine : t -> Multics_hw.Machine.t
val meter : t -> Meter.t
val obs : t -> Multics_obs.Sink.t
val core : t -> Core_segment.t
val vp : t -> Vp.t
val volume : t -> Volume.t
val quota : t -> Quota_cell.t
val page_frame : t -> Page_frame.t
val segment : t -> Segment.t
val user_process : t -> User_process.t
val directory : t -> Directory.t
val gate : t -> Gate.t
val name_space : t -> Name_space.t
val signals : t -> Upward_signal.t
val aim_audit : t -> Multics_aim.Audit.t
val config : t -> config

val root_subject : Directory.subject
(** The system administrator: trusted, system-low. *)

(* Administrative file-system helpers (run as root through gates). *)
val mkdir : t -> path:string -> acl:Acl.t -> label:Multics_aim.Label.t -> unit
(** Raises [Failure] on error; idempotent if the directory exists. *)

val create_file :
  t -> path:string -> acl:Acl.t -> label:Multics_aim.Label.t -> unit

val set_quota : t -> path:string -> limit:int -> unit
val quota_usage : t -> path:string -> (int * int) option

val load_program :
  t -> path:string -> Multics_hw.Word.t list -> unit
(** Write assembled machine words into the file at [path] (as the
    administrator), for later [Workload.Execute].  The code lives in an
    ordinary segment: executing it takes the same faults as data. *)

val spawn :
  t -> ?principal:Acl.principal -> ?label:Multics_aim.Label.t ->
  ?trusted:bool -> ?ring:int -> ?deadline_ns:int -> pname:string ->
  Workload.program -> int
(** Create a ready user process; returns its pid.  [deadline_ns]
    (relative simulated time; default the overload config's
    [ov_deadline_ns]) bounds the process end-to-end: past it, the
    process is terminated at its next dispatch and its pending reads
    are shed. *)

val start : t -> unit
(** Begin dispatching virtual processors. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** [start] if needed, then drain the event queue. *)

val run_to_completion : ?max_events:int -> t -> bool
(** Run until every process is done or the event queue empties; [true]
    when all processes completed. *)

val now : t -> int

val denials : t -> int
(** Access denials absorbed by workload actions (the process continues
    with an empty register). *)

val shed_calls : t -> int
(** Gate calls refused with [`Timed_out] because the calling context's
    deadline had already passed. *)

val proc_timeouts : t -> int
(** Processes terminated at dispatch because their root context's
    deadline had passed. *)

val brownout_level : t -> int
(** Current rung of the degradation ladder, 0 (full service) to
    {!brownout_max_level}.  Always 0 unless the overload config armed
    brownout. *)

val brownout_max_level : int
(** The ladder's top rung (3), at which the Answering Service sheds
    logins: 1 turns read-ahead off, 2 throttles the cleaner daemon.
    The services layer reads {!brownout_level}; the kernel calls
    nothing above it. *)

val brownout_escalations : t -> int

type cache_report = {
  tlb_hits : int;  (** SDW associative-memory hits, all CPUs *)
  tlb_misses : int;
  tlb_flushes : int;
  path_hits : int;  (** pathname-cache hits *)
  path_misses : int;
  path_invalidations : int;
}

val stats : t -> cache_report
(** Aggregated hit/miss/invalidation counters for the hardware
    associative memories (summed over every physical and virtual CPU)
    and the pathname cache. *)

type io_report = {
  io_reads : int;  (** records read by the disk subsystem *)
  io_writes : int;
  io_batches : int;  (** elevator sweeps dispatched *)
  io_merges : int;  (** adjacent records chained without a seek *)
  io_mean_batch : float;
  io_max_batch : int;
  io_queue_peak : int;  (** deepest any pack's queue ever got *)
  io_busy_ns : int;
      (** total arm busy time from the latency model: device time, which
          the meter's kernel time leaves out *)
  prefetch_issued : int;
  prefetch_hits : int;
  prefetch_dropped : int;  (** suppressed at the free-pool low-water mark *)
  io_retries : int;  (** failed attempts retried with backoff *)
  io_dead_records : int;  (** records retired after the retry budget *)
  io_spared : int;  (** pages re-homed to a fresh record on write error *)
  io_damaged : int;  (** pages lost — the VTOC damaged switch was set *)
  io_offline : int;  (** packs that stopped answering *)
  io_timeouts : int;  (** requests cancelled by an expired deadline *)
  io_fast_fails : int;  (** requests refused by an open circuit breaker *)
  io_budget_denied : int;  (** retries refused by an empty retry budget *)
  io_breaker_opens : int;
  io_breaker_probes : int;  (** open -> half-open transitions *)
  io_breaker_closes : int;  (** half-open probes that closed the breaker *)
}

val io_stats : t -> io_report
(** Disk scheduler counters (summed over packs) plus the page frame
    manager's read-ahead accounting. *)

val dependency_audit : t -> Multics_depgraph.Conformance.t
(** Observed cross-manager calls vs. the declared graph of {!Registry}:
    the meter's live census ({!Meter.calls}), not a copy. *)

val trace_report : t -> string
(** The event ring as a human-readable timeline (empty unless the
    config asked for [Full] tracing), followed by the SLO watchdog
    summary. *)

val slo_report : t -> string
(** Just the SLO watchdog summary: one line per armed watchdog with
    breach count, worst latency and the last breach's instant and
    blamed context. *)

val flight_dump : t -> string
(** The always-on flight recorder's current contents, rendered
    deterministically (one line per event with its causal chain).  The
    dump snapshotted at the last automatic dump point (kernel halt,
    salvager entry, invariant violation) is
    [Multics_obs.Sink.last_dump (obs t)]. *)

val histo_report : t -> string
(** Every latency histogram — page-read transits, I/O batches, VP
    steps, eventcount waits — one line each with p50, p95 and max. *)

val chrome_trace : t -> string
(** The event ring as Chrome [trace_event] JSON (chrome://tracing or
    Perfetto), with the sink's counters and the meter's call census
    appended as counter samples, one [dep:<from>-><to>] counter per
    observed call edge.  A missing-page
    fault's life — fault span, transit async span, elevator submit,
    batch async span, eventcount wakeup — reads as one nested group. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable statistics block. *)
