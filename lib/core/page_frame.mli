(** The page frame manager.

    Owns the pageable frames of primary memory (everything below the
    core-segment reservation).  Services missing-page faults with the
    descriptor lock-bit protocol: the hardware set the PTW lock bit when
    it took the fault; this manager starts the disk read, and every
    process that touches the locked descriptor meanwhile waits on the
    transit eventcount, which the completion handler advances — "the
    page frame manager unlocks the descriptor and notifies all processes
    that have been waiting for this event" (paper p.20).

    The page-removal algorithm is the paper's: a clock scan over the
    used bits, and a content scan of candidate pages so that pages of
    zeros are stored as file-map flags rather than records — with the
    quota credit that implies.  A dedicated page-cleaning daemon (one of
    the permanently bound virtual processors, after Huber's
    multi-process design) keeps a pool of free frames at low priority;
    when the pool is empty at fault time the eviction runs inline. *)

type t

val create :
  ?choice:Multics_choice.Choice.t ->
  machine:Multics_hw.Machine.t -> meter:Meter.t ->
  core:Core_segment.t -> volume:Volume.t -> quota:Quota_cell.t ->
  use_cleaner_daemon:bool -> ?use_io_sched:bool -> ?read_ahead:int -> unit ->
  t
(** Manages frames [0 .. Core_segment.first_reserved_frame - 1].
    [use_io_sched] (default true) routes fault reads and write-behinds
    through the per-pack elevator queues; false reproduces the seed's
    flat-latency synchronous protocol.  [read_ahead] (default 0) is the
    number of file-map records prefetched after two sequential faults
    on the same segment. *)

val n_frames : t -> int
val free_frames : t -> int

val iter_used : t -> (frame:int -> ptw_abs:Multics_hw.Addr.abs -> unit) -> unit
(** Visit every in-use frame (for the invariant checker). *)

(** {2 The page-table registry}

    Page control resolves a PTW to the segment it belongs to — the VTOC
    entry holding the file map and the quota cell its pages charge —
    through one registry entry per active segment, the static
    association that replaces the legacy upward search.  The segment
    manager's page tables lie back to back in one core region, table
    [slot] at [base + slot * pt_words], so a PTW's table is found by
    arithmetic: registering or dropping a table touches one entry,
    whatever its size. *)

val set_page_table_region :
  t -> base:Multics_hw.Addr.abs -> pt_words:int -> slots:int -> unit
(** Declare the segment manager's page-table region: [slots] tables of
    [pt_words] PTWs from [base].  Called once, before any
    registration. *)

val register_page_table :
  t -> slot:int -> home_pack:int -> home_index:int ->
  cell:Quota_cell.handle -> unit
(** The segment manager announces the page table of the segment active
    in AST [slot]: the VTOC entry holding its file map and the quota
    cell its pages charge.  Replaces whatever the slot held before. *)

val unregister_page_table : t -> slot:int -> unit
(** The slot's segment was deactivated: its PTWs no longer resolve. *)

val page_table_home :
  t -> ptw_abs:Multics_hw.Addr.abs ->
  (int * int * Quota_cell.handle) option
(** (home pack, VTOC index, quota cell) of the registered table holding
    [ptw_abs]; [None] for a PTW of a slot with no registered table, or
    outside the region. *)

type service_outcome =
  | Wait of Multics_sync.Eventcount.t * int
      (** the faulting virtual processor must await this eventcount *)
  | Retry  (** condition already resolved; re-execute the reference *)
  | Damaged of string
      (** the page's record is gone (media error or torn crash write);
          the touching process is signalled, never handed garbage *)

val service_missing_page :
  t -> ptw_abs:Multics_hw.Addr.abs -> service_outcome
(** Handle a missing-page fault on the descriptor at [ptw_abs]. *)

val service_locked_descriptor :
  t -> ptw_abs:Multics_hw.Addr.abs -> service_outcome
(** Another processor's fault service holds the descriptor; join its
    transit wait. *)

val add_zero_page :
  t -> ptw_abs:Multics_hw.Addr.abs -> record_handle:int ->
  quota_cell:Quota_cell.handle -> unit
(** The quota-fault path's final step: materialise a fresh zero page in
    a frame, remembering the record (already allocated by the segment
    manager) and the quota cell to credit if the page is later reclaimed
    as zeros. *)

val fault_in_sync :
  t -> ptw_abs:Multics_hw.Addr.abs ->
  [ `Ok | `Unallocated | `Damaged ]
(** Bring a page in synchronously, charging the full I/O latency to the
    caller's step.  Used for kernel-resident objects (directory
    segments) that kernel code must read while executing on a bound
    virtual processor; user pages always go through the asynchronous
    {!service_missing_page} path.  [`Damaged]: the record is dead and
    the page was marked damaged rather than read. *)

val flush_pages :
  t -> ptw_abs:Multics_hw.Addr.abs -> n:int ->
  settle:(int -> Multics_hw.Word.t -> unit) -> unit
(** Force out every present page of the [n] descriptors from [ptw_abs]
    (segment deactivation / relocation), in address order: a page of
    zeros is reclaimed (record freed, quota credited, descriptor
    unallocated), a modified page is written behind, and each
    descriptor is left absent.  Each frame is scanned for zeros once.
    [settle i w] is called once per descriptor, in order, with its
    offset from [ptw_abs] and its final word, so the caller can bring
    the file map up to date without reading the table again. *)

val cleaner_step : t -> Vp.vp -> Vp.run_result
(** Step function for the page-cleaning daemon VP. *)

(* Brownout levers — flipped by the kernel's overload controller. *)

val set_read_ahead_enabled : t -> bool -> unit
(** Enable/disable sequential read-ahead at runtime without changing
    the configured depth.  Disabling is the overload controller's first
    shedding step: prefetch is pure optional work.  Default enabled. *)

val set_cleaner_throttled : t -> bool -> unit
(** While throttled the cleaner daemon parks instead of scanning; the
    fault path falls back to inline eviction.  Default unthrottled. *)

(* Statistics for the benches. *)
val faults_served : t -> int
val page_reads : t -> int
val page_writes : t -> int
val evictions : t -> int
val zero_reclaims : t -> int
val inline_evictions : t -> int
(** Evictions that had to run at fault time because the daemon's pool
    was empty — the memory-cramped case the paper warns about. *)

val pages_cleaned : t -> int
(** Dirty pages written behind by the cleaning daemon. *)

val prefetch_issued : t -> int
val prefetch_dropped : t -> int
(** Read-aheads suppressed because the free pool was at the low-water
    mark (or empty) — sequential streams never steal the cleaner's
    reserve. *)

val prefetch_hits : t -> int
(** Prefetched pages later referenced: a demand fault joined the
    read-ahead's transit, or the page's used bit was found set.  Also
    sweeps current frames, so it is accurate at report time. *)
