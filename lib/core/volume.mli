(** The disk pack manager.

    Wraps the simulated packs with the object semantics the kernel
    needs: VTOC entries as segment homes, page-record allocation with
    the full-pack exception, and whole-segment relocation to an emptier
    pack ("all pages of a segment are kept on the same pack", paper
    p.15).  Quota cells are persisted inside VTOC entries on behalf of
    the quota cell manager.

    Media errors surface here as [result]s from the I/O scheduler.
    The manager's recovery verbs: {!spare_record} re-homes a page whose
    record went dead while its image is still in core; {!mark_damaged}
    sets the VTOC damaged switch when the image is lost; a pack passing
    its offline instant raises {!Upward_signal.Pack_offline} once, the
    same no-return path the full-pack exception uses. *)

type t

val create :
  ?faults:Multics_hw.Fault_inject.t -> ?choice:Multics_choice.Choice.t ->
  ?io_config:Multics_hw.Io_sched.config ->
  machine:Multics_hw.Machine.t -> meter:Meter.t -> unit -> t
(** [faults] is handed to the I/O scheduler; the empty plan (the
    default) makes every error path unreachable.  [choice] is handed to
    the I/O scheduler's completion-delivery choice point.  [io_config]
    overrides the scheduler's policy knobs (the default derives them
    from the disk's latencies; see {!Multics_hw.Io_sched.config_of_disk}). *)

val set_signals : t -> Upward_signal.t -> unit
(** Wire the upward-signal queue; until then offline events are only
    counted. *)

val create_segment :
  t -> caller:string -> ?process_state:bool -> uid:Ids.uid -> pack:int ->
  is_directory:bool -> label:int -> unit -> int
(** Make a VTOC entry; returns its index on [pack].  [process_state]
    tags per-process kernel segments so a post-crash salvage can
    reclaim the orphans. *)

val delete_segment : t -> caller:string -> pack:int -> index:int -> unit
(** Frees the segment's records and its VTOC entry.  Each record's
    pending write-behind is cancelled {e before} the free — the
    ordering contract of [Io_sched.cancel_writes]. *)

val rebuild_locator : t -> int
(** Scan every pack's VTOC and rebuild the uid locator — the first step
    of booting over a surviving disk.  Returns the largest uid seen, so
    the new incarnation's uid supply can resume above it. *)

val locate : t -> uid:Ids.uid -> (int * int) option
(** Current (pack, VTOC index) of a segment, maintained across creation,
    relocation and deletion.  This is how lower layers re-find a moved
    segment without asking the directory manager. *)

val vtoc : t -> caller:string -> pack:int -> index:int -> Multics_hw.Disk.vtoc_entry
(** Raises [Not_found] for a stale (moved/deleted) VTOC address —
    callers above the directory manager level should treat that as a
    connection failure. *)

val alloc_page_record :
  t -> caller:string -> pack:int -> (int, [ `Pack_full ]) result

val free_page_record : t -> caller:string -> pack:int -> record:int -> unit
(** Cancels the record's pending write-behind, then frees it — never
    the other way round (see [Io_sched.cancel_writes]). *)

val read_page :
  t -> caller:string -> handle:int ->
  (Multics_hw.Page_image.t, Multics_hw.Io_sched.io_error) result
(** Read the record named by an 18-bit handle.  The caller accounts for
    the I/O latency (the page frame manager overlaps it with waiting).
    A synchronous shim over the I/O scheduler: observes the
    write-behind buffer, so results are bit-identical to the
    asynchronous path.  Transient faults retry inline; [Error] means
    the record is dead or its pack offline. *)

val write_page :
  t -> caller:string -> handle:int -> Multics_hw.Page_image.t ->
  (unit, Multics_hw.Io_sched.io_error) result
(** Synchronous shim; supersedes any queued write-behind of the same
    record. *)

val read_record_async :
  t -> caller:string -> handle:int ->
  done_:((Multics_hw.Page_image.t, Multics_hw.Io_sched.io_error) result ->
         unit) ->
  unit
(** Queue the read on the record's pack; [done_] fires from the batch
    completion event — or from the final failed retry.  The transfer
    latency is modelled by the scheduler's elevator sweep, not charged
    here. *)

val write_record_async :
  t -> caller:string ->
  ?done_:((unit, Multics_hw.Io_sched.io_error) result -> unit) ->
  handle:int -> Multics_hw.Page_image.t -> unit
(** Queue a write-behind of the image; the scheduler's buffer shares
    it rather than copying it. *)

val quiesce : t -> unit
(** Apply every queued transfer immediately — shutdown's barrier, so a
    surviving disk holds all write-behinds before a reboot reads it. *)

val crash : t -> surviving_writes:int -> int
(** Power failure: a prefix of the buffered writes lands unacked, the
    rest tear (see [Io_sched.crash]).  Returns the buffered-write count
    at the instant of the crash. *)

val set_on_apply :
  t ->
  (pack:int -> record:int -> acked:bool -> Multics_hw.Page_image.t -> unit) ->
  unit
(** Forwarded to [Io_sched.set_on_apply]; the chaos bench's shadow-disk
    hook. *)

val note_offline : t -> pack:int -> unit
(** Record that [pack] was seen offline; raises
    {!Upward_signal.Pack_offline} the first time (once per offline
    window: when the pack's breaker closes after a successful half-open
    probe, the one-shot signal re-arms, so a pack that goes offline
    twice signals twice). *)

val offline_signals : t -> int
(** Offline windows signalled so far — monotone: a pack that goes
    offline, recovers (re-arming the signal) and goes offline again
    counts twice. *)

val spare_record :
  t -> caller:string -> old_handle:int -> Multics_hw.Page_image.t ->
  (int, [ `No_space ]) result
(** Record sparing: the record behind [old_handle] went dead but the
    page image is still in core.  Retire the old record, allocate a
    fresh one on the same pack, write the image, return the new handle.
    [`No_space] when the pack is full or fresh records keep failing. *)

val spared_records : t -> int

val mark_damaged : t -> caller:string -> pack:int -> index:int -> unit
(** Set the VTOC entry's damaged switch: a page of the segment was lost
    to a media error and could not be spared.  Counted even when the
    VTOC address has gone stale. *)

val damaged_pages : t -> int

val io_stats : t -> Multics_hw.Io_sched.stats

val breaker_state : t -> pack:int -> [ `Closed | `Open | `Half_open ]
(** The pack's circuit-breaker state, from the I/O scheduler. *)

val io_latency_ns : t -> int
(** Cost of one unbatched transfer (seek + transfer) — the synchronous
    cost model, delegated to the I/O scheduler. *)

val pick_emptier_pack : t -> except:int -> int option

val move_segment :
  t -> caller:string -> pack:int -> index:int -> to_pack:int ->
  (int * int * int, [ `No_space ]) result
(** Copy every record of the segment at [pack]/[index] onto [to_pack];
    frees the old records and VTOC entry.  Returns (new pack, new VTOC
    index, records moved).  The old VTOC entry disappears — addresses
    held by directories above become stale until the upward signal
    updates them.  A record that cannot be read keeps its dead handle
    in the map (and sets the damaged switch) for the salvager; one that
    cannot be written keeps the still-good original in place. *)

val set_file_map_entry :
  t -> caller:string -> pack:int -> index:int -> pageno:int -> int -> unit
(** Update one file-map slot (a record handle or a negative flag) and
    recompute the entry's page count.  File maps store 18-bit record
    handles so a page's record can live on any pack during relocation
    transients. *)

val full_pack_exceptions : t -> int
