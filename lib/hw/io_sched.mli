(** Per-pack disk request queues with elevator (C-SCAN) ordering,
    deadline scheduling, and multi-actuator concurrency.

    The seed serviced every record transfer synchronously at one flat
    latency.  This module is the asynchronous disk subsystem: callers
    submit read/write requests against a pack; the scheduler collects
    them into bounded batches, orders each batch by record number in a
    circular sweep from an arm's head position, merges adjacent
    records into one chained transfer, and delivers completions through
    the machine's event queue.

    Every sweep takes at most [max_batch] requests.  Three policies
    ride on the basic elevator:

    - {b Deadline}: a request older than 256 single transfers
      ([256 * single_transfer_ns]) preempts the sweep — the next batch
      serves only expired requests, in elevator order among
      themselves.  C-SCAN can orbit a hot region forever under
      sustained load, and read priority can hold a write back behind
      a read stream forever; this is the starvation bound.
    - {b Read priority}: when nothing has expired and any read is
      available, a sweep serves reads only, leaving write-behind
      queued — a processor is blocked on every read, nobody waits for
      a write, and the pending-write table keeps any reordered reader
      coherent.
    - {b Ways}: each pack has [pack_ways] independent actuators with
      their own head positions.  A new sweep goes to the free arm
      nearest (forward circular distance) its first record, ties to
      the lowest arm id, so a sequential stream keeps its arm while
      the others absorb random traffic.

    One guard keeps deferred writes from crowding out reads: an
    unexpired write-only sweep never takes a pack's {e last} free arm,
    so one actuator is always in reserve for the next read.  A
    deadline-forced sweep is exempt — the starvation bound wins — as
    are single-actuator packs, where the rule would block writes
    entirely.  A read of a record with a pending write-behind is
    served straight from the buffered image ([s_buffer_hits]) without
    occupying an arm at all.

    Determinism: ordering is decided only by the queue discipline —
    the (record, submission-sequence) sort within a sweep, the
    deadline/read-priority pool selection, the nearest-arm rule — and
    by the event queue's insertion-order tie-break.  No wall-clock
    input anywhere, so runs are reproducible.

    Coherence across concurrent arms: a record with an in-flight
    request is barred from new sweeps until that batch completes, so
    same-record requests execute in submission order even when
    different-record requests overlap arbitrarily.  Setting
    [pack_ways = 1] recovers the single-arm elevator.  It is the pure
    elevator exactly for a queue of only reads or only writes whose
    requests wait less than the deadline: read priority then has
    nothing to reorder and the deadline never fires
    (test/test_io.ml pins that configuration).

    Latency model: a batch costs one seek per discontinuity plus one
    transfer per record.  An isolated single-record request therefore
    costs [seek_ns + transfer_ns], which equals the disk's flat
    [io_latency_ns] — the synchronous cost model is a special case of
    the batched one, so no path double-charges.  A sweep's latency is
    device time: it advances the clock at the sweep's completion and
    accumulates in [s_busy_ns], and no kernel meter books it.

    Coherence: the scheduler keeps a per-record buffer of every
    submitted-but-unapplied write image.  A read (queued or immediate)
    of a record with pending earlier writes is served the newest
    buffered image older than itself, so write-behind — and the
    read-priority and multi-way reordering above — never lets a reader
    observe stale disk contents or data from its future.  The
    synchronous shims [read_now]/[write_now] go through the same
    buffer, which is what keeps the old blocking API bit-identical to
    the asynchronous one.

    Images are {!Page_image.t}s and are shared, never copied: the
    image a write submits is the one the buffer holds, the one every
    buffer-hit or [read_now] reader receives, the one {!Disk} stores
    and the one [on_apply] and [crash] pass along.  Immutability makes
    that safe — a caller that goes on changing its frame after
    submitting has changed the frame, not the snapshot it submitted.

    Errors: every completion is a [result].  Transient faults from the
    machine's {!Fault_inject} plan are retried in place with bounded
    exponential backoff charged to the simulated clock; after
    [retry_limit] consecutive failures the record is declared dead
    ({!Disk.mark_dead}) and the caller sees [Dead_record].  A pack past
    its scheduled offline instant fails everything with [Pack_offline].
    With the empty fault plan no error path is ever entered, so
    behaviour is bit-identical to a scheduler without one. *)

type t

type config = {
  max_batch : int;  (** sweep bound: requests per batch *)
  pack_ways : int;  (** independent actuators per pack *)
  seek_ns : int;  (** head reposition to a non-adjacent record *)
  transfer_ns : int;  (** one record transfer *)
  retry_limit : int;
      (** consecutive failed attempts before a record is declared dead *)
  retry_backoff_ns : int;
      (** first retry delay; doubles on each further failure.  Each
          delay gains a deterministic jitter of 0-3 quarter-steps,
          drawn through the choice plane's ["io.backoff"] domain: the
          inert strategy draws 0, the explorer enumerates the four
          delays, the seeded-LCG strategy spreads colliding
          retries. *)
  retry_budget : int;
      (** total backoff retries a root request context may consume
          across all its requests; past it the request sees
          [Timed_out].  [0] disables (unlimited, the pre-plane
          behaviour). *)
  breaker_threshold : int;
      (** consecutive failed service attempts that trip a pack's
          circuit breaker ([Pack_offline] trips immediately);
          [0] disables breakers entirely. *)
  breaker_cooldown_ns : int;
      (** how long a tripped breaker stays open before the queued work
          goes back out as a half-open probe *)
}

val config_of_disk : Disk.t -> config
(** Splits the disk's flat record latency into seek and transfer so
    that [seek_ns + transfer_ns = Disk.io_latency_ns]; retries back off
    starting at one transfer time.  Defaults: sweeps of 8, 8 ways, and
    the overload knobs (retry budget, breaker) off.  The
    deadline, 256 flat latencies, follows from the latencies (the
    write-expiry scale of the classic deadline scheduler). *)

type io_error =
  | Dead_record
      (** the record exhausted its retry limit (now retired), or was
          already dead when the request was serviced *)
  | Pack_offline  (** the pack is inside its scheduled offline window *)
  | Timed_out
      (** the request context's deadline passed (cancelled at a
          checkpoint), or its retry budget ran dry *)
  | Breaker_open
      (** failed fast: the pack's circuit breaker is open *)

val pp_io_error : Format.formatter -> io_error -> unit

val create :
  ?config:config -> ?faults:Fault_inject.t ->
  ?choice:Multics_choice.Choice.t -> ?now:(unit -> int) ->
  disk:Disk.t -> schedule:(delay:int -> (unit -> unit) -> unit) -> unit -> t
(** [schedule] plants dispatch and completion events; wire it to
    [Machine.schedule].  [faults] is the fault plan consulted on every
    service attempt (default {!Fault_inject.none}); [now] reads the
    simulated clock for pack-offline decisions (default always 0,
    which is only safe with no offline events planned).  [choice]
    (default inert) governs the order a sweep's completions are
    delivered — sweep order under the inert strategy, strategy-picked
    (domain ["io.deliver"], ids = submission sequence) otherwise. *)

val single_transfer_ns : t -> int
(** [seek_ns + transfer_ns]: the cost of one unbatched transfer, and
    the model every synchronous path charges. *)

val submit_read :
  t -> pack:int -> record:int ->
  done_:((Page_image.t, io_error) result -> unit) -> unit
(** Queue a read; [done_] fires from the batch-completion event with
    the record image, or from the final failed retry with the error.
    A read of a record with a pending write is a buffer hit: [done_]
    fires at the current instant with the buffered image itself. *)

val submit_write :
  t -> ?done_:((unit, io_error) result -> unit) -> pack:int -> record:int ->
  Page_image.t -> unit
(** Queue a write of the image and hold it in the write-behind buffer
    until it lands — shared, not copied; [done_ (Ok ())] fires when it
    reaches the platter — that acknowledgement is the durability
    promise the crash bench checks. *)

val read_now : t -> pack:int -> record:int -> (Page_image.t, io_error) result
(** Synchronous shim: the image the record will hold once every write
    submitted so far has been applied — the pending-write buffer if one
    exists, the platter otherwise.  Transient faults are retried back
    to back (the blocking caller cannot wait out a backoff).  The
    caller charges [single_transfer_ns] itself. *)

val write_now :
  t -> pack:int -> record:int -> Page_image.t -> (unit, io_error) result
(** Synchronous shim: apply immediately, superseding (cancelling) any
    queued write to the same record so a later flush cannot clobber
    this image with older data. *)

val cancel_writes : t -> pack:int -> record:int -> unit
(** Drop queued, in-flight, and backoff-parked writes to a record.

    {b Ordering contract with [Disk.free_record]}: callers must cancel
    {e before} freeing the record.  Freeing first opens a window where
    the record is reallocated, the new owner writes it, and the stale
    buffered image of the old page lands on top — silent corruption of
    an unrelated segment.  [Core.Volume] honours this in its free and
    delete paths; [test/test_io.ml] pins the ordering. *)

val quiesce : t -> unit
(** Apply every queued, in-flight, and backoff-parked request
    immediately, in elevator order; retries run inline.  The
    already-scheduled completion events become no-ops.  Used at
    shutdown so a surviving disk holds every write-behind. *)

val crash : t -> surviving_writes:int -> int
(** Power failure: of the buffered, unacknowledged writes (in
    submission order), the first [surviving_writes] reach the platter
    {e without} their completions firing; the rest are dropped and
    their records marked torn ({!Disk.mark_torn}) for the salvager.
    All queues empty, completion events become no-ops.  Returns how
    many writes were buffered at the instant of the crash.

    Writes already acknowledged are on the platter by definition —
    the acknowledgement only ever fires after {!Disk.write_record} —
    which is the structural guarantee behind "every acked write
    survives reboot". *)

val set_on_apply :
  t -> (pack:int -> record:int -> acked:bool -> Page_image.t -> unit) -> unit
(** Hook fired on every image actually applied to a platter, with
    [acked = false] for writes a crash applied without completing.
    The scheduler's one upward hook, declared as such: nothing in lib/
    installs it.  Observers outside the kernel read platter writes
    through it — bench C4's shadow disk, one test_io case and
    [chaos_demo] — and no kernel decision depends on it. *)

val breaker_state : t -> pack:int -> [ `Closed | `Open | `Half_open ]

val recoveries : t -> pack:int -> int
(** How many times the pack's breaker has closed after a successful
    half-open probe — the pack demonstrably serving again.  Monotone;
    the volume layer compares it with the count it stored when it last
    signalled the pack offline, so a pack that goes offline twice
    signals twice without the scheduler calling up. *)

val set_obs : t -> Multics_obs.Sink.t -> unit
(** Install the kernel's observability sink.  Each dispatched sweep
    becomes an async ["io"/"batch"] span (tid = pack) paired by a batch
    id, submissions become instants, and batch service cost feeds the
    ["io.batch"] histogram.  Purely observational. *)

(* Statistics *)

type stats = {
  s_reads : int;  (** read requests submitted *)
  s_writes : int;  (** write requests submitted *)
  s_batches : int;  (** sweeps dispatched *)
  s_merges : int;  (** adjacent-record transfers chained without a seek *)
  s_max_batch : int;  (** largest sweep *)
  s_queue_peak : int;  (** deepest any pack's queue got *)
  s_busy_ns : int;
      (** summed batch latencies: the arms' busy time, the one place
          device time is recorded *)
  s_cancelled : int;  (** writes dropped by {!cancel_writes}/supersede *)
  s_retries : int;  (** failed attempts that were retried *)
  s_gave_up : int;  (** requests that exhausted the retry budget *)
  s_deadline_batches : int;  (** sweeps forced by an expired request *)
  s_buffer_hits : int;
      (** reads served from the write-behind buffer without an arm *)
  s_timeouts : int;
      (** requests cancelled by an expired context deadline *)
  s_fast_fails : int;  (** requests failed fast by an open breaker *)
  s_budget_denied : int;
      (** retries refused because the root context's budget ran dry *)
  s_breaker_opens : int;  (** closed/half-open -> open transitions *)
  s_breaker_probes : int;  (** open -> half-open transitions *)
  s_breaker_closes : int;  (** half-open -> closed transitions *)
}

val stats : t -> stats

val queue_depth : t -> pack:int -> int
(** Requests currently queued (not yet dispatched) for [pack]. *)

val mean_batch : stats -> float
(** Requests per dispatched batch; 0 when nothing was dispatched. *)
