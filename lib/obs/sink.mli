(** The kernel-wide observability sink.

    One sink per system instance collects telemetry.  Everything but
    the big event ring is always on; the mode decides only whether
    that ring records:

    - {b counters} — named monotonic counts of what no manager counts
      itself.  A count a manager keeps (gate calls, dispatches, faults,
      evictions, segment turnovers, every [Io_sched.stats] field) is
      its typed field and only that, so each fact has one recorder;
    - {b latency histograms} — log2 {!Histo}s keyed by name;
    - {b the event ring} — a bounded {!Trace_buf} of timestamped
      span/instant/async events ([Full] only);
    - {b the flight recorder} — a small ring of the same events, cheap
      enough to leave armed in production runs and snapshotted on
      halt/salvage/violation;
    - {b request contexts} — small integer causal ids allocated at
      request entry points and stamped on every event ([ev_ctx]), with
      parent links so a request's full causal chain (read-ahead,
      write-behind, retries spawned on its behalf) reconstructs.
      Contexts are never freed; the store grows by appending fixed
      chunks of 1,024 slots (4 words each), so it never copies what it
      holds and reserves at most one chunk beyond the last id.  The
      first chunk starts at 64 slots and doubles up to 1,024, so a
      kernel that mints a handful of contexts stays small;
    - {b SLO watchdogs} — simulated-time latency thresholds attached
      to histograms; a breach emits a structured ["slo"] anomaly event
      and is summarized by {!slos};
    - {b per-user attribution} — cpu/IO usage accumulated against the
      root context's origin (the accounting principal).

    Request contexts carry the deadlines the overload plane enforces,
    and the SLO breach totals ({!slos}) are what the kernel's brownout
    tick reads, so every sink keeps them: no mode can disarm control.
    The sink calls nothing above it: it holds no hook, and whoever
    decides policy reads its totals down.  It NEVER touches the cost
    meter or the event queue, so switching the mode cannot perturb
    simulated time — the property bench C3 asserts. *)

type mode =
  | Counters  (** counters, histograms, contexts and the flight ring *)
  | Full  (** all of that, plus the big event ring *)

type t

type span
(** An open synchronous span.  Opaque; close it with {!span_end}. *)

val create :
  ?mode:mode -> ?capacity:int -> ?flight_capacity:int ->
  now:(unit -> int) -> unit -> t
(** [now] supplies simulated-time timestamps (wire it to the machine
    clock).  Default mode [Counters], default ring capacity 16384,
    default flight-ring capacity 256. *)

val detached : unit -> t
(** A placeholder for components built without a sink: a [Counters]
    sink with one-slot rings and a clock stuck at 0, which nothing
    reads.  A kernel installs its own sink in its components before
    they do any work it reports. *)

val now : t -> int

(* Request contexts *)

val new_ctx : t -> ?parent:int -> ?deadline:int -> origin:string -> unit -> int
(** Allocate a causal context.  [parent] defaults to {!current} (pass
    [~parent:0] for a root); [origin] names what created it — the gate
    or fault name for children, the accounting principal or daemon
    name for roots.  [deadline] is an absolute simulated instant (0 or
    absent = none); the child's effective deadline is the {e min} of
    its own and the parent's, so a deadline propagates down the causal
    tree and a child can only tighten it. *)

val current : t -> int
(** The context ambient at this instant; stamped on every event. *)

val set_current : t -> int -> unit
(** Install the ambient context.  Callers crossing an asynchronous
    boundary (queue, eventcount, I/O completion) capture
    {!current} at enqueue and re-install it around the dequeued work,
    restoring the previous value after. *)

val ctx_count : t -> int
(** Contexts allocated so far (ids are [1..ctx_count]). *)

val ctx_words : t -> int
(** Heap words the context store holds: its arrays with their headers,
    not the origin strings, which callers share.  About 4 per context,
    plus at most one chunk reserved ahead. *)

val ctx_parent : t -> int -> int
(** Parent id, 0 for roots and unknown ids. *)

val ctx_root : t -> int -> int
(** Topmost ancestor (itself for roots); 0 for unknown ids. *)

val ctx_origin : t -> int -> string

val ctx_chain : t -> int -> int list
(** [id; parent; ...; root], empty for 0. *)

val ctx_deadline : t -> int -> int
(** The context's effective absolute deadline, 0 when none. *)

val ctx_expired : t -> now:int -> int -> bool
(** Whether the context carries a deadline that [now] has passed.
    Context 0 (no request) never expires. *)

(* Counters *)

val count : t -> string -> unit
(** Bump the named counter by one.  Pass a literal — the name is the
    key, so hot paths pay no string building, but each bump still
    hashes it.  Count here only what no manager keeps in a typed
    field: a second copy of a manager's count is a second recorder of
    one fact. *)

val counters : t -> (string * int) list
(** In first-use order. *)

(* Spans and events (flight ring always; big ring [Full] only) *)

val span_begin : t -> ?tid:int -> cat:string -> name:string -> unit -> span
(** Open a span.  It carries its start time in either mode so
    [span_end] can feed a histogram. *)

val span_end : t -> ?histo:string -> span -> unit
(** Close a span: records the [Span_end] event, and adds the duration
    to histogram [histo] when given. *)

val instant : t -> ?tid:int -> ?arg:int -> cat:string -> name:string -> unit -> unit

val async_begin : t -> ?tid:int -> ?arg:int -> cat:string -> name:string ->
  id:int -> unit -> unit
(** Open an asynchronous span matched by [(cat, name, id)] — a disk
    batch in flight, a page read in transit. *)

val async_end : t -> ?tid:int -> ?arg:int -> cat:string -> name:string ->
  id:int -> unit -> unit

val counter_event : t -> cat:string -> name:string -> int -> unit
(** Record a sampled counter value in the ring ([Full] only). *)

(* Histograms *)

val histo : t -> name:string -> Histo.t
(** The named histogram, created on first use. *)

val add_latency : t -> name:string -> int -> unit
(** [Histo.add (histo t ~name) ns], then checks the named SLO
    watchdog, if one is installed. *)

val histos : t -> Histo.t list
(** In first-use order. *)

(* SLO watchdogs *)

type slo_view = {
  sv_histo : string;
  sv_threshold : int;  (** simulated ns *)
  sv_breaches : int;
  sv_worst : int;  (** worst breaching latency seen *)
  sv_last_ns : int;  (** latency of the most recent breach *)
  sv_last_t : int;  (** simulated instant of the most recent breach *)
  sv_last_ctx : int;  (** context blamed for the most recent breach *)
}

val set_slo : t -> histo:string -> threshold_ns:int -> unit
(** Arm (or re-arm) a watchdog on the named histogram: any sample
    strictly above [threshold_ns] counts as a breach, bumps
    ["slo.breach"], and emits an [Instant] event with category ["slo"]
    carrying the latency and the ambient context. *)

val slos : t -> slo_view list
(** In install order.  The brownout tick sums [sv_breaches] here. *)

(* Flight recorder *)

val flight : t -> Trace_buf.t
(** The always-on ring of final events. *)

val flight_dump : t -> string
(** Deterministic text rendering of the flight ring: one line per
    event with its causal chain ([ctx=id:origin<-parent:origin<-...]). *)

val note_dump : t -> unit
(** Mark an automatic dump point (kernel halt, salvager entry,
    invariant violation): bumps ["flight.dump"].  The ring itself is
    rendered only when someone asks, by {!flight_dump}. *)

(* Per-user attribution *)

val attribute : t -> ctx:int -> cpu_ns:int -> ios:int -> unit
(** Accumulate usage against the root origin of [ctx] (no-op for
    ctx 0 and ids this sink never minted). *)

val by_user : t -> (string * (int * int)) list
(** [(user, (cpu_ns, ios))], sorted by user for deterministic output. *)

val user_usage : t -> user:string -> (int * int) option
(** One user's [(cpu_ns, ios)], O(1).  [by_user] walks and sorts the
    whole table, which turns per-logout accounting quadratic once a
    utility-scale population churns through — use this on hot paths. *)

val buf : t -> Trace_buf.t
