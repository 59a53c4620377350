(** Choice points: the schedule explorer's handle on nondeterminism.

    The simulation is deterministic, which is exactly what makes
    systematic schedule exploration tractable: every place the real
    system would race — which ready virtual processor a CPU dispatches,
    which eventcount waiter an [advance] fires first, in what order a
    disk sweep's completions are delivered — is a {e choice point}.  A
    component consults its [Choice.t] at each such point; the strategy
    answers with an index into the alternatives.

    The inert {!default} strategy is special: components test
    {!is_active} and, when it is false, run their original code path
    untouched — no arrays are built, nothing is recorded, and the
    simulation is bit-identical to a build without choice points (bench
    C5 asserts this).  Every other strategy records the decisions it
    takes, so any run can be replayed exactly with {!scripted}.

    Strategies never read the clock and never schedule events: a choice
    costs no simulated time. *)

type t

type event = {
  ev_domain : string;  (** which kind of choice point, e.g. ["vp.dispatch"] *)
  ev_ids : int array;  (** stable identities of the alternatives offered *)
  ev_chosen : int;  (** index picked, in [[0, Array.length ev_ids)] *)
}

val default : t
(** The shared inert strategy: always alternative 0 (the schedule the
    deterministic machine picks on its own), never recording.  This is
    the only [t] for which {!is_active} is [false].  It is also
    immutable — {!pick} never writes through it, and {!reset} and
    {!set_obs} are no-ops on it — so kernels booted on different
    domains can share it without interference (the run-farm in
    [lib/par] depends on this). *)

val record_default : unit -> t
(** The default policy (always 0) but active: choice points are
    consulted and recorded.  Used to capture the baseline schedule's
    choice trace — and by bench C5 to prove consulting the hooks leaves
    the simulation bit-identical. *)

val random : seed:int -> unit -> t
(** Seeded schedule fuzzing: each consulted point picks uniformly from
    a deterministic LCG stream.  Identical seeds give identical
    schedules. *)

val scripted : int list -> t
(** Replay: the k-th consulted choice point takes the k-th listed
    index (clamped into range); after the list is exhausted, every
    point takes alternative 0.  Feeding back {!choices} from a recorded
    run reproduces that run exactly. *)

val is_active : t -> bool
(** [false] only for {!default}.  Components use this to keep the
    default path free of any exploration overhead. *)

val pick : t -> domain:string -> ids:int array -> int
(** Consult the strategy at a choice point.  [ids] are stable
    identities for the alternatives (VP numbers, waiter registration
    order, request sequence numbers) — the explorer's sleep sets prune
    on them.  Points with fewer than two alternatives return 0 without
    consulting or recording, so traces contain only real branches.
    Raises [Invalid_argument] if [ids] is empty. *)

val taken : t -> event list
(** Every recorded decision, oldest first.  Empty for {!default}. *)

val choices : t -> int list
(** Just the chosen indices, oldest first — the replayable trace. *)

val decisions : t -> int
(** Number of recorded decisions. *)

val reset : t -> unit
(** Forget recorded decisions and rewind a script to its start, so one
    strategy value can drive several runs.  A no-op on {!default}. *)

val set_obs : t -> Multics_obs.Sink.t -> unit
(** Route choice-trace telemetry into the system's sink: each decision
    records an instant event (cat ["check"], name = domain, arg =
    chosen index), so counterexample timelines show where the schedule
    diverged; {!decisions} counts them.  A no-op on {!default}, which
    never emits telemetry. *)

val pp_event : Format.formatter -> event -> unit
