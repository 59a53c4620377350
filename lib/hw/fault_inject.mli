(** Deterministic fault plans for the simulated disk subsystem.

    The paper's reliability argument assumes the kernel survives media
    errors and crashes; a perfect simulated disk can never exercise
    that machinery.  A {e fault plan} makes failure a first-class,
    reproducible input: every fault is keyed off the simulated clock
    and a (pack, record) address, decided by plan state alone — no
    wall-clock or global randomness — so a run under a given plan is
    bit-identical every time, and the empty plan is bit-identical to
    no plan at all.

    Four fault classes, mirroring what 1970s moving-head packs did:

    - {e transient read errors}: the next [times] read attempts of a
      record fail, then it recovers (a marginal sector recovered by
      retry);
    - {e permanent bad records}: every read and write of the record
      fails — after the I/O scheduler's retry budget the record is
      declared dead and retired;
    - {e pack offline}: from a scheduled instant, every transfer
      against the pack fails with [Pack_offline];
    - {e power fail}: at a scheduled instant the machine freezes; the
      write-behind buffer is torn — a prefix of the buffered writes
      reaches the platters, the rest are dropped and their records
      marked torn.

    Consumed by {!Io_sched}; built by benches, tests and the kernel
    configuration.  A plan is mutable (transient counters tick down),
    so one plan should drive exactly one system incarnation. *)

type t

val none : t
(** The shared empty plan: never injects anything.  Safe to share —
    consulting it never mutates it. *)

val create : unit -> t
(** A fresh, empty, mutable plan. *)

(* Plan building. *)

val fail_reads : t -> pack:int -> record:int -> times:int -> unit
(** The next [times] read attempts of the record fail, then it reads
    normally again. *)

val bad_record : t -> pack:int -> record:int -> unit
(** Every read and write attempt of the record fails, forever. *)

val pack_offline : t -> pack:int -> at_ns:int -> unit
(** From simulated time [at_ns], every attempt against [pack] fails
    with [Pack_offline] — until a recovery instant, if one is planned
    with {!pack_online}. *)

val pack_online : t -> pack:int -> at_ns:int -> unit
(** The pack recovers at simulated time [at_ns]: attempts from that
    instant on succeed again.  Closes the window opened by the latest
    {!pack_offline} — so alternating calls describe repeated offline
    windows [\[pack_offline, pack_online)]; a window never closed keeps
    the pack down forever (the pre-window behaviour).  Raises
    [Invalid_argument] without a matching open window. *)

val power_fail : t -> at_ns:int -> surviving_writes:int -> unit
(** Schedule a crash: at [at_ns] the kernel applies the first
    [surviving_writes] buffered write-behinds (in submission order,
    without acknowledging them), drops the rest as torn, and freezes
    the machine.  Only the last call counts. *)

(* Consultation (the I/O scheduler's side). *)

val read_attempt_fails : t -> pack:int -> record:int -> bool
(** Decide one read attempt; decrements the record's transient counter
    when one is armed. *)

val write_attempt_fails : t -> pack:int -> record:int -> bool
(** Decide one write attempt (only permanent bad records fail writes). *)

val pack_is_offline : t -> pack:int -> now:int -> bool
(** Whether [now] falls inside any of the pack's offline windows. *)

val crash_schedule : t -> (int * int) option
(** [(at_ns, surviving_writes)] of the scheduled power failure. *)

(* Seeded random plans for fuzzing. *)

val random :
  seed:int -> packs:int -> records_per_pack:int -> horizon_ns:int -> t
(** A plan drawn from a private [Random.State] seeded with [seed]:
    a few transient faults, up to two bad records, sometimes a power
    failure inside [horizon_ns], sometimes a pack-offline event.
    Identical seeds and dimensions produce identical plans. *)
