(** Toy producer/consumer systems for exercising the explorer.

    The eventcount harness is a two-VP machine: a producer advances an
    eventcount once per step; a consumer drains it and stops when every
    event has been seen.  The correct consumer waits at the {e level}
    threshold [read + 1], which the wakeup-waiting switch makes safe
    under any interleaving.  The seeded bug waits at [read + 2] — a
    batching consumer that assumes another event is always coming.  Most
    schedules still terminate, but one in which the consumer samples the
    count at [events - 1] waits for a value the producer never reaches:
    a lost wakeup the invariant oracle reports at quiescence.

    The kernel system boots a real {!Multics_kernel.Kernel} under the
    given strategy, runs a small eventcount workload to completion, and
    applies {!Oracle.check} — the whole-kernel target for
    [check_random]/[check_dfs]. *)

val eventcount_system : ?bug:bool -> ?events:int -> unit -> Explore.system
(** The toy harness packaged for {!Explore}. *)

val kernel_system :
  ?config:Multics_kernel.Kernel.config -> ?n_procs:int -> unit ->
  Explore.system
(** A small-kernel system: [n_procs] (default 2) processes ping-pong on
    user eventcounts and touch pages, run to completion under the
    strategy, then checked with {!Oracle.check}.  [config] defaults to
    {!Multics_kernel.Kernel.small_config}; its [choice] field is
    overridden per run. *)

val breaker_system : ?bug:bool -> unit -> Explore.system
(** The breaker harness packaged for {!Explore}: the I/O scheduler
    alone, one pack, one arm, three reads in one sweep, records 0 and 2
    transiently failing once, with a circuit breaker armed (threshold
    3, safely above the two-fault noise; [bug] drops it to the noise
    floor, 2).  The strategy's choices are exactly the overload plane's:
    completion delivery order (["io.deliver"]) and retry jitter
    (["io.backoff"]).  Always checked: both transients recover, all
    three reads deliver the right images, and the breaker is closed at
    quiescence.  [bug] additionally claims the breaker never trips on
    transient noise — true in the default sweep order (the clean read
    between the two failures resets the consecutive-failure count),
    falsified by the delivery orders that align the two unrelated
    transients: a schedule-dependent mis-tuning for the explorer to
    find and shrink. *)
