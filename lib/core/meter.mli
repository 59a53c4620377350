(** The kernel's own instrument: the simulated cost of kernel work.

    The event-driven machine advances the clock between steps; kernel
    code that runs "inline" during a step charges the meter, and the
    dispatcher folds the accumulated charge into the step's duration.
    Device time is not kernel time: a disk arm's sweep advances the
    clock through the event queue and is recorded by the I/O
    scheduler's [s_busy_ns], never here.  The meter is not part of the
    observability sink: its pending cost is simulated time. *)

type t

val create : unit -> t

val charge : t -> manager:string -> Cost.language -> int -> unit
(** Add [Cost.scale lang ns] to the pending step cost and to the
    manager's total. *)

val charge_raw : t -> manager:string -> int -> unit
(** Charge without language scaling (e.g. pure waiting). *)

val take_pending : t -> int
(** Return and reset the cost accumulated since the last call. *)

val pending : t -> int
val total : t -> int
val by_manager : t -> (string * int) list
(** Sorted by manager name. *)
