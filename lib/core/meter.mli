(** The kernel's own instrument: the simulated cost of kernel work.

    The event-driven machine advances the clock between steps; kernel
    code that runs "inline" during a step charges the meter, and the
    dispatcher folds the accumulated charge into the step's duration.
    Device time is not kernel time: a disk arm's sweep advances the
    clock through the event queue and is recorded by the I/O
    scheduler's [s_busy_ns], never here.  The meter is not part of the
    observability sink: its pending cost is simulated time.

    Charges go to {e accounts}, one per manager name.  A manager
    resolves its accounts once, when it is created, so a charge is a
    few integer adds with no name lookup; a cold caller that names the
    manager at the call resolves the account there. *)

type t

type account
(** One manager's running total on one meter. *)

val create : unit -> t

val account : t -> string -> account
(** The named manager's account, made on first request.  Every request
    for one name returns the same account, so their charges share one
    total. *)

val charge : account -> Cost.language -> int -> unit
(** Add [Cost.scale lang ns] to the pending step cost, the meter's
    total and the account's total. *)

val charge_raw : account -> int -> unit
(** Charge without language scaling (e.g. pure waiting). *)

val take_pending : t -> int
(** Return and reset the cost accumulated since the last call. *)

val pending : t -> int
val total : t -> int

val by_manager : t -> (string * int) list
(** Each account charged at least once (a charge of zero counts) with
    its total, sorted by manager name.  An account resolved but never
    charged is not listed. *)
