(** The kernel's own instruments: the simulated cost of kernel work,
    and the census of calls between object managers.

    The event-driven machine advances the clock between steps; kernel
    code that runs "inline" during a step charges the meter, and the
    dispatcher folds the accumulated charge into the step's duration.
    Device time is not kernel time: a disk arm's sweep advances the
    clock through the event queue and is recorded by the I/O
    scheduler's [s_busy_ns], never here.

    Every call from one manager into another is recorded straight into
    a {!Multics_depgraph.Conformance.t} over the declared dependency
    graph (see {!Registry}).  This is the executable version of the
    paper's integrity audit: an undeclared call edge is exactly the
    drift an auditor reading Kernel/Multics would have to hunt for by
    hand.  The meter is not part of the observability sink: its pending
    cost is simulated time, and the audit runs in every trace mode. *)

type t

val create : declared:Multics_depgraph.Graph.t -> t
(** A meter whose call census is audited against [declared]; an empty
    graph counts calls with nothing declared.  The graph is only read. *)

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

val call : t -> from:string -> to_:string -> unit
(** Record one call edge from manager [from] into manager [to_].
    Self-calls are ignored. *)

val calls : t -> Multics_depgraph.Conformance.t
(** The live census, not a copy: calls recorded later show up in it. *)
