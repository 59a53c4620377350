(** Upward signalling without dependency.

    The software mechanism of paper p.23: a lower-level manager that
    discovers a condition only a higher-level manager can finish
    handling "transfers control and arguments to a higher level module
    without leaving behind any procedure activation records or other
    unfinished business in expectation of a subsequent return of
    control".

    Here the raiser enqueues a signal record and returns normally — its
    stack is clean.  The gate layer drains pending signals and delivers
    them to their target managers on the way out of the kernel: at
    every gate exit and every fault exit, so a signal raised by an I/O
    completion between gate calls waits only for the next of either.
    The interrupted user reference is then simply re-executed, exactly
    as the paper's restored process "rereferences the segment".

    This is the kernel's one path from a lower manager up to a higher
    one.  No manager installs a callback in another. *)

type payload =
  | Segment_moved of { uid : Ids.uid; new_pack : int; new_index : int }
      (** A full pack forced the segment to another pack; the directory
          manager must update the corresponding directory entry. *)
  | Pack_offline of { pack : int }
      (** The pack stopped answering; the directory manager counts it
          as a change, so the resolution caches above the gate drop
          what they hold.  Raised by the disk pack manager once per
          offline window of a pack, and delivered at the next gate or
          fault exit. *)

type t

val create : meter:Meter.t -> obs:Multics_obs.Sink.t -> t
(** [obs] is the kernel's sink: each raised signal becomes an instant
    named after the raising manager; {!total_raised} counts them. *)

val raise_signal : t -> from:string -> payload -> unit

val drain : t -> deliver:(payload -> unit) -> int
(** Deliver pending signals oldest-first; returns how many were
    delivered.  Signals raised during delivery are delivered too. *)

val pending : t -> int
val total_raised : t -> int
