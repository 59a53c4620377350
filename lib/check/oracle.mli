(** The invariant oracle the explorer runs at quiescent points.

    Safety is {!Multics_kernel.Invariants.check} — the whole-kernel
    consistency argument.  Liveness is the schedule explorer's own
    question: at quiescence (event queue drained, machine not halted by
    a planned power failure), every spawned process must have finished.
    A process still ready or blocked with no event left to run it is a
    lost wakeup — the bug class eventcounts' wakeup-waiting switch
    exists to prevent. *)

val check : Multics_kernel.Kernel.t -> string list
(** [consistency @ liveness]. *)
