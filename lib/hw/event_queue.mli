(** Discrete-event priority queue.

    Events are (time, handler) pairs; ties break in insertion order so
    simulations are deterministic.

    Implemented as a binary min-heap over (time, insertion seq) in
    arrays that double when full: add and pop are O(log n) array moves
    with no allocation per event beyond [pop]'s result, and
    [next_time] is O(1).  The queue is small in practice — a few
    pending events per pop on a single kernel — so the log factor is a
    handful of moves.  The pop order is exactly the (time,
    insertion-seq) order, which test/test_hw.ml pins with a property
    test against a Map model. *)

type t

val create : unit -> t
val is_empty : t -> bool

val add : t -> time:int -> (unit -> unit) -> unit
(** Schedule [handler] at absolute simulated [time].  [time] must not
    precede the time of an already-popped event;
    [Machine.schedule]'s non-negative delays guarantee this.
    @raise Invalid_argument otherwise. *)

val next_time : t -> int option
(** Time of the earliest pending event. *)

val pop : t -> (int * (unit -> unit)) option
(** Remove and return the earliest event. *)
