(** Discrete-event priority queue.

    Events are (time, handler) pairs; ties break in insertion order so
    simulations are deterministic.

    Implemented as a hierarchical time wheel (13 levels of 32 slots):
    insert and the common pop path are O(1) with one small allocation
    per event, against O(log n) and a rebalanced path of nodes for the
    previous Map.  The pop order — (time, insertion-seq) — is exactly
    the Map's, which test/test_hw.ml pins with a property test. *)

type t

val create : unit -> t
val is_empty : t -> bool

val add : t -> time:int -> (unit -> unit) -> unit
(** Schedule [handler] at absolute simulated [time].  [time] must not
    precede the time of an already-popped event (the wheel's cursor);
    [Machine.schedule]'s non-negative delays guarantee this.
    @raise Invalid_argument otherwise. *)

val next_time : t -> int option
(** Time of the earliest pending event. *)

val pop : t -> (int * (unit -> unit)) option
(** Remove and return the earliest event. *)
