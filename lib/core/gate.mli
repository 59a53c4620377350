(** Kernel gates.

    The kernel's entry points from outer rings.  Each gate declares the
    highest ring allowed to call it; calls charge the ring-crossing
    cost, are counted (this registry is the live analogue of the
    paper's 1,200-entry / 157-user-entry census), and drain pending
    upward signals on the way out — which is where the directory manager
    receives Segment_moved notifications "without leaving behind any
    procedure activation records" below it. *)

type t

val create :
  meter:Meter.t -> signals:Upward_signal.t ->
  directory:Directory.t -> obs:Multics_obs.Sink.t -> t

val define : t -> name:string -> max_ring:int -> unit
(** Register a gate.  Gates with [max_ring >= 4] are user-callable. *)

val call :
  t -> ?deadline:int -> name:string -> caller_ring:int -> (unit -> 'a) ->
  ('a, [ `No_gate | `Ring_violation | `Timed_out ]) result
(** Cross into ring 0 through the named gate, run the handler, deliver
    pending upward signals, cross back.

    The gate is a deadline checkpoint: if the ambient context's
    deadline has already passed, the call is refused with [`Timed_out]
    before any kernel work is charged.  [deadline] (an absolute
    simulated instant) stamps the per-call child context; it inherits
    (and can only tighten) the caller's. *)

val deliver_signals : t -> int
(** Drain upward signals outside any gate call: the fault path calls
    it at every fault exit.  With nothing pending it is one check. *)

val registered : t -> int
val user_callable : t -> int
val calls_total : t -> int
val calls_of : t -> string -> int
val ring_violations : t -> int
