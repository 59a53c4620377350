(** Eventcounts (Reed and Kanodia, 1977).

    An eventcount is a monotonically increasing counter.  A waiter asks
    to be notified when the count reaches a threshold; the advancer need
    not know who, if anyone, is waiting — the property the paper relies
    on to let low-level virtual processors signal user processes without
    depending on the user-process implementation.

    Waiters here are callbacks: the virtual processor manager registers
    a closure that marks its VP runnable. *)

type t

val create :
  ?name:string -> ?histo:string -> ?obs:Multics_obs.Sink.t ->
  ?choice:Multics_choice.Choice.t -> unit -> t
(** [obs], when given, receives per-wakeup wait-time samples in the
    histogram named [histo] (default ["ec.wait:" ^ name]) — the time
    between a waiter's registration and the advance that fired it.
    [name] serves only that default.  Short-lived eventcounts (page
    transits) pass one shared [histo] instead, so their samples pool
    in one histogram.  [choice] (default inert) governs the order
    waiters fire when one [advance] readies several at once — the
    schedule explorer's hook. *)

val read : t -> int
(** Current value; initially 0. *)

val advance : t -> unit
(** Increment the count and fire every waiter whose threshold has been
    reached.  Waiters fire in registration order under the inert
    strategy; an active [choice] strategy picks the firing order
    (domain ["ec.wakeup"], ids = registration sequence). *)

val await : t -> value:int -> notify:(unit -> unit) -> bool
(** [await t ~value ~notify] returns [true] immediately when
    [read t >= value]; otherwise registers [notify] to be called when
    the count reaches [value] and returns [false]. *)

val waiters : t -> int
(** Number of registered, unfired waiters. *)

val advances : t -> int
(** Total number of [advance] calls, for accounting. *)
