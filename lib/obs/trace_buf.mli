(** A typed, bounded ring buffer of trace events.

    Every event carries a simulated-time timestamp supplied by the
    recorder.  When the buffer is full the oldest event is overwritten
    and counted in [dropped] — tracing never grows without bound and
    never fails. *)

type phase =
  | Span_begin  (** start of a synchronous nested span (Chrome "B") *)
  | Span_end  (** end of the innermost open span on its track ("E") *)
  | Async_begin  (** start of an id-matched asynchronous span ("b") *)
  | Async_end  (** end of an id-matched asynchronous span ("e") *)
  | Instant  (** a point event ("i") *)
  | Counter  (** a sampled counter value, in [ev_arg] ("C") *)

type event = {
  ev_time : int;  (** simulated nanoseconds *)
  ev_phase : phase;
  ev_cat : string;  (** subsystem, e.g. ["pfm"], ["io"], ["vp"] *)
  ev_name : string;
  ev_tid : int;  (** track: CPU id for VP steps, pack for disk, else 0 *)
  ev_id : int;  (** pairing key for async begin/end *)
  ev_arg : int;  (** free payload (record, ptw address, count, ...) *)
  ev_ctx : int;  (** request context serving this event; 0 = none *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 16384 events. *)

val record : t -> event -> unit
val length : t -> int

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val events : t -> event list
(** Chronological (oldest first). *)

val iter : t -> (event -> unit) -> unit
val clear : t -> unit
