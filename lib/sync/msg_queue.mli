(** Bounded message queues in wired memory.

    Reed's design places "a special, real memory message queue between
    the lower-level and higher-level processor multiplexers" so that a
    level-1 virtual processor can report events concerning a user
    process whose state may be paged out.  The queue is bounded because
    it occupies wired storage; senders never block — a full queue is an
    explicit error the caller must handle, since the low level must not
    depend on the high level draining it.

    Built on eventcounts: [items] counts messages ever enqueued, so a
    consumer awaits [items >= n+1] after consuming [n] — exactly the
    Reed/Kanodia pattern. *)

type 'a t

val create :
  ?name:string -> ?obs:Multics_obs.Sink.t -> capacity:int -> unit -> 'a t

val send : 'a t -> 'a -> (unit, [ `Full ]) result
(** Enqueue and advance the items eventcount. *)

val receive : 'a t -> 'a option
(** Dequeue the oldest message. *)

val items : 'a t -> Eventcount.t
(** Eventcount of messages ever enqueued; await it to learn of arrivals. *)

val consumed : 'a t -> int
(** Messages ever dequeued; [items - consumed = length]. *)

val drops : 'a t -> int
(** Sends refused because the queue was full. *)
