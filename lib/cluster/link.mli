(** Simulated network links between cluster shards, with deterministic
    delivery order.

    Every cross-shard interaction is an {!envelope}: minted by the
    sending shard (inside its own quantum, touching only its own
    outbox, so shards on different [Par] domains never contend), then
    collected by the cluster coordinator at the next barrier and held
    in flight until [send + latency].  Delivery order is a {e choice
    point}: when several messages are ready at the same barrier, the
    ["net.deliver"] domain picks which lands first — inert runs take
    the canonical [(arrival, src, seq)] order, and the explorer in
    [lib/check] can later enumerate reorderings and partitions the way
    it already does I/O completion order (the discipline of Aviram et
    al.: cross-machine message delivery stays a deterministic,
    replayable decision, never an ambient race).

    Envelopes carry the request context across the wire: the
    originating principal ([e_user]) and the end-to-end absolute
    deadline ([e_deadline_ns]), so PR 8 attribution and PR 9 overload
    control keep working across shards — a receiving kernel mints a
    child context under the same origin and sheds work whose deadline
    already passed. *)

type req =
  | R_create of { key : string; words : int }
      (** Remote gate call: create (and fill [words] words of) a file
          named for [key] under the receiving shard's [>rgate]
          directory, charging its quota cell on the caller's behalf. *)
  | R_settle of { pid : int }
      (** Cross-machine quota settlement at logout: report (and
          release from the per-user ledger) the pages this shard holds
          for session [pid] of [e_user]. *)

type resp =
  | Ok_pages of int  (** pages the call charged (or settled) *)
  | Timed_out  (** refused: the carried deadline had already passed *)

type payload =
  | Req of req
  | Resp of { rq_send_ns : int; rq_req : req; r_resp : resp }
      (** [rq_send_ns] echoes the request's send instant so the origin
          shard can histogram the full round trip on its own clock. *)

type envelope = {
  e_src : int;
  e_dst : int;
  e_seq : int;
      (** globally unique and deterministic: allocated per sending
          shard as [per-shard seq * n_shards + src] *)
  e_send_ns : int;  (** sender's simulated clock at send *)
  e_user : string;  (** originating principal (context origin) *)
  e_session : int;  (** originating session pid on the home shard *)
  e_deadline_ns : int;  (** absolute simulated deadline; 0 = none *)
  e_payload : payload;
}

type t
(** The fabric: in-flight messages plus delivery statistics.  Owned by
    the coordinator; shards only ever touch their own outboxes. *)

val create : latency_ns:int -> ?choice:Multics_choice.Choice.t -> unit -> t
(** One-way link latency (must be positive — the latency is the
    lookahead that makes barrier-parallel shard execution safe).
    [choice], when active, drives the ["net.deliver"] point. *)

val post : t -> envelope -> unit
(** Accept an envelope from a drained outbox; it arrives
    [latency_ns] after [e_send_ns]. *)

val in_flight : t -> int

val deliver_ready : t -> now:int -> envelope list
(** Remove and return every envelope whose arrival is at or before
    [now], in delivery order: canonically sorted by
    [(arrival, src, seq)], with an active ["net.deliver"] choice
    picking the permutation instead.  Records each delivery. *)

val next_arrival : t -> int option
(** Earliest in-flight arrival, if any. *)

val messages : t -> int
(** Envelopes delivered so far. *)

val delivery_log : t -> int list
(** [e_seq] of every delivered envelope, oldest first — the observable
    a scripted ["net.deliver"] test asserts against. *)
