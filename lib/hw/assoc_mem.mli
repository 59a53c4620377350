(** SDW associative memory.

    The Honeywell 6180 kept the most recently used segment descriptor
    words and page table words in small associative register files so
    that most references skipped the two-level descriptor walk.  This
    models the SDW side: a fixed-size, fully associative array with
    deterministic round-robin replacement, hit/miss/flush counters, and
    a whole-array clear (the hardware had no selective clear — the
    setfaults trailer walk broadcast a full AM clear to every CPU).

    PTWs are deliberately not cached: the paging algorithms depend on
    the used/modified bits that every translation writes back, so the
    simulator re-reads the PTW even on an SDW hit.  This keeps cached
    and uncached runs functionally identical. *)

type t = {
  mutable slots : entry option array;
  mutable next : int;  (** round-robin replacement pointer *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

and entry = { e_segno : int; e_sdw : Sdw.t }

val create : ?size:int -> unit -> t
(** [size] defaults to 16, the 6180's SDW associative memory size. *)

val entries : t -> int
(** Number of occupied slots. *)

val flush : t -> unit
(** Clear every slot and bump the flush counter. *)

val resize : t -> int -> unit
(** Change capacity (min 1); flushes if the size actually changes. *)

val lookup : t -> segno:int -> Sdw.t option
(** Counts a hit or a miss. *)

val probe : t -> segno:int -> entry option
(** [lookup] without the per-hit box: returns the stored slot itself.
    The translation fast path uses this; counts a hit or a miss. *)

val insert : t -> segno:int -> sdw:Sdw.t -> unit
(** Replaces an existing entry for [segno], else takes the round-robin
    victim slot. *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
