(** Page table words (page descriptors).

    A PTW is one 36-bit word stored in physical memory.  The [locked]
    and [unallocated] bits are the paper's proposed hardware additions:
    [locked] is set by a processor taking a missing-page fault so that
    other processors encountering the same descriptor take a
    locked-descriptor fault instead of racing; [unallocated] marks a
    never-used page of a segment so that first touch raises a quota
    fault rather than a missing-page fault.

    Layout (bit 0 = least significant):
    {v
      0-17  arg      frame number when present, disk record handle when not
      18    present  page is in a primary-memory frame
      19    modified page written since last cleaning
      20    used     page referenced (for the clock algorithm)
      21    locked   descriptor lock bit (new hardware)
      22    unallocated  quota-fault bit (new hardware / software set)
      23    valid    PTW describes a page of the segment
      24    damaged  page lost to a media error (software set)
    v} *)

type t = {
  arg : int;  (** frame number or disk record handle, 18 bits *)
  present : bool;
  modified : bool;
  used : bool;
  locked : bool;
  unallocated : bool;
  valid : bool;
  damaged : bool;
}

val unallocated_ptw : t
(** Valid but never-allocated page: first touch should charge quota. *)

val in_core : frame:int -> t
(** Valid, present PTW for [frame]. *)

val on_disk : record:int -> t
(** Valid, absent PTW whose page image is disk record [record]. *)

val damaged_ptw : record:int -> t
(** Valid, absent, damaged PTW (the "damaged segment" switch at page
    granularity).  Touching it raises a missing-page fault; the fault
    handler signals the process instead of reading. *)

val encode : t -> Word.t
val decode : Word.t -> t

val read : Phys_mem.t -> Addr.abs -> t
val write : Phys_mem.t -> Addr.abs -> t -> unit

val unallocated_word : Word.t
(** [encode unallocated_ptw], computed once. *)

val on_disk_word : record:int -> Word.t
(** [encode (on_disk ~record)] without building the record: the valid
    bit over the 18-bit record field. *)

(** Raw-word probes for the translation fast path: test bits of the
    fetched word in place instead of decoding a record per reference.
    Semantically identical to going through {!decode}. *)

val raw_arg : Word.t -> int
val raw_present : Word.t -> bool
val raw_modified : Word.t -> bool
val raw_used : Word.t -> bool
val raw_locked : Word.t -> bool
val raw_unallocated : Word.t -> bool
val raw_valid : Word.t -> bool
val raw_damaged : Word.t -> bool

val raw_lock : Word.t -> Word.t
(** The word with the descriptor-lock bit set. *)

val raw_clear_used : Word.t -> Word.t
(** The word with [used] cleared — the clock hand's second-chance
    write-back. *)

val raw_clear_modified : Word.t -> Word.t
(** The word with [modified] cleared — the cleaner's write-back after
    flushing the page image. *)

val raw_mark_accessed : Word.t -> write:bool -> Word.t
(** The word with [used] set, and [modified] too when [write] — the
    per-reference bookkeeping every translation writes back. *)

val pp : Format.formatter -> t -> unit
