(** The core segment manager — the bottom of the lattice.

    Core segments are fixed regions of primary memory allocated at
    system initialisation; thereafter the only operations are processor
    reads and writes.  Every kernel manager stores its maps and tables
    here, which is what lets those managers avoid depending on the
    virtual memory they implement.  The allocator freezes at the end of
    initialisation: the number of core segments is fixed, their sizes
    cannot change, and they are permanently resident (paper p.19). *)

type region = { region_name : string; base : Multics_hw.Addr.abs; words : int }

type t

val create :
  machine:Multics_hw.Machine.t -> meter:Meter.t -> reserved_frames:int -> t
(** Reserve the top [reserved_frames] page frames of primary memory for
    core segments.  The page-frame manager must be told to stay below
    [first_reserved_frame]. *)

val first_reserved_frame : t -> int

val alloc : t -> name:string -> words:int -> region
(** Raises [Failure] after {!freeze} or when the reserved pool is
    exhausted. *)

val freeze : t -> unit
val frozen : t -> bool

val read : t -> region -> int -> Multics_hw.Word.t
(** [read t r i] reads word [i] of the region; bounds-checked. *)

val write : t -> region -> int -> Multics_hw.Word.t -> unit

val abs_of : region -> int -> Multics_hw.Addr.abs
(** Absolute address of word [i], for handing to the hardware (page
    tables, descriptor tables). *)
