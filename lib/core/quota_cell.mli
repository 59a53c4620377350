(** The quota cell manager.

    The new design makes quota cells explicit objects: a cell is stored
    in the disk-pack table-of-contents entry of its quota directory and
    cached in a primary-memory table (a core segment) while any inferior
    segment is active.  The segment manager presents a segment's
    statically bound cell name whenever quota must be checked, so no
    upward search of the directory hierarchy ever happens (paper p.21).

    Cells are named by small integer handles valid while registered. *)

type t

type handle = int

val no_cell : handle
(** Pseudo-handle for segments outside any quota regime (kernel
    segments); charge/uncharge against it always succeed. *)

val create :
  meter:Meter.t -> core:Core_segment.t -> volume:Volume.t -> max_cells:int -> t

val register :
  t -> pack:int -> vtoc_index:int -> limit:int -> used:int ->
  handle
(** Bring a quota cell into the cache (directory activation), creating
    it if the VTOC entry had none.  Raises [Failure] when the cache is
    full. *)

val lookup : t -> pack:int -> vtoc_index:int -> handle option

val charge : t -> handle -> int -> (unit, [ `Over_quota ]) result
(** Add pages to the cell's count, refusing past the limit. *)

val uncharge : t -> handle -> int -> unit
(** Credit pages back (zero-page reclamation, truncation, deletion). *)

val used : t -> handle -> int
val limit : t -> handle -> int

val move_quota :
  t -> from:handle -> to_:handle -> int ->
  (unit, [ `Over_quota ]) result
(** Transfer limit between parent and child cells (the terminal-quota
    operation). *)

val sync : t -> handle -> unit
(** Write the cached values back to the owning VTOC entry. *)

val unregister : t -> handle -> unit
(** Sync and drop from the cache (directory deactivation). *)

val relocated : t -> handle -> pack:int -> vtoc_index:int -> unit
(** The owning directory segment moved packs; repoint the cell's home. *)

val registered : t -> (handle * int * int) list
(** Live cells as (handle, used, limit), for the invariant checker. *)

val over_quota_refusals : t -> int
