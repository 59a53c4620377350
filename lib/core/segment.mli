(** The segment manager (subsuming the active segment manager).

    Segments are named by unique identifiers and live in VTOC entries on
    disk packs; an {e active} segment additionally occupies a slot of
    the active segment table (in a core segment) with a real page table
    the hardware can walk.

    Two properties of the redesign show up here:

    - activation binds the segment to its controlling quota cell
      {e statically} ("the segment manager simply associates the static
      name of this directory's quota cell with the segment's
      identifier", paper p.22), so growth never searches the hierarchy,
      and deactivation is free of directory-shape constraints;
    - a full pack during growth relocates the whole segment to an
      emptier pack, disconnects every address space, and raises an
      upward signal so the directory manager can update its entry — no
      call into the directory manager ever happens from here. *)

type t

type grow_error = [ `Over_quota | `No_space | `Damaged ]
(** [`Damaged]: the page's record was lost to a media error or a torn
    crash write; the salvager repairs the segment at the next boot. *)

val create :
  machine:Multics_hw.Machine.t -> meter:Meter.t ->
  core:Core_segment.t -> volume:Volume.t -> quota:Quota_cell.t ->
  page_frame:Page_frame.t -> signals:Upward_signal.t -> ast_slots:int ->
  pt_words:int -> uid_supply:(unit -> Ids.uid) -> t

val pt_words : t -> int
(** Maximum pages an activated segment may have. *)

val create_segment :
  t -> ?process_state:bool -> pack:int ->
  is_directory:bool -> label:int -> unit -> Ids.uid * int
(** Make a new empty segment on [pack]; returns (uid, VTOC index).
    [process_state] marks per-process kernel segments for post-crash
    reclamation (see {!Volume.create_segment}). *)

val delete_segment :
  t -> pack:int -> index:int -> cell:Quota_cell.handle -> unit
(** Deactivate if active, credit the quota cell for every allocated
    page, free records and the VTOC entry. *)

val delete_by_uid :
  t -> uid:Ids.uid -> cell:Quota_cell.handle -> unit
(** Locate (via the disk pack manager) and delete; no-op if already
    gone. *)

val activate :
  t -> uid:Ids.uid -> cell:Quota_cell.handle ->
  (int, [ `No_slot | `Gone ]) result
(** Bring a segment into the AST (idempotent); returns its slot.  The
    segment's current pack is found through the disk pack manager's
    locator, so a relocation that made directory hints stale does not
    matter here.  May deactivate an unconnected victim to make room. *)

val find_active : t -> uid:Ids.uid -> int option

val active_slots : t -> int list
(** Slots currently live in the AST. *)

val deactivate : t -> slot:int -> unit
(** Flush pages, update the file map, sever connections.  Unlike the
    legacy design this works for any segment, directory or not,
    regardless of what else is active. *)

val heal_damaged : t -> int
(** Re-derive every damaged descriptor in the AST from its (repaired)
    file map: a page whose record turned out to be intact — a torn
    write the salvager accepted — becomes an ordinary on-disk page; one
    whose record is really gone becomes a page of zeros, matching the
    file-map repair.  Returns the number of descriptors healed.  Called
    by the salvager after its disk-level repairs, because segments
    activated {e before} the salvage (the directory hierarchy read back
    at reboot) built damaged descriptors from marks that the repair has
    since cleared. *)

val grow :
  t -> slot:int -> pageno:int -> (unit, grow_error) result
(** The quota-fault chain's middle: charge the quota cell, allocate a
    record (relocating the segment if its pack is full), and have the
    page frame manager materialise the zero page. *)

val slot_uid : t -> slot:int -> Ids.uid
val slot_home : t -> slot:int -> int * int
(** (pack, VTOC index) — current, i.e. post-relocation. *)

val ptw_abs : t -> slot:int -> pageno:int -> Multics_hw.Addr.abs
val pt_base : t -> slot:int -> Multics_hw.Addr.abs

val register_connection :
  t -> slot:int -> sdw_abs:Multics_hw.Addr.abs -> unit
(** The address space manager records where it planted an SDW for this
    segment, so relocation/deactivation can set segment faults in every
    connected address space (the trailer mechanism). *)

val unregister_connection :
  t -> slot:int -> sdw_abs:Multics_hw.Addr.abs -> unit

val kernel_touch :
  t -> slot:int -> pageno:int -> write:bool ->
  (unit, grow_error) result
(** Kernel-mode access to a page of an active segment (directory
    contents): page it in synchronously, growing it on first touch. *)

val read_word :
  t -> slot:int -> pageno:int -> offset:int ->
  (Multics_hw.Word.t, grow_error) result

val write_word :
  t -> slot:int -> pageno:int -> offset:int ->
  Multics_hw.Word.t -> (unit, grow_error) result

(* Statistics *)
val activations : t -> int
val deactivations : t -> int
val relocations : t -> int
val grows : t -> int
