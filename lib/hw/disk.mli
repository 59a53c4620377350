(** Disk packs.

    Each pack holds page-sized records and a table of contents (VTOC).
    A VTOC entry describes one segment resident on the pack: its file
    map (one record per page, with zero pages represented by a flag
    rather than a record — the storage-charging feature the paper
    discusses), and, for quota directories, the quota cell the paper
    turns into an explicit object.

    All pages of a segment live on one pack; allocating on a full pack
    raises {!Pack_full}, the exception whose handling motivates the
    paper's upward-signalling mechanism. *)

exception Pack_full of int  (** pack id *)

val zero_page : int
(** File-map flag for a page of zeros (no record allocated). *)

val unallocated : int
(** File-map flag for a never-grown page. *)

type quota_cell = { mutable limit : int; mutable used : int }

type vtoc_entry = {
  uid : int;  (** segment unique identifier *)
  mutable file_map : int array;  (** record id, [zero_page] or [unallocated] *)
  mutable is_directory : bool;
  mutable quota : quota_cell option;  (** quota cell for quota directories *)
  mutable aim_label : int;  (** opaque AIM label encoding *)
  mutable damaged : bool;
      (** the Multics "damaged segment" switch: some page was lost to a
          media error; cleared when the salvager repairs the file map *)
  is_process_state : bool;
      (** per-process kernel state segment; orphaned entries are
          reclaimed by the salvager after a crash, like Multics
          reclaiming [>pdd] at bootload *)
}

type t

val create : packs:int -> records_per_pack:int -> read_latency_ns:int -> t
val n_packs : t -> int
val records_per_pack : t -> int
val free_records : t -> pack:int -> int

(* Record handles pack the pack id and record id into the 18-bit PTW
   argument field: handle = pack * 4096 + record. *)
val handle : pack:int -> record:int -> int
val pack_of_handle : int -> int
val record_of_handle : int -> int

val alloc_record : t -> pack:int -> int
(** Returns a record id; raises {!Pack_full}. *)

val free_record : t -> pack:int -> record:int -> unit
(** Dead records (see {!mark_dead}) are retired rather than recycled:
    their contents drop but they never rejoin the free list.

    Callers that buffer write-behind (see [Io_sched]) must cancel any
    pending write to the record {e before} freeing it — otherwise the
    record could be reallocated and the stale buffered image would
    land on the new owner's data. *)

val record_is_free : t -> pack:int -> record:int -> bool

val mark_dead : t -> pack:int -> record:int -> unit
(** Retire a record after repeated I/O failures: it is pulled from the
    free list (if free) and {!free_record} will never re-list it. *)

val record_is_dead : t -> pack:int -> record:int -> bool
(** Probes no set on a pack with no dead record; likewise
    {!record_is_torn}. *)

val dead_records : t -> pack:int -> int list
(** Retired records on the pack, sorted. *)

val mark_torn : t -> pack:int -> record:int -> unit
(** Flag a record whose buffered write-behind was lost to a power
    failure.  The mark survives reboot; the salvager clears it. *)

val clear_torn : t -> pack:int -> record:int -> unit
val record_is_torn : t -> pack:int -> record:int -> bool

val torn_records : t -> pack:int -> int list
(** Torn records on the pack, sorted. *)

val read_record : t -> pack:int -> record:int -> Page_image.t
(** The image the record holds: the very image last written to it, not
    a copy (images are immutable, so the platter can share it with the
    write buffer and every reader).  A never-written or freed record
    reads as the shared {!Page_image.zero} page. *)

val write_record : t -> pack:int -> record:int -> Page_image.t -> unit
(** Store the caller's image as the record's contents, without copying
    it. *)

val io_latency_ns : t -> int
(** Latency of one record transfer; callers schedule completion events. *)

val seek_latency_ns : t -> int
(** Head-repositioning share of {!io_latency_ns}; with
    {!transfer_latency_ns} it sums back to the flat latency.  The
    elevator scheduler pays it once per discontinuity instead of once
    per record. *)

val transfer_latency_ns : t -> int

val create_vtoc_entry : t -> pack:int -> vtoc_entry -> int
(** Returns the VTOC index on that pack. *)

val vtoc_entry : t -> pack:int -> index:int -> vtoc_entry
(** Raises [Not_found] for a free slot. *)

val delete_vtoc_entry : t -> pack:int -> index:int -> unit
val vtoc_entries : t -> pack:int -> (int * vtoc_entry) list
val emptiest_pack : t -> except:int -> int option
(** Pack with the most free records, other than [except]; [None] when
    every other pack is full. *)

val io_count : t -> int
(** Total record reads + writes, for the cost model and tests. *)

val len_pages : vtoc_entry -> int
(** One past the last file-map entry that is not [unallocated]; 0 for
    an empty map.  Derived from the map on every call, so no writer of
    the map has a length to keep up to date. *)

val fingerprint : t -> int
(** A digest of everything on the disk: per VTOC entry in pack and
    index order, the index, the uid, {!len_pages}, each file-map handle
    and every word of each record the map names.  Reading the records
    counts in {!io_count}.  Two disks that differ in any word a file map
    reaches differ here (barring a collision). *)
