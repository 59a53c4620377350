(** The known segment manager.

    Each process has a known segment table (KST) mapping its segment
    numbers to segment unique identifiers, together with the access
    modes the directory manager granted at initiation and — crucially —
    the {e statically bound} quota cell of the nearest superior quota
    directory, supplied by whoever initiated the segment.  The KST is
    what lets the quota-fault chain run entirely downward: translate
    segment number to uid, hand the quota cell name to the segment
    manager, never look at the hierarchy (paper pp. 21-22). *)

type kst_entry = {
  ke_segno : int;
  ke_uid : Ids.uid;
  ke_cell : Quota_cell.handle;
  ke_mode : Acl.mode;
  ke_ring : int;  (** highest ring from which the segment is usable *)
}

type t

val create : meter:Meter.t -> segment:Segment.t -> first_user_segno:int -> t

val create_kst : t -> proc:int -> unit
val destroy_kst : t -> proc:int -> unit

val make_known :
  t -> proc:int -> uid:Ids.uid -> cell:Quota_cell.handle ->
  mode:Acl.mode -> ring:int -> int
(** Assign (or return the existing) segment number for [uid] in the
    process's address space. *)

val terminate : t -> proc:int -> segno:int -> unit

val info : t -> proc:int -> segno:int -> kst_entry option

val handle_quota_fault :
  t -> proc:int -> segno:int -> pageno:int ->
  [ `Retry | `Error of string ]
(** The quota-fault chain: segno -> uid, activate if needed, then
    [Segment.grow] with the statically bound cell.  Full-pack handling
    happens below and surfaces as an upward signal, not here. *)

val ensure_active :
  t -> proc:int -> segno:int ->
  (int * kst_entry, [ `Not_known | `Gone | `No_slot ]) result
(** Activate (if necessary) the segment behind [segno]; returns its AST
    slot.  Used by the missing-segment path. *)
