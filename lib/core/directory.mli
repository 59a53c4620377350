(** The directory manager.

    Directories form the naming hierarchy; each entry carries its own
    ACL and AIM label, and "access to a file is determined entirely by
    the access control list for that file".  Directory contents are
    stored in ordinary segments (a component dependency on the segment
    manager), so listing a big directory takes page faults and creating
    entries consumes quota.

    Three paper mechanisms live here:

    - {e the search primitive with Bratt's mythical identifiers}: the
      kernel exports only single-directory search; asked to search an
      inaccessible (or nonexistent) directory for a name with no
      accessible target, it fabricates a stable identifier rather than
      reveal anything (paper p.28);
    - {e quota directories}: designation and un-designation are allowed
      only while the directory is childless — the semantic change that
      makes a segment's controlling quota cell static (paper p.21);
    - {e the Segment_moved upward signal handler}: after a full-pack
      relocation the directory entry's pack/VTOC address is updated
      here, with control arriving by signal rather than by a call from
      below. *)

type subject = {
  s_principal : Acl.principal;
  s_label : Multics_aim.Label.t;
  s_trusted : bool;
}

type entry_kind = K_directory | K_segment

type entry_info = {
  i_name : string;
  i_uid : Ids.uid;
  i_kind : entry_kind;
  i_label : Multics_aim.Label.t;
  i_is_quota : bool;
  i_pack : int;
}

type target = {
  t_uid : Ids.uid;
  t_cell : Quota_cell.handle;  (** statically bound controlling cell *)
  t_mode : Acl.mode;  (** effective mode: ACL restricted by AIM *)
  t_label : Multics_aim.Label.t;
}

type t

val create :
  meter:Meter.t -> segment:Segment.t -> quota:Quota_cell.t ->
  volume:Volume.t -> audit:Multics_aim.Audit.t -> t

val create_root : t -> quota_limit:int -> Ids.uid
(** Build the root directory (">") on pack 0 as a quota directory
    holding the system's entire storage quota. *)

val root_uid : t -> Ids.uid

val changes : t -> int
(** Mutations that can change the meaning of a name or the access to
    an entry so far: deletes, ACL changes and delivered [Pack_offline]
    signals.  Monotone.  The name manager's resolution cache reads it
    down and drops itself when the count has moved; nothing here calls
    up. *)

val search :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  [ `Found of Ids.uid | `No_entry ]
(** The single-directory search primitive.  [`No_entry] escapes only
    when the caller can read the directory; otherwise the answer is
    always [`Found] — possibly of a mythical identifier. *)

val initiate_target :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  (target, [ `No_access ]) result
(** Resolve a directory entry for use.  Nonexistence, a mythical
    directory identifier and inadequate access are deliberately
    indistinguishable: all are [`No_access]. *)

val create_entry :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  kind:entry_kind -> acl:Acl.t -> label:Multics_aim.Label.t ->
  (Ids.uid, [ `No_access | `Name_duplicated | `Bad_label | `No_space ]) result
(** Create a file or directory.  The new segment lives on its parent's
    pack (relocation happens when that pack fills).  [`Bad_label] when
    the new label does not dominate the subject's (no write-down). *)

val delete_entry :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  (unit, [ `No_access | `Not_empty ]) result

val list_names :
  t -> subject:subject -> dir_uid:Ids.uid ->
  (entry_info list, [ `No_access ]) result

val set_acl :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  acl:Acl.t -> (unit, [ `No_access ]) result
(** Replace an entry's ACL.  Per the Multics rule the paper examines,
    this changes access to the entry {e completely}: nothing above it in
    the hierarchy needs to change, and nothing above it can veto. *)

val set_quota :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  limit:int ->
  (unit, [ `No_access | `Has_children | `Over_quota ]) result
(** Designate a (childless) directory as a quota directory, carving
    [limit] pages out of the controlling cell. *)

val clear_quota :
  t -> subject:subject -> dir_uid:Ids.uid -> name:string ->
  (unit, [ `No_access | `Has_children ]) result

val handle_segment_moved :
  t -> uid:Ids.uid -> new_pack:int -> new_index:int -> unit
(** Upward-signal delivery: repoint the directory entry (and the quota
    cell home, if the moved segment was a quota directory). *)

val quota_usage :
  t -> dir_uid:Ids.uid -> name:string -> (int * int) option
(** (used, limit) of the quota cell of entry [name], if it is a quota
    directory. *)

val note_pack_offline : t -> pack:int -> unit
(** Upward-signal delivery ([Pack_offline]): count one change, so the
    resolution caches above the gate drop entries that may be homed on
    the pack.  The disk pack manager raises the signal once per offline
    window, and every delivery counts. *)

val persist : t -> unit
(** Serialise every directory's entries, ACL and labels into its
    backing segment, so the hierarchy survives a shutdown.  The encoded
    bytes live in real simulated pages: they are paged, charged to
    quota, and written to disk records like any other data. *)

val restore : t -> unit
(** Rebuild the in-memory directory records of a new incarnation by
    reading the hierarchy back from disk, starting at the root (by
    convention VTOC entry 0 of pack 0).  Re-registers quota cells from
    the persisted VTOC values.  Requires the disk pack manager's
    locator to be rebuilt first. *)

val entries_index : t -> (Ids.uid * int * int) list
(** Every directory entry's recorded (uid, pack, VTOC index) — what the
    salvager checks against the disk pack manager's locator. *)

val quota_attribution : t -> (Ids.uid * Quota_cell.handle) list
(** Every segment in the hierarchy (files, directories, the root) with
    the quota cell its pages charge — the static binding, enumerated
    for the invariant checker and the salvager. *)

val mythical_answers : t -> int
(** How many searches were answered with a mythical identifier. *)
