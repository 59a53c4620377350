(** Legacy storage control: disk volume, segment and page control.

    One body of code with the old structure: page control walks segment
    control's active segment table to find quota cells (the dynamic
    upward search), interpretively retranslates after a raced fault
    (there is no descriptor lock bit), evicts at fault time, and — on a
    full pack — has segment control find and directly update the
    directory entry.  Hot paths charge at assembly-language cost. *)

module K = Multics_kernel

val create_segment :
  Old_types.state -> dir_uid:int -> name:string -> is_dir:bool ->
  acl:K.Acl.t -> (Old_types.dentry, [ `No_access | `Name_duplicated ]) result
(** Make the VTOC entry and the directory entry (directory control and
    volume control share this path in the old supervisor). *)

val activate :
  Old_types.state -> uid:int -> (int, [ `No_slot | `Gone ]) result
(** Bring a segment into the AST, activating its superior directories
    first and linking parent pointers; directories with active
    inferiors cannot be deactivated to make room. *)

val find_active : Old_types.state -> uid:int -> int option

val connect :
  Old_types.state -> Old_types.oproc -> segno:int -> ast:int ->
  mode:K.Acl.mode -> unit
(** Plant the SDW in the process's descriptor segment. *)

type fault_outcome =
  | O_retry
  | O_wait of Multics_sync.Eventcount.t * int
  | O_error of string

val service_page_fault :
  Old_types.state -> Old_types.oproc -> ptw_abs:Multics_hw.Addr.abs ->
  fault_outcome
(** The legacy missing-page path, including the grow-with-quota-search
    case (the hardware cannot distinguish it). *)

val kernel_touch_sync :
  Old_types.state -> uid:int -> pageno:int -> write:bool ->
  (unit, string) result
(** Synchronous kernel access to a page (process-state segments during
    loading); charges any I/O latency inline. *)

val deactivate_for_test : Old_types.state -> ast:int -> bool
(** Try to deactivate one AST entry (tests exercise the hierarchy
    constraint); [false] if the entry is protected by active
    inferiors. *)
