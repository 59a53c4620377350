(** The address space manager.

    Owns descriptor segments.  Each loaded user process has one,
    resident while the process is bound to a virtual processor; each
    processor also carries a {e system} descriptor table (in a core
    segment, selected by the second descriptor base register) so that
    kernel modules never depend on the machinery behind user address
    spaces (paper p.19).

    Missing-segment faults land here: the manager consults the known
    segment table for the uid and grants, has the segment manager
    activate it, plants the SDW, and registers the connection so the
    segment manager can sever it on relocation or deactivation. *)

type t

val create :
  machine:Multics_hw.Machine.t -> meter:Meter.t ->
  core:Core_segment.t -> segment:Segment.t -> known:Known_segment.t ->
  max_spaces:int -> t

val install_system_dbr : t -> Multics_hw.Cpu.t -> unit

val create_space : t -> proc:int -> unit
(** Raises [Failure] when the descriptor-segment pool is exhausted. *)

val destroy_space : t -> proc:int -> unit

val dbr_of : t -> proc:int -> Multics_hw.Cpu.dbr

val handle_missing_segment :
  t -> proc:int -> segno:int ->
  [ `Retry | `Error of string ]
(** Connect the faulting segment number: KST lookup, activation, SDW
    construction from the recorded grant, connection registration. *)

val disconnect : t -> proc:int -> segno:int -> unit
(** Fault the SDW and unregister the connection (termination). *)
