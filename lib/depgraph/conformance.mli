(** Runtime dependency conformance.

    The kernel's managers declare their dependencies up front (the
    design); the kernel's meter records actual cross-manager calls here
    as they happen (the implementation).  The audit compares the two: every observed
    call edge must be covered by a declared dependency, or the
    implementation has drifted from the auditable structure — the
    failure mode the paper's whole methodology exists to prevent. *)

type t

val create : declared:Graph.t -> t

val record_call : t -> from:string -> to_:string -> unit
(** Note an actual call from manager [from] into manager [to_].
    Self-calls are ignored. *)

val observed : t -> (string * string * int) list
(** Distinct observed edges with call counts, sorted. *)

type violation = { v_from : string; v_to : string; v_count : int }

val violations : t -> violation list
(** Observed edges not covered by any declared dependency. *)

val unexercised : t -> (string * string) list
(** Declared edges never observed (informational; map/program/address
    space/interpreter dependencies are structural and are not expected
    to appear as calls, so only [Component] and [Explicit_call]
    declarations are reported here). *)

val conforms : t -> bool
val report : Format.formatter -> t -> unit
