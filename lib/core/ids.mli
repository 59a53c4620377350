(** Unique identifiers.

    Segment unique identifiers (uids) name segments independently of any
    address space; mythical identifiers implement Bratt's scheme for
    directory searches through inaccessible directories — they look like
    uids, are generated deterministically from the search key so that
    repeated probes are consistent, and can never collide with a real
    uid (disjoint tag bit). *)

type uid = private int

val generator : ?start:int -> unit -> unit -> uid
(** A fresh uid supply (uids start+1, start+2, ...; start defaults
    to 0).  A rebooted incarnation starts above the largest uid on
    disk. *)

val to_int : uid -> int

(** Reconstruct a uid read back from storage (a VTOC entry). *)
val of_int : int -> uid
val equal : uid -> uid -> bool

val is_mythical : uid -> bool

val mythical : parent:uid -> name:string -> uid
(** Deterministic mythical id for entry [name] under [parent]; stable
    across calls so a prober cannot distinguish real from mythical by
    re-asking. *)

val pp : Format.formatter -> uid -> unit
