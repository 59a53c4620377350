(** AIM labels: a sensitivity level paired with a compartment set.

    Labels form a lattice under [dominates]: [dominates a b] holds when
    [a]'s level is at least [b]'s and [a]'s compartments include [b]'s.
    The MITRE model's information-flow rule is that information may flow
    from [b] to [a] only when [a] dominates [b]. *)

type t = { level : Level.t; compartments : Compartment.t }

val make : Level.t -> Compartment.t -> t
val system_low : t
(** Bottom of the lattice: unclassified, no compartments. *)

val dominates : t -> t -> bool
val equal : t -> t -> bool

val lub : t -> t -> t
(** Least upper bound. *)

val glb : t -> t -> t
(** Greatest lower bound. *)

val comparable : t -> t -> bool
(** True when one dominates the other. *)

val encode : t -> int
(** Pack into 21 bits (3 level + 18 compartments) for storage in VTOC
    entries and descriptor words. *)

val decode : int -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
