(** Sensitivity levels.

    AIM labels every piece of information with a sensitivity level; the
    MITRE (Bell and LaPadula) model orders them totally.  Multics AIM
    provided eight levels; we use the conventional four names for the
    first four and numeric names above. *)

type t

val bottom : t
(** The least level (level 0, "unclassified"). *)

val of_int : int -> t
(** Levels 0..7; raises [Invalid_argument] outside that range. *)

val to_int : t -> int
val secret : t
val compare : t -> t -> int
val max_level : t -> t -> t
val min_level : t -> t -> t
val pp : Format.formatter -> t -> unit
