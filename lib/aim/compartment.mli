(** Compartment sets.

    A compartment is a named category ("NATO", "CRYPTO", ...); a label
    carries a set of them.  Represented as a bitset of up to 18
    compartment indices so a whole label packs into one machine word for
    storage in VTOC entries. *)

type t

val empty : t
val max_compartments : int
val of_list : int list -> t
val union : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] is true when every compartment of [a] is in [b]. *)

val equal : t -> t -> bool
val to_int : t -> int
val of_int : int -> t
val pp : Format.formatter -> t -> unit
