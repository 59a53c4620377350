(** 36-bit machine words.

    The simulated machine is word-addressed, like the Honeywell 6180 that
    ran Multics.  Words are represented as native OCaml [int]s masked to
    36 bits; all arithmetic helpers here preserve that invariant. *)

type t = int

val mask : int
(** [2^36 - 1], the 36-bit word mask. *)

val zero : t

val of_int : int -> t
(** Truncate a native integer to 36 bits. *)

val is_zero : t -> bool

val add : t -> t -> t
(** Modular 36-bit addition. *)

val extract : t -> pos:int -> len:int -> int
(** [extract w ~pos ~len] reads the [len]-bit field starting at bit
    [pos] (bit 0 is least significant). *)

val insert : t -> pos:int -> len:int -> int -> t
(** [insert w ~pos ~len v] writes [v] (truncated to [len] bits) into the
    field at [pos] and returns the new word. *)

val bit : t -> int -> bool
val set_bit : t -> int -> bool -> t

val pp : Format.formatter -> t -> unit
(** Octal rendering, the Multics convention. *)
