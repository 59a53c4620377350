(** Access control lists.

    Every file and directory carries its own ACL, and — the Multics
    rule whose interaction with naming the paper dissects — "access to a
    file is determined entirely by the access control list for that
    file", never by the lists of directories above it.

    Principals are user.project pairs; entries match with ["*"]
    wildcards, first match wins, no match means no access. *)

type principal = { user : string; project : string }

type mode = { read : bool; write : bool; execute : bool }

val no_access : mode
val r : mode
val rw : mode
val rwe : mode

type entry = { who_user : string; who_project : string; mode : mode }
(** ["*"] in either position matches anything. *)

type t = entry list
(** Ordered; first matching entry decides. *)

val entry : ?project:string -> string -> mode -> entry
(** [entry "alice" rw] — project defaults to ["*"]. *)

val check : t -> principal -> mode
(** Effective mode for [principal] (first match, or {!no_access}). *)

val permits : t -> principal -> [ `Read | `Write | `Execute ] -> bool

val pp : Format.formatter -> t -> unit
