(** System accounting, kept by the Answering Service. *)

type record = {
  mutable logins : int;
  mutable failed_logins : int;
  mutable connect_ns : int;
  mutable cpu_ns : int;
  mutable pages_used : int;
  mutable remote_pages : int;
      (** Pages charged on {e other} machines on this user's behalf and
          settled home at logout — the cluster's cross-machine quota
          settlement lands here, additively, one settlement per remote
          shard. *)
}

type t

val create : unit -> t
val record_for : t -> user:string -> record
val note_login : t -> user:string -> unit
val note_failure : t -> user:string -> unit
val note_usage : t -> user:string -> connect_ns:int -> cpu_ns:int -> pages:int -> unit

val note_settlement : t -> user:string -> pages:int -> unit
(** Fold a cross-machine settlement into the user's record: [pages]
    were charged for them on a remote shard's quota and are now
    accounted home.  Additive (unlike [note_usage]'s high-water
    [pages]), because each remote shard settles separately. *)

val total_remote_pages : t -> int
(** Sum of settled remote pages over every user — the home side of the
    cluster's conservation law. *)

val pp : Format.formatter -> t -> unit
