(** Sequencers (Reed and Kanodia, 1977).

    A sequencer issues strictly increasing tickets.  Paired with an
    eventcount it provides mutual exclusion: take a ticket, await the
    eventcount reaching it, do the work, advance. *)

type t

val create : unit -> t

val ticket : t -> int
(** Issue the next ticket; the first ticket is 1 so that awaiting it on
    a fresh eventcount (value 0) blocks until an advance. *)

val issued : t -> int
(** Number of tickets issued so far. *)
