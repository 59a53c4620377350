(** The user-ring name manager (Bratt's extraction).

    Pathname expansion does not need kernel protection: this module runs
    conceptually in the user ring and walks a tree name one component at
    a time through the kernel's single-directory search gate.  Thanks to
    mythical identifiers the walk never learns whether the intervening
    directories exist; only the final initiation answers, and then only
    with "found" or "no access" (paper pp. 27-28).

    Multics path syntax: components separated by [>]; a leading [>]
    names the root. *)

type t

val create :
  ?use_cache:bool -> ?obs:Multics_obs.Sink.t ->
  meter:Meter.t -> gate:Gate.t -> directory:Directory.t ->
  unit -> t
(** [use_cache] (default true) enables the pathname resolution cache:
    (subject, ring, directory uid, component) -> real entry uid.  Only
    positive, non-mythical answers are cached, the key includes the
    whole subject so no resolution leaks across principals, and the
    cache is dropped once {!Directory.changes} has moved (a delete, an
    ACL change or an offline pack): every use of the cache reads the
    count first — resolution results are identical with the cache on
    or off. *)

val components : string -> string list
(** [">a>b>c" -> ["a"; "b"; "c"]]; tolerates a missing leading [>]. *)

val resolve_parent :
  t -> subject:Directory.subject -> ring:int -> path:string ->
  (Ids.uid * string, [ `Bad_path ]) result
(** Walk to the parent of the final component; returns (directory uid —
    possibly mythical — and the leaf name). *)

val initiate :
  t -> subject:Directory.subject -> ring:int -> path:string ->
  (Directory.target, [ `No_access | `Bad_path ]) result
(** Full resolution for use: walk, then ask the kernel for the target.
    Nonexistence and inaccessibility are indistinguishable. *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_invalidations : t -> int
(** Whole-cache drops (directory change, capacity, explicit clear).
    Reads the directory manager's change count first, like a lookup, so
    a change not yet followed by a lookup is already counted. *)

val cache_size : t -> int
(** Entries held, after the same change check. *)

val clear_cache : t -> unit
(** Used at shutdown/reboot; also available to tests. *)
