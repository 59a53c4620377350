(** Log2-bucketed latency histograms.

    Durations land in power-of-two buckets: bucket [i] (for [i >= 1])
    covers [2^i .. 2^(i+1)-1] simulated nanoseconds; bucket 0 covers 0
    and 1.  Adding is O(1) with no allocation, so histograms can sit on
    hot paths; percentiles are read as the upper bound of the bucket in
    which the requested rank falls (capped at the exact maximum seen),
    which is the precision a log2 sketch honestly has. *)

type t

val create : name:string -> t
val name : t -> string

val add : t -> int -> unit
(** Record one duration (negative values clamp to 0). *)

val count : t -> int
val sum : t -> int
val max_value : t -> int

val percentile : t -> pct:int -> int
(** [percentile t ~pct:50] = p50, [~pct:95] = p95.  0 when empty. *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name, count, p50, p95, max. *)
