(** Consistent-hash ring: the cluster's placement function.

    Users and pathnames map to shards through a ring of virtual nodes:
    each shard owns [vnodes] points on a 62-bit circle, and a key is
    served by the shard owning the first point at or after the key's
    hash.  Two properties make this the right placement function for a
    computing utility:

    - {b balance} — with enough virtual nodes the arc owned by each
      shard (and hence its share of a large key population) concentrates
      near [1/n], so no shard melts while another idles;
    - {b minimal movement} — adding or removing a shard moves only the
      keys on the arcs it gains or loses (about [1/n] of them); every
      other key keeps its home, so a reconfiguration does not stampede
      the whole user population through re-registration.

    The hash is a self-contained FNV-1a: no dependence on
    [Hashtbl.hash] or any other implementation detail that could move
    between compiler versions, so placements are stable across runs,
    machines and builds — a cluster run is replayable byte-for-byte
    (test/test_cluster.ml holds the line with qcheck properties). *)

type t

val create : shards:int -> ?vnodes:int -> unit -> t
(** A ring over shard ids [0 .. shards-1], [vnodes] points each
    (default 64).  Raises [Invalid_argument] unless [shards >= 1]. *)

val shard_of : t -> string -> int
(** The shard owning [key]'s point on the circle. *)

val hash : string -> int
(** The ring's key hash (FNV-1a folded to 62 bits), exposed so tests
    can pin its stability. *)

val add_shard : t -> t
(** A new ring with one more shard (id [n_shards]); existing shards
    keep their points, so only keys landing on the new shard's arcs
    move. *)

val remove_shard : t -> int -> t
(** A new ring without shard [id]; its keys redistribute to the
    remaining shards, everything else stays put.  Raises
    [Invalid_argument] if the shard does not exist or the ring would
    become empty.  The surviving shards keep their original ids. *)
