(** Labelled dependency digraphs.

    Nodes are module names; an edge [m -> n] means "establishing the
    correct operation of [m] requires assuming the correct operation of
    [n]" and carries the set of dependency kinds that give rise to it. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val add_edge : t -> from:string -> to_:string -> Dep_kind.t -> unit
(** Adds both endpoints; accumulates kinds on repeated edges.
    Self-edges are rejected with [Invalid_argument] — a module trivially
    depends on itself and recording it would only pollute loop reports. *)

val nodes : t -> string list
(** Sorted. *)

val edges : t -> (string * string * Dep_kind.t list) list
(** Sorted by (from, to); kinds sorted. *)

val successors : t -> string -> (string * Dep_kind.t list) list
val mem_edge : t -> from:string -> to_:string -> bool
val kinds : t -> from:string -> to_:string -> Dep_kind.t list

val n_nodes : t -> int
val n_edges : t -> int

val sccs : t -> string list list
(** Strongly connected components (Tarjan), each sorted, in reverse
    topological order of the condensation; singletons included. *)

val cycles : t -> string list list
(** SCCs of size > 1, plus any singleton with a self-loop (none can
    exist here, so: the non-trivial SCCs).  Empty iff loop-free. *)

val is_loop_free : t -> bool

val layers : t -> string list list option
(** For a loop-free graph, nodes grouped by dependency depth: layer 0 =
    modules depending on nothing, layer k = modules whose longest
    dependency chain has length k.  [None] when the graph has cycles.
    This is the iterative-verification order the paper wants: each
    module can be verified assuming only lower layers. *)

val copy : t -> t
