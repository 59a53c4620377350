(** The legacy supervisor, assembled: one-level process control plus a
    facade comparable to {!Multics_kernel.Kernel}.

    Process control is single-level: every process competes directly
    for the real processors, and its state lives in a pageable segment,
    so a context switch can itself take page faults — the interpreter
    dependency loop the two-level design removes.  Runs on the legacy
    hardware configuration (no lock bit, no quota-fault bit, single
    descriptor base register). *)

module K = Multics_kernel

type config = {
  hw : Multics_hw.Hw_config.t;
  disk_packs : int;
  records_per_pack : int;
  reserved_frames : int;  (** top of memory for tables and descriptors *)
  ast_slots : int;
  pt_words : int;
  max_processes : int;
  quantum : int;  (** actions per scheduling quantum *)
  root_quota : int;
}

val default_config : config
val small_config : config

type t

val boot : config -> t
val state : t -> Old_types.state

val mkdir : t -> path:string -> acl:K.Acl.t -> unit
val create_file : t -> path:string -> acl:K.Acl.t -> unit
val set_quota : t -> path:string -> limit:int -> unit
val quota_usage : t -> path:string -> (int * int) option

val spawn :
  t -> ?principal:K.Acl.principal -> pname:string -> K.Workload.program -> int

val run : ?until:int -> ?max_events:int -> t -> unit
val run_to_completion : ?max_events:int -> t -> bool
val now : t -> int
val proc_state : t -> int -> Old_types.proc_state

val observed_graph : t -> Multics_depgraph.Graph.t
(** A copy of the dependency edges actually exercised (see
    {!Old_types.share}), under the Figure 2/3 module names — compare
    with [Figures.fig2_superficial] to rediscover the paper's loops. *)

val stats : t -> Old_types.stats
val meter : t -> K.Meter.t
val pp_report : Format.formatter -> t -> unit
