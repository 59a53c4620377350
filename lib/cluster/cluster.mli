(** The multi-machine computing utility: N simulated machines behind a
    consistent-hash ring, run in lockstep quanta.

    Multics was always meant to be a {e utility} — one campus-wide
    service a whole user population logs into — and this module is the
    repo's version of scaling that past one machine: each {!Shard} is
    a whole [Hw.Machine] plus kernel (or the legacy supervisor,
    MultiK-style), users and pathname keys are sharded across machines
    by {!Ring}, and every cross-machine interaction travels a
    simulated {!Link} with deterministic delivery order.

    {2 Execution model}

    The link's one-way latency is the {e lookahead}: a message sent
    during one quantum cannot arrive before the next barrier, so the
    coordinator can run every shard's event loop independently up to
    the barrier — farmed over [Par] domains — and do all cross-shard
    work (outbox drains, deliveries, request handling, settlement,
    logouts) sequentially at the barrier.  That is the classic
    conservative-PDES discipline, and it is what makes the whole
    cluster {e byte-identical} at any domain count: which domain runs
    a shard's quantum is a pure function of the index, and nothing
    crosses shards mid-quantum.

    {2 What rides the envelopes}

    Requests carry the originating principal and the absolute
    end-to-end deadline, so PR 8's causal attribution and PR 9's
    deadline shedding keep working across machines: a receiving shard
    mints a child request context under the wire's origin, and refuses
    ([Timed_out]) creates whose deadline already passed.  At logout
    the home shard settles quota with every shard that holds pages for
    the session — the cross-machine accounting the paper's computing
    utility would have needed. *)

module K = Multics_kernel
module L = Multics_legacy

type shard_spec =
  | Kernel_shard of K.Kernel.config
  | Legacy_shard of L.Old_supervisor.config
      (** A MultiK-style heterogeneous member: the legacy supervisor
          serving the same traffic behind the same facade. *)

type config = {
  shards : shard_spec list;
  rgate_quota : int;  (** quota cell on each shard's [>rgate] *)
  choice : Multics_choice.Choice.t option;
      (** drives the ["net.deliver"] delivery-order point *)
}

val config :
  ?rgate_quota:int -> ?choice:Multics_choice.Choice.t -> shard_spec list ->
  config
(** Defaults: 64-page rgate quota, inert delivery order.  Every cluster
    has the ring's 64 virtual nodes per shard and 1 ms links (the
    one-way latency, which is also the barrier quantum). *)

type t

val create : config -> t
(** Boot every shard (kernel shards get [>home], [>rgate] with its
    quota cell, and a [Split] Answering Service — the same steps as a
    bare-kernel reference run, which is why a 1-shard cluster is
    bit-identical to one). *)

val n_shards : t -> int
val shard : t -> int -> Shard.t
val home_of : t -> string -> int
(** The ring's shard for a user (or any key). *)

val register_user : t -> user:string -> password:string -> unit
(** Register on the user's home shard. *)

val login_at :
  t -> at_ns:int -> ?load_class:int -> ?deadline_ns:int ->
  ?remote_keys:string list -> ?remote_words:int -> user:string ->
  password:string -> K.Workload.program -> unit
(** Schedule a login on the user's home machine at [at_ns] (clamped
    to the machine clock).  When it fires, the session authenticates
    and spawns locally; each of [remote_keys] is then created under
    the ring's shard for that key — a direct call when it lands at
    home (no network at all: the 1-shard bypass), a gate call over
    the link otherwise, carrying the session's deadline.  [deadline_ns]
    is relative to the login instant. *)

val run : ?domains:int -> t -> unit
(** Drive barriers until every shard is quiescent, the fabric is
    empty and every session has logged out and settled.  [domains]
    farms the per-shard quanta over [Par] (byte-identical at any
    value).  Quiet stretches fast-forward to the next event on the
    quantum grid, so an idle cluster costs nothing.  Raises [Failure]
    past 2,000,000 barriers, a runaway guard. *)

type stats = {
  st_logins : int;
  st_login_failures : int;
  st_sessions_closed : int;
  st_remote_calls : int;  (** creates that crossed a link *)
  st_local_calls : int;  (** creates the ring kept at home *)
  st_shed : int;  (** remote creates refused past-deadline *)
  st_messages : int;  (** envelopes delivered *)
  st_settled_pages : int;  (** pages settled home across all users *)
  st_charged_pages : int;  (** pages charged to rgate quota cells *)
  st_ledger_pages : int;  (** pages still held for open sessions *)
  st_completed : int;
  st_failed : int;
  st_barriers : int;
  st_makespan_ns : int;
  st_per_shard_logins : int array;
}

val stats : t -> stats
(** Read {e before} {!shutdown} — shutdown retires the quota cells the
    charged-pages sum is taken from.  After a full {!run}, conservation
    demands
    [st_settled_pages = st_charged_pages] and [st_ledger_pages = 0] —
    every page charged anywhere was settled home exactly once
    (test/test_fuzz.ml fuzzes this law over random clusters). *)

val call_histo : t -> Multics_obs.Histo.t
(** Round-trip latency of cross-shard calls (creates and settles),
    measured on the home shard's barrier clock — ["cluster.call"] in
    the coordinator sink. *)

val invariants : t -> (int * string) list
(** Kernel invariant violations, tagged with the shard id. *)

val frames_conserved : t -> bool
(** Page-frame conservation holds on every shard. *)

val shutdown : t -> unit
(** Orderly shutdown of every kernel shard (flushes write-behind so
    {!fingerprint} sees settled disks). *)

val fingerprint : t -> string
(** Deterministic digest of the whole cluster: per-shard
    [(clock, disk hash)] plus fabric counters.  Two runs of the same
    workload must produce equal fingerprints — at any [Par] domain
    count (test/test_cluster.ml asserts 1 vs 4). *)
