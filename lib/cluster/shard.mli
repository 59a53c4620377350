(** One machine of the cluster, behind a uniform facade.

    A shard is a whole simulated machine — hardware, clock, disks —
    running either the new kernel (with its Answering Service) or the
    legacy supervisor, MultiK-style: the cluster orchestrates
    heterogeneous kernels under identical traffic, so a
    legacy-supervisor shard can serve next to kernel shards and be
    compared live.

    The facade is what the coordinator and the login handlers need:
    boot, register/login/logout, run-to-barrier, the remote-gate
    service surface ([rgate_create]/[rgate_settle]) and fingerprints.
    Everything here is shard-local state: a login handler scheduled on
    this shard's machine touches only this shard (its sessions, its
    outbox), which is what lets the coordinator fan quanta out over
    [Par] domains without any cross-domain sharing. *)

module K = Multics_kernel

type session = {
  ses_user : string;
  ses_pid : int;
  ses_start_ns : int;
  ses_deadline_ns : int;  (** absolute; 0 = none *)
  mutable ses_pending : int;
      (** remote requests (creates, then settles) awaiting responses *)
  mutable ses_remote : int list;
      (** remote shards where a create succeeded (duplicates kept;
          settlement targets are the deduplicated set) *)
  mutable ses_settled_pages : int;
  mutable ses_shed : int;  (** remote creates refused [Timed_out] *)
  mutable ses_state : [ `Running | `Settling | `Closed ];
}

type backend
(** Kernel or legacy supervisor; opaque — the facade below is the only
    surface the coordinator uses. *)

type t = {
  sh_id : int;
  sh_outbox : Link.envelope Queue.t;
      (** Envelopes minted this quantum; drained by the coordinator at
          the barrier, in shard order. *)
  mutable sh_seq : int;
  sh_sessions : (int, session) Hashtbl.t;  (** by home pid *)
  mutable sh_logins : int;
  mutable sh_login_failures : int;
  mutable sh_remote_calls : int;  (** creates sent over a link *)
  mutable sh_local_calls : int;  (** creates the ring kept at home *)
  mutable sh_shed : int;  (** arriving creates this shard refused *)
  sh_ledger : (string * int, int ref) Hashtbl.t;
      (** (user, home pid) -> pages this shard holds for that session *)
  mutable sh_new : session list;
      (** Sessions registered this quantum, newest first; the
          coordinator drains them into its scan list at the barrier so
          it never has to walk [sh_sessions]. *)
  sh_backend : backend;
}

val boot_kernel : ?rgate_quota:int -> K.Kernel.config -> int -> t
(** [boot_kernel cfg id]: boot the kernel, create [>home] (open) and
    the remote-gate directory [>rgate] with a quota cell of
    [rgate_quota] pages (default 64; it is carved out of the root cell, so it must fit under the kernel config's [root_quota]), and attach a [Split]
    Answering Service.  A bare-kernel reference run that performs the
    same boot steps is bit-identical to a 1-shard cluster (bench C7a
    and test/test_cluster.ml assert it). *)

val boot_legacy :
  ?rgate_quota:int -> Multics_legacy.Old_supervisor.config -> int -> t
(** The legacy supervisor behind the same facade: logins authenticate
    against a local password table and spawn directly (there is no
    answering service to delegate to); remote creates make the file
    but fill no pages. *)

val machine : t -> Multics_hw.Machine.t
val now : t -> int
val kernel : t -> K.Kernel.t option
val accounting : t -> Multics_services.Accounting.t

val run_until : t -> time:int -> unit
(** Drain this shard's events up to the barrier.  Safe to call from a
    [Par] worker domain: touches only this shard. *)

val quiescent : t -> bool
(** No pending events on this shard's machine. *)

val next_event : t -> int option

val register_user : t -> user:string -> password:string -> unit

val login :
  ?load_class:int -> ?deadline_ns:int -> t -> user:string ->
  password:string -> program:K.Workload.program -> (int, string) result
(** Authenticate and spawn; returns the pid.  Counts into
    [sh_logins]/[sh_login_failures] and registers the session. *)

val session_done : t -> session -> bool
(** The session's process reached [P_done]/[P_failed] (or the legacy
    equivalent). *)

val logout : t -> session -> unit
(** Close the books on a completed session: the Answering Service
    settles connect/cpu/IO attribution locally, and the session's
    settled remote pages land additively in the accounting record.
    Marks the session [`Closed]. *)

val rgate_create : ?deadline:int -> t -> user:string -> session:int ->
  key:string -> words:int -> int
(** Serve a (possibly remote) gate call: create a file for [key] under
    [>rgate], fill [words] words (allocating pages against the rgate
    quota cell), and remember the pages in the per-session ledger.
    Returns the pages charged. *)

val rgate_settle : t -> user:string -> session:int -> int
(** Cross-machine quota settlement: remove and return the pages held
    for that session. *)

val ledger_pages : t -> int
(** Pages currently held for foreign sessions — drops to the settled
    amount as logouts drain it. *)

val rgate_usage : t -> int
(** Pages charged to the [>rgate] quota cell right now. *)

val completed : t -> int
val failed : t -> int

val invariants : t -> string list
(** Kernel shards: [Invariants.check]; legacy shards: []. *)

val frames_conserved : t -> bool
(** used + free = total page frames (kernel shards; legacy true). *)

val shutdown : t -> unit
(** Kernel shards flush and persist (requires all processes done);
    legacy shards have no orderly shutdown and keep their disks. *)

val disk_hash : t -> int
(** Deterministic hash of the shard's whole disk (VTOC shape, file
    maps, record contents) — the byte-identity fingerprint. *)

val disk_hash_of_machine : Multics_hw.Machine.t -> int
(** The same digest over any machine's disk, so a bare-kernel
    reference run can be compared against a 1-shard cluster with the
    identical hash function. *)
