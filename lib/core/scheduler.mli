(** Level-2 scheduling policy (pluggable, for the scheduler ablation).

    Chooses which ready user process next receives a virtual processor.
    [Fcfs] never preempts; [Round_robin] rotates with a fixed quantum;
    [Multilevel] is a Multics-flavoured foreground/background ladder —
    a process that exhausts its quantum drops a level and later runs
    with a longer quantum, interactive processes stay on top. *)

type policy =
  | Fcfs
  | Round_robin of { quantum : int }  (** quantum in workload actions *)
  | Multilevel of { levels : int; base_quantum : int }

type t

val create : ?choice:Multics_choice.Choice.t -> policy -> t
(** [choice] (default inert) governs which ready process [next]
    removes — the priority-ladder order under the inert strategy, a
    strategy-picked candidate (domain ["sched.next"], ids = pids in
    ladder order) otherwise. *)

val policy : t -> policy

val enqueue : t -> int -> unit
(** A process becomes ready (first arrival or wakeup): top level. *)

val requeue_preempted : t -> int -> unit
(** The process exhausted its quantum: demote (multilevel) or rotate. *)

val next : t -> int option
(** Highest-priority ready process, removed from the queue. *)

val quantum_for : t -> int -> int
(** Quantum, in actions, the process should receive now. *)

val enqueued : t -> int list
(** Every queued pid in ladder order (level 0 first, FIFO within a
    level), without removing any — the invariant oracle's view. *)
