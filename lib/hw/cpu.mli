(** Simulated processors.

    Each CPU owns the per-processor state the paper discusses: the
    descriptor base register(s) and the register recording the absolute
    address of a locked page descriptor.  With the wakeup-waiting
    switch, which the virtual processor manager keeps, that register
    prevents lost notifications between a locked-descriptor fault and
    the wait primitive (paper p.20). *)

type dbr = { base : Addr.abs; n_segments : int }
(** A descriptor base register: absolute address of an SDW array. *)

type t = {
  id : int;
  mutable ring : int;                      (** current ring of execution *)
  mutable user_dbr : dbr option;
  mutable system_dbr : dbr option;         (** used only with dual DBR *)
  mutable locked_ptw : Addr.abs option;
  mutable translations : int;
  mutable faults : int;
  tlb : Assoc_mem.t;                       (** SDW associative memory *)
  mutable xl_ns : int;
      (** Simulated ns spent in address translation (walks vs. AM
          hits).  The hw library cannot meter, so this accumulates and
          the kernel's dispatcher folds the delta into step costs. *)
}

val create : id:int -> t

val load_user_dbr : t -> dbr option -> unit
(** Performed by the dispatcher on every process switch.  Flushes the
    associative memory: its contents describe the outgoing space. *)

val translate :
  Hw_config.t -> Phys_mem.t -> t -> Addr.virt -> Fault.access ->
  (Addr.abs, Fault.t) result
(** One address translation.  Consults the system descriptor table for
    segment numbers below the split when [dual_dbr] is on.  Side
    effects mirror the hardware: sets the PTW used/modified bits on
    success; with [descriptor_lock_bit], atomically sets the lock bit
    and records [locked_ptw] when a missing-page fault is taken.

    With [assoc_mem_size > 0] the SDW comes from the associative
    memory when present, skipping the descriptor-table fetch and
    charging [tlb_hit_cost] instead of [walk_cost] to [xl_ns].  The
    PTW is always re-read, so results and memory side effects are
    identical with the AM on or off. *)

val read :
  Hw_config.t -> Phys_mem.t -> t -> Addr.virt -> (Word.t, Fault.t) result
