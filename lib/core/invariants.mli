(** Whole-kernel consistency checks.

    The auditable-kernel programme is about being able to *argue*
    correctness; this module is the executable fragment of that
    argument: global invariants that must hold whenever the machine is
    quiescent, checked from outside the managers.  The fuzz suite runs
    them after every random workload.

    Checked:
    - frame-table / page-table agreement: every used frame's PTW is
      present and points back at that frame; free counts add up;
    - AST / locator agreement: every active segment's home matches the
      disk pack manager's locator;
    - record accounting: no disk record is referenced by two file maps,
      and every referenced record is allocated;
    - VP state words: each virtual processor's wired state word agrees
      with the manager's in-record state;
    - ready-queue sanity: every enqueued pid names a live ready process
      and no pid is queued twice;
    - quota accounting: every registered quota cell's count equals the
      allocated pages of the entries it controls. *)

val check : Kernel.t -> string list
(** Human-readable violation descriptions; empty means consistent. *)

val expected_quota : Kernel.t -> (Quota_cell.handle * int) list
(** Recomputed (cell, pages) from the directory tree and VTOC file
    maps — also used by the salvager. *)
