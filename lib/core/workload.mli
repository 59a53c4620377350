(** Synthetic process programs.

    A user process executes a program: a finite sequence of actions the
    kernel facade interprets one per dispatch step.  Touches go through
    real address translation (and so take real simulated faults); the
    file-system actions call kernel gates; eventcount actions exercise
    user-level synchronisation and the level-1/level-2 wakeup path.

    Segment numbers are obtained dynamically ([Initiate] stores one in a
    process register; [Touch] names a register), since address spaces
    are per-process. *)

type action =
  | Touch of { seg_reg : int; pageno : int; offset : int; write : bool }
  | Compute of int  (** pure computation costing this many ns *)
  | Initiate of { path : string; reg : int }
      (** resolve a path, make the segment known, store the segno *)
  | Terminate_seg of { seg_reg : int }
  | Create_file of { dir : string; name : string }
  | Create_dir of { parent : string; name : string }
  | Delete of { path : string }
  | Set_quota of { path : string; pages : int }
  | Set_acl of { path : string; user : string; read : bool; write : bool }
      (** grant [user] modes on the entry at [path] *)
  | List_dir of { path : string }
  | Execute of { seg_reg : int; entry : int }
      (** run machine code from the segment in [seg_reg], starting at
          word [entry], until it halts — instruction fetch and operands
          go through real address translation and take real faults *)
  | Await_ec of { ec : string; value : int }
      (** block on a named user eventcount (releases the VP) *)
  | Advance_ec of { ec : string }
  | Terminate

type program = action array

val n_registers : int

val pp_action : Format.formatter -> action -> unit

(** Deterministic pseudo-random stream (LCG), so workloads are
    reproducible without global state. *)
module Prng : sig
  type t

  val create : seed:int -> t
  val int : t -> int -> int
  (** [int t bound] in [0, bound). *)

  val pct : t -> int -> bool
  (** True with probability [p]/100. *)
end

val sequential_write : seg_reg:int -> pages:int -> program
(** Touch pages 0..pages-1 with writes — the classic file-fill. *)

val sequential_read : seg_reg:int -> pages:int -> program

val random_touches :
  seg_reg:int -> pages:int -> count:int -> write_pct:int -> seed:int -> program
(** [count] touches over a [pages]-page working set. *)

val compute_bound : steps:int -> step_ns:int -> program

val file_churn : dir:string -> files:int -> pages_each:int -> seed:int -> program
(** Create files, fill them, delete some — the directory-heavy load. *)

val concat : program list -> program
(** Concatenate, dropping all but the final [Terminate]. *)
