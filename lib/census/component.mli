(** One component of the Multics supervisor, as counted by the paper's
    size censuses.

    Sizes are in source lines, split by implementation language; the
    paper's preferred measure — PL/I-equivalent lines — is derived by
    dividing assembly lines by the recoding factor ("the number of
    source lines typically shrinks by slightly more than a factor of
    two" when assembly is recoded in PL/I). *)

type region =
  | Ring_zero          (** inside the innermost protection boundary *)
  | Outer_ring         (** other supervisor rings *)
  | Trusted_process    (** e.g. the Answering Service *)
  | User_domain        (** outside the kernel entirely *)

type t = {
  name : string;
  pl1_lines : int;
  asm_lines : int;
  entry_points : int;
  user_entry_points : int;
  region : region;
}

val source_lines : t -> int
(** [pl1_lines + asm_lines]. *)

val pl1_equivalent : t -> int
(** PL/I-equivalent lines: PL/I source plus assembly source divided by
    the recoding factor — the paper's preferred kernel-size measure. *)

val in_kernel : t -> bool
(** True unless the component lives in the user domain. *)

val recode_in_pl1 : t -> t
(** Replace assembly by PL/I at the recoding factor. *)

val pp : Format.formatter -> t -> unit
