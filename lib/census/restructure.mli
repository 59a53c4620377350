(** The restructuring projects of the paper, as operations on the
    component inventory.

    Each step transforms the component list (moving code to the user
    domain, shrinking what remains, recoding assembly) and reports what
    it saved.  Applying all six steps regenerates the paper's size
    table. *)

type summary = {
  step_name : string;
  source_saved : int;       (** kernel source lines removed *)
  pl1_equiv_saved : int;    (** same, in PL/I-equivalent lines *)
  entries_removed : int;    (** kernel entry points removed *)
  user_entries_removed : int;
  note : string;
}

type step = {
  id : string;
  title : string;
  apply : Component.t list -> Component.t list * summary;
}

val extract_linker : step
(** Janson 1974: dynamic linking moved wholly to the user domain. *)

val extract_name_manager : step
(** Bratt 1975: pathname expansion outside the kernel over a
    single-directory search primitive; the extracted algorithm is a
    quarter of the in-kernel version's size. *)

val split_answering_service : step
(** Montgomery 1976: of 10,000 lines, fewer than 1,000 (an
    authentication core) need stay in the kernel. *)

val extract_network : step
(** Ciccarelli 1977: per-network handlers out; a network-independent
    demultiplexer of under 1,000 lines remains. *)

val extract_initialization : step
(** Luniewski 1977: initialization performed in a user-process
    environment of a previous system incarnation. *)

val recode_assembly : step
(** Recode all remaining kernel assembly in PL/I. *)

val apply_all : Component.t list -> Component.t list * summary list

val specialize_file_store_estimate : Component.t list -> int * int
(** (low, high) further PL/I-equivalent saving from specialising to a
    network-connected file store: 15-25% of the remaining kernel. *)

val user_domain_algorithm_sizes : (string * int * int) list
(** (project, in-kernel size, out-of-kernel size) for the projects where
    extraction also shrank the algorithm itself. *)
