(** The declared dependency structure of this kernel implementation.

    These are the names used by every manager when charging the meter
    and recording call edges, and the dependency declarations the
    runtime conformance audit checks observed calls against.  The graph
    is the implementation's own (it differs from the paper's Figure 4 in
    merging the segment and active-segment managers and in adding the
    gate layer on top); the test suite proves it loop-free. *)

val core_segment_manager : string
val virtual_processor_manager : string
val disk_pack_manager : string
val page_frame_manager : string
val quota_cell_manager : string
val segment_manager : string
val known_segment_manager : string
val address_space_manager : string
val user_process_manager : string
val directory_manager : string
val gate : string
val name_space : string

val manager_names : string list
(** All kernel managers, bottom-up. *)

val declared_graph : unit -> Multics_depgraph.Graph.t

val language : string -> Cost.language
(** Implementation language of each manager.  Kernel/Multics is coded
    entirely in the higher-level language (the paper's "exclusive use of
    PL/I"), so every manager answers [Pl1]. *)
