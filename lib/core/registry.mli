(** The declared dependency structure of this kernel implementation.

    These are the names every manager charges the meter under, the map
    from each lib/core module to the node whose code it is, and the
    dependency declarations the static audit ([Multics_check.Static_audit])
    checks the code's references against.  The graph is the
    implementation's own (it differs from the paper's Figure 4 in
    merging the segment and active-segment managers and in adding the
    gate layer, the kernel's boot code and the certification apparatus
    on top); the test suite proves it loop-free. *)

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

type role = Node of string | Infrastructure

val modules : (string * role) list
(** Every lib/core module by name, with the node of the declared graph
    whose code it is.  [Scheduler] is the user process manager's policy,
    [Fault_dispatch] the gate layer's fault half, [Kernel] (boot and the
    user-domain interpreter) a ["kernel"] node above every manager, and
    [Invariants] and [Salvager] keep their own nodes.  [Infrastructure]
    modules ([Acl], [Cost], [Ids], [Meter], [Registry], [Upward_signal],
    [Workload]) are shared tools, not managers: they may reference each
    other but no manager. *)

val declared_graph : unit -> Multics_depgraph.Graph.t
(** Each declaration that is not one of the paper's own carries its
    reason in the source: the kernel node's blanket edge to every
    manager, the certification apparatus's reads, [directory_manager ->
    disk_pack_manager] (restore reads VTOC entries), the quota cell names
    the known segment and user process managers hold, and [name_space ->
    directory_manager] (the gate bodies). *)

val language : string -> Cost.language
(** Implementation language of each manager.  Kernel/Multics is coded
    entirely in the higher-level language (the paper's "exclusive use of
    PL/I"), so every manager answers [Pl1]. *)
