(** Shared data bases of the legacy Multics supervisor (Figures 2/3).

    Unlike Kernel/Multics, where each manager owns its objects, the old
    supervisor keeps a handful of large, directly shared tables: the
    active segment table with parent links and in-entry quota, the
    in-kernel directory tree, the frame table and the process table.
    Every module reads and writes the others' tables — the implicit
    shared-data dependencies the paper catalogues.  The F3 bench
    compares the call/sharing edges observed here against the
    superficial structure of Figure 2 and finds exactly the paper's
    extra edges.

    The legacy supervisor reuses the cost model, meter, ACLs and workload
    definitions of [multics_kernel] — instruments, not kernel structure —
    and runs on the legacy hardware configuration (no descriptor lock
    bit, no quota-fault bit, single DBR).  Its managers are functions
    inside shared modules, so a static audit of the sources cannot tell
    them apart: every shared-data edge is recorded at runtime, by
    {!share}, into the state's [observed] graph, which
    [Old_supervisor.observed_graph] returns. *)

module K = Multics_kernel

(* Module names as the figures draw them. *)
val page_control : string
val segment_control : string
val directory_control : string
val address_space_control : string
val process_control : string
val disk_volume_control : string

type ast_entry = {
  oe_index : int;
  mutable oe_uid : int;
  mutable oe_pack : int;
  mutable oe_vtoc : int;
  mutable oe_parent : int;  (** AST index of the superior directory; -1 none *)
  mutable oe_is_dir : bool;
  mutable oe_quota_limit : int;  (** quota directories only; -1 otherwise *)
  mutable oe_quota_used : int;
  mutable oe_active_inferiors : int;
  mutable oe_live : bool;
  oe_pt_base : Multics_hw.Addr.abs;
}

type dentry = {
  od_name : string;
  od_uid : int;
  od_is_dir : bool;
  mutable od_pack : int;
  mutable od_vtoc : int;
  od_acl : K.Acl.t;
}

type dir = {
  odir_uid : int;
  odir_parent : int;  (** uid; -1 for root *)
  mutable odir_is_quota : bool;
  odir_entries : (string, dentry) Hashtbl.t;
  mutable odir_acl : K.Acl.t;
  odir_depth : int;  (** levels below the root, for the quota search *)
}

type frame_entry = {
  mutable fr_ptw : Multics_hw.Addr.abs;  (** -1 when free *)
  mutable fr_record : int;  (** record handle; -1 none *)
  mutable fr_ast : int;  (** owning AST index, for quota/file-map updates *)
  mutable fr_pageno : int;
}

type proc_state = O_ready | O_running | O_waiting | O_done | O_failed of string

type oproc = {
  op_pid : int;
  op_principal : K.Acl.principal;
  op_program : K.Workload.program;
  mutable op_pc : int;
  op_regs : int array;
  mutable op_state : proc_state;
  mutable op_quantum : int;
  op_vcpu : Multics_hw.Cpu.t;
  op_dseg_base : Multics_hw.Addr.abs;
  op_kst : (int, int) Hashtbl.t;  (** segno -> uid *)
  op_kst_rev : (int, int) Hashtbl.t;  (** uid -> segno *)
  mutable op_next_segno : int;
  op_state_uid : int;  (** the pageable process-state segment *)
  mutable op_cpu_ns : int;
  mutable op_faults : int;
}

type stats = {
  mutable st_faults : int;
  mutable st_page_reads : int;
  mutable st_page_writes : int;
  mutable st_evictions : int;
  mutable st_zero_reclaims : int;
  mutable st_retranslations : int;
  mutable st_lock_contentions : int;
  mutable st_quota_search_levels : int;
  mutable st_quota_searches : int;
  mutable st_full_packs : int;
  mutable st_relocations : int;
  mutable st_resolutions : int;
  mutable st_switches : int;
  mutable st_loads : int;
  mutable st_completed : int;
  mutable st_failed : int;
  mutable st_denials : int;
  mutable st_deactivation_blocked : int;
      (** victim search skipped a directory because inferiors were
          active — the hierarchy-shape constraint *)
}

type state = {
  machine : Multics_hw.Machine.t;
  meter : K.Meter.t;
  observed : Multics_depgraph.Graph.t;
      (** every [share] edge, labelled [Shared_data] *)
  ast : ast_entry array;
  pt_words : int;
  frames : frame_entry array;
  mutable free_frames : int list;
  mutable n_free : int;
  mutable clock_hand : int;
  mutable fault_intervals : int list;
      (** simulated end-times of recent page-fault services; a fault
          starting inside one pays the retranslation *)
  dirs : (int, dir) Hashtbl.t;
  mutable root_uid : int;
  mutable next_uid : int;
  procs : (int, oproc) Hashtbl.t;
  ready : int Queue.t;
  mutable cpu_busy : bool array;
  mutable next_pid : int;
  quantum : int;
  dseg_area_base : Multics_hw.Addr.abs;
  stats : stats;
}

val fresh_uid : state -> int
val charge_asm : state -> manager:string -> int -> unit
(** The legacy supervisor's hot paths are assembly-coded: language
    factor 1.0. *)

val charge_pl1 : state -> manager:string -> int -> unit
val share : state -> from:string -> to_:string -> unit
(** Record a shared-data or call dependency edge in [observed];
    self-edges are skipped. *)
