module K = Multics_kernel
module Hw = Multics_hw

let page_control = "page_control"
let segment_control = "segment_control"
let directory_control = "directory_control"
let address_space_control = "address_space_control"
let process_control = "process_control"
let disk_volume_control = "disk_volume_control"

type ast_entry = {
  oe_index : int;
  mutable oe_uid : int;
  mutable oe_pack : int;
  mutable oe_vtoc : int;
  mutable oe_parent : int;
  mutable oe_is_dir : bool;
  mutable oe_quota_limit : int;
  mutable oe_quota_used : int;
  mutable oe_active_inferiors : int;
  mutable oe_live : bool;
  oe_pt_base : Hw.Addr.abs;
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
  odir_parent : int;
  mutable odir_is_quota : bool;
  odir_entries : (string, dentry) Hashtbl.t;
  mutable odir_acl : K.Acl.t;
  odir_depth : int;
}

type frame_entry = {
  mutable fr_ptw : Hw.Addr.abs;
  mutable fr_record : int;
  mutable fr_ast : int;
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
  op_vcpu : Hw.Cpu.t;
  op_dseg_base : Hw.Addr.abs;
  op_kst : (int, int) Hashtbl.t;
  op_kst_rev : (int, int) Hashtbl.t;
  mutable op_next_segno : int;
  op_state_uid : int;
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
}

type state = {
  machine : Hw.Machine.t;
  meter : K.Meter.t;
  observed : Multics_depgraph.Graph.t;
  ast : ast_entry array;
  pt_words : int;
  frames : frame_entry array;
  mutable free_frames : int list;
  mutable n_free : int;
  mutable clock_hand : int;
  mutable fault_intervals : int list;
  dirs : (int, dir) Hashtbl.t;
  mutable root_uid : int;
  mutable next_uid : int;
  procs : (int, oproc) Hashtbl.t;
  ready : int Queue.t;
  mutable cpu_busy : bool array;
  mutable next_pid : int;
  quantum : int;
  dseg_area_base : Hw.Addr.abs;
  stats : stats;
}

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let charge_asm t ~manager ns =
  K.Meter.charge (K.Meter.account t.meter manager) K.Cost.Asm ns

let charge_pl1 t ~manager ns =
  K.Meter.charge (K.Meter.account t.meter manager) K.Cost.Pl1 ns

let share t ~from ~to_ =
  if from <> to_ then
    Multics_depgraph.Graph.add_edge t.observed ~from ~to_
      Multics_depgraph.Dep_kind.Shared_data
