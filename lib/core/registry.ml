module Dg = Multics_depgraph

let core_segment_manager = "core_segment_manager"
let virtual_processor_manager = "virtual_processor_manager"
let disk_pack_manager = "disk_pack_manager"
let page_frame_manager = "page_frame_manager"
let quota_cell_manager = "quota_cell_manager"
let segment_manager = "segment_manager"
let known_segment_manager = "known_segment_manager"
let address_space_manager = "address_space_manager"
let user_process_manager = "user_process_manager"
let directory_manager = "directory_manager"
let gate = "gate"
let name_space = "name_space"
let kernel = "kernel"

let manager_names =
  [ core_segment_manager; virtual_processor_manager; disk_pack_manager;
    page_frame_manager; quota_cell_manager; segment_manager;
    known_segment_manager; address_space_manager; user_process_manager;
    directory_manager; gate ]

type role = Node of string | Infrastructure

(* Every lib/core module, by the node of the declared graph whose code
   it is.  The static audit reads each module's references from the
   sources and maps both ends through this table. *)
let modules =
  [ ("Core_segment", Node core_segment_manager);
    ("Vp", Node virtual_processor_manager);
    ("Volume", Node disk_pack_manager);
    ("Page_frame", Node page_frame_manager);
    ("Quota_cell", Node quota_cell_manager);
    ("Segment", Node segment_manager);
    ("Known_segment", Node known_segment_manager);
    ("Address_space", Node address_space_manager);
    ("User_process", Node user_process_manager);
    ("Scheduler", Node user_process_manager);
    ("Directory", Node directory_manager);
    ("Gate", Node gate);
    ("Fault_dispatch", Node gate);
    ("Name_space", Node name_space);
    ("Invariants", Node "invariants");
    ("Salvager", Node "salvager");
    ("Kernel", Node kernel);
    ("Acl", Infrastructure);
    ("Cost", Infrastructure);
    ("Ids", Infrastructure);
    ("Meter", Infrastructure);
    ("Registry", Infrastructure);
    ("Upward_signal", Infrastructure);
    ("Workload", Infrastructure) ]

let declared_graph () =
  let g = Dg.Graph.create ~name:"Kernel/Multics implementation" () in
  let edge from to_ kind = Dg.Graph.add_edge g ~from ~to_ kind in
  let open Dg.Dep_kind in
  (* Structural dependencies. *)
  edge virtual_processor_manager core_segment_manager Map;
  edge disk_pack_manager core_segment_manager Map;
  edge page_frame_manager core_segment_manager Map;
  edge quota_cell_manager core_segment_manager Map;
  edge segment_manager core_segment_manager Map;
  edge address_space_manager core_segment_manager Map;
  (* Component / call dependencies, bottom-up. *)
  edge page_frame_manager disk_pack_manager Component;
  edge page_frame_manager virtual_processor_manager Explicit_call;
  (* "the page frame manager calling the wait primitive of the virtual
     processor manager" *)
  edge page_frame_manager quota_cell_manager Explicit_call;
  (* the page-removal algorithm credits the quota cell when it reclaims
     a page of zeros *)
  edge quota_cell_manager disk_pack_manager Component;
  edge segment_manager disk_pack_manager Component;
  edge segment_manager page_frame_manager Component;
  edge segment_manager quota_cell_manager Explicit_call;
  edge known_segment_manager segment_manager Component;
  edge address_space_manager known_segment_manager Component;
  edge address_space_manager segment_manager Component;
  edge user_process_manager address_space_manager Component;
  edge user_process_manager known_segment_manager Component;
  edge user_process_manager segment_manager Component;
  edge user_process_manager virtual_processor_manager Explicit_call;
  edge directory_manager segment_manager Component;
  edge directory_manager segment_manager Map;
  edge directory_manager quota_cell_manager Component;
  edge directory_manager disk_pack_manager Explicit_call;
  (* restore rebuilds the hierarchy from the VTOC entries of a
     surviving disk *)
  edge known_segment_manager quota_cell_manager Map;
  (* a KST entry keeps its segment's quota cell name for activation *)
  edge user_process_manager quota_cell_manager Map;
  (* process-state segments are activated against [Quota_cell.no_cell] *)
  (* The gate layer dispatches user calls, faults and upward signals
     into every manager. *)
  List.iter
    (fun m -> if m <> gate then edge gate m Explicit_call)
    manager_names;
  (* The user-domain name manager reaches the kernel only through
     gates; the directory entries it names are the gate bodies, which
     run on the kernel side of [Gate.call]. *)
  edge name_space gate Explicit_call;
  edge name_space directory_manager Explicit_call;
  (* The kernel itself boots and wires every manager, and runs the
     user-domain interpreter that calls the name manager. *)
  List.iter
    (fun m -> edge kernel m Explicit_call)
    (name_space :: manager_names);
  (* The certification apparatus (paper box 6): the invariant checker
     and the salvager read manager state from outside the kernel. *)
  List.iter
    (fun m -> edge "invariants" m Explicit_call)
    [ kernel; directory_manager; disk_pack_manager; page_frame_manager;
      quota_cell_manager; segment_manager; user_process_manager;
      virtual_processor_manager ];
  List.iter
    (fun m -> edge "salvager" m Explicit_call)
    [ kernel; "invariants"; directory_manager; disk_pack_manager;
      quota_cell_manager; segment_manager; user_process_manager ];
  (* Blanket structural rules: programs and address spaces of kernel
     modules live in core segments; every module above the virtual
     processor manager is interpreted by it. *)
  List.iter
    (fun m ->
      if m <> core_segment_manager then begin
        edge m core_segment_manager Address_space;
        edge m core_segment_manager Program;
        if m <> virtual_processor_manager then
          edge m virtual_processor_manager Interpreter
      end)
    manager_names;
  g

let language _ = Cost.Pl1
