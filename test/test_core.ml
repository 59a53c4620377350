(* Integration and unit tests for Kernel/Multics (lib/core). *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim
module Dg = Multics_depgraph

let check = Alcotest.check

let low = Aim.Label.system_low
let secret = Aim.Label.make Aim.Level.secret Aim.Compartment.empty
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let boot ?(config = K.Kernel.small_config) () = K.Kernel.boot config

let boot_with_home () =
  let k = boot () in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  k

let file_writer ~dir ~name ~pages =
  K.Workload.concat
    [ [| K.Workload.Create_file { dir; name };
         K.Workload.Initiate { path = dir ^ ">" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages ]

(* ------------------------------------------------------------------ *)
(* Boot and structure *)

let test_boot () =
  let k = boot () in
  check Alcotest.bool "core frozen" true (K.Core_segment.frozen (K.Kernel.core k));
  check Alcotest.int "gates defined" 42 (K.Gate.registered (K.Kernel.gate k));
  check Alcotest.int "user-callable gates" 30
    (K.Gate.user_callable (K.Kernel.gate k))

let test_declared_graph_loop_free () =
  let g = K.Registry.declared_graph () in
  check Alcotest.bool "loop free" true (Dg.Graph.is_loop_free g);
  (* The core segment manager is the bottom of the lattice. *)
  match Dg.Graph.layers g with
  | Some (bottom :: _) ->
      check Alcotest.bool "csm at bottom" true
        (List.mem K.Registry.core_segment_manager bottom)
  | _ -> Alcotest.fail "expected layers"

(* ------------------------------------------------------------------ *)
(* Basic process execution *)

let test_write_read_roundtrip () =
  let k = boot_with_home () in
  let prog =
    K.Workload.concat
      [ file_writer ~dir:">home" ~name:"data" ~pages:4;
        K.Workload.sequential_read ~seg_reg:0 ~pages:4 ]
  in
  let pid = K.Kernel.spawn k ~pname:"rw" prog in
  check Alcotest.bool "completed" true (K.Kernel.run_to_completion k);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  check Alcotest.bool "did all actions" true
    (p.K.User_process.actions_done >= 9);
  check Alcotest.int "no denials" 0 (K.Kernel.denials k)

let test_quota_charged () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>q" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>q" ~limit:16;
  let prog = file_writer ~dir:">home>q" ~name:"f" ~pages:5 in
  ignore (K.Kernel.spawn k ~pname:"quota" prog);
  check Alcotest.bool "completed" true (K.Kernel.run_to_completion k);
  match K.Kernel.quota_usage k ~path:">home>q" with
  | None -> Alcotest.fail "expected quota cell"
  | Some (used, limit) ->
      check Alcotest.int "limit" 16 limit;
      (* 5 data pages plus the first page of directory q itself is
         charged to q's parent, so exactly the file's pages here. *)
      check Alcotest.int "used" 5 used

let test_quota_enforced () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>tiny" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>tiny" ~limit:3;
  let prog = file_writer ~dir:">home>tiny" ~name:"big" ~pages:8 in
  let pid = K.Kernel.spawn k ~pname:"overquota" prog in
  ignore (K.Kernel.run_to_completion k);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_failed msg ->
      check Alcotest.bool "quota message" true
        (Astring.String.is_infix ~affix:"quota" msg)
  | _ -> Alcotest.fail "process should fail on quota");
  check Alcotest.bool "refusals counted" true
    (K.Quota_cell.over_quota_refusals (K.Kernel.quota k) > 0)

(* Quota-directory designation only while childless. *)
let test_set_quota_requires_childless () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>parent" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">home>parent>child" ~acl:open_acl ~label:low;
  Alcotest.check_raises "has children"
    (Failure "set_quota: has children: >home>parent") (fun () ->
      K.Kernel.set_quota k ~path:">home>parent" ~limit:8)

(* ------------------------------------------------------------------ *)
(* Paging under pressure *)

let cramped_config =
  { K.Kernel.small_config with
    K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 36;
    core_frames = 24 }
(* 12 pageable frames only. *)

let test_thrashing_completes () =
  let k = K.Kernel.boot cramped_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let prog =
    K.Workload.concat
      [ file_writer ~dir:">home" ~name:"ws" ~pages:14;
        K.Workload.random_touches ~seg_reg:0 ~pages:14 ~count:200
          ~write_pct:50 ~seed:7;
      ]
  in
  ignore (K.Kernel.spawn k ~pname:"thrash" prog);
  check Alcotest.bool "completed under pressure" true
    (K.Kernel.run_to_completion k);
  let pfm = K.Kernel.page_frame k in
  check Alcotest.bool "evictions happened" true (K.Page_frame.evictions pfm > 0);
  check Alcotest.bool "real page reads" true (K.Page_frame.page_reads pfm > 0)

(* Zero-page reclamation: grow a page, never write it, evict it — the
   record is freed and the quota credited (the storage-charging feature
   of paper p.29). *)
let test_zero_page_reclaim () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>z" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>z" ~limit:8;
  K.Kernel.create_file k ~path:">home>z>f" ~acl:open_acl ~label:low;
  let sm = K.Kernel.segment k in
  let dm = K.Kernel.directory k in
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k) ~subject:K.Kernel.root_subject
        ~ring:1 ~path:">home>z>f"
    with
    | Ok target -> target
    | Error _ -> Alcotest.fail "initiate failed"
  in
  ignore dm;
  let slot =
    match
      K.Segment.activate sm
        ~uid:target.K.Directory.t_uid ~cell:target.K.Directory.t_cell
    with
    | Ok slot -> slot
    | Error _ -> Alcotest.fail "activate failed"
  in
  (match K.Segment.grow sm ~slot ~pageno:0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grow failed");
  let used_before, _ =
    Option.get (K.Kernel.quota_usage k ~path:">home>z")
  in
  check Alcotest.int "page charged" 1 used_before;
  (* Evict without ever writing: all zeros. *)
  let pfm = K.Kernel.page_frame k in
  let ptw_abs = K.Segment.ptw_abs sm ~slot ~pageno:0 in
  let mem = (K.Kernel.machine k).Hw.Machine.mem in
  check Alcotest.bool "page present" true
    (Hw.Ptw.read mem ptw_abs).Hw.Ptw.present;
  K.Page_frame.flush_pages pfm ~ptw_abs ~n:1 ~settle:(fun _ _ -> ());
  check Alcotest.bool "page of zeros reclaimed" true
    (Hw.Ptw.read mem ptw_abs = Hw.Ptw.unallocated_ptw);
  let used_after, _ = Option.get (K.Kernel.quota_usage k ~path:">home>z") in
  check Alcotest.int "quota credited" 0 used_after;
  check Alcotest.bool "reclaim counted" true
    (K.Page_frame.zero_reclaims pfm > 0)

(* The confinement anomaly: merely READING a never-written page charges
   quota — information written on behalf of a read. *)
let test_confinement_anomaly () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>c" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>c" ~limit:8;
  let prog =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home>c"; name = "f" };
           K.Workload.Initiate { path = ">home>c>f"; reg = 0 };
           (* reads only — never writes *)
           K.Workload.Touch { seg_reg = 0; pageno = 0; offset = 0; write = false };
           K.Workload.Touch { seg_reg = 0; pageno = 1; offset = 0; write = false } |] ]
  in
  ignore (K.Kernel.spawn k ~pname:"reader" prog);
  check Alcotest.bool "completed" true (K.Kernel.run_to_completion k);
  let used, _ = Option.get (K.Kernel.quota_usage k ~path:">home>c") in
  check Alcotest.int "reads charged quota" 2 used

(* ------------------------------------------------------------------ *)
(* Full pack, relocation, upward signal *)

let tiny_pack_config =
  { K.Kernel.small_config with
    K.Kernel.disk_packs = 3; records_per_pack = 8 }

let test_full_pack_relocation () =
  let k = K.Kernel.boot tiny_pack_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  (* Fill pack 0 (root and home live there) until a segment must move. *)
  let prog =
    K.Workload.concat
      [ file_writer ~dir:">home" ~name:"a" ~pages:4;
        K.Workload.concat [ file_writer ~dir:">home" ~name:"b" ~pages:6 ] ]
  in
  ignore (K.Kernel.spawn k ~pname:"filler" prog);
  let completed = K.Kernel.run_to_completion k in
  check Alcotest.bool "completed" true completed;
  check Alcotest.bool "full pack hit" true
    (K.Volume.full_pack_exceptions (K.Kernel.volume k) > 0);
  check Alcotest.bool "segment relocated" true
    (K.Segment.relocations (K.Kernel.segment k) > 0);
  check Alcotest.bool "upward signal raised" true
    (K.Upward_signal.total_raised (K.Kernel.signals k) > 0);
  check Alcotest.int "signals all delivered" 0
    (K.Upward_signal.pending (K.Kernel.signals k))

(* The page-table registry follows the AST: every PTW of an active
   segment resolves to that segment's home and quota cell, no PTW of a
   freed slot resolves, and a slot's next tenant, or a segment that
   moved to another pack, resolves to its own home. *)
let test_page_table_registry () =
  let cfg = tiny_pack_config in
  let k = K.Kernel.boot cfg in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  (* Two quota directories, so tenants charge different cells. *)
  List.iter
    (fun q ->
      K.Kernel.mkdir k ~path:(">home>" ^ q) ~acl:open_acl ~label:low;
      K.Kernel.set_quota k ~path:(">home>" ^ q) ~limit:8)
    [ "qa"; "qb" ];
  let names = [ "qa>a"; "qb>b"; "c"; "d" ] in
  List.iter
    (fun n ->
      K.Kernel.create_file k ~path:(">home>" ^ n) ~acl:open_acl ~label:low)
    names;
  let sm = K.Kernel.segment k and pfm = K.Kernel.page_frame k in
  let target n =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:(">home>" ^ n)
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail ("initiate " ^ n)
  in
  let activate t =
    match
      K.Segment.activate sm ~uid:t.K.Directory.t_uid ~cell:t.K.Directory.t_cell
    with
    | Ok slot -> slot
    | Error _ -> Alcotest.fail "activate"
  in
  let homes = Alcotest.(list (option (triple int int int))) in
  let table slot =
    List.init (K.Segment.pt_words sm) (fun pageno ->
        K.Page_frame.page_table_home pfm
          ~ptw_abs:(K.Segment.ptw_abs sm ~slot ~pageno))
  in
  let resolves what slot cell =
    let pack, index = K.Segment.slot_home sm ~slot in
    check homes what
      (List.init (K.Segment.pt_words sm) (fun _ -> Some (pack, index, cell)))
      (table slot)
  in
  let tenants =
    List.map
      (fun n ->
        let t = target n in
        (n, activate t, t.K.Directory.t_cell))
      names
  in
  let distinct f = List.length (List.sort_uniq compare (List.map f tenants)) in
  check Alcotest.int "four distinct slots" 4 (distinct (fun (_, s, _) -> s));
  check Alcotest.int "three distinct cells" 3 (distinct (fun (_, _, c) -> c));
  List.iter (fun (n, slot, cell) -> resolves ("tenant " ^ n) slot cell) tenants;
  let none = List.init (K.Segment.pt_words sm) (fun _ -> None) in
  let _, freed, _ = List.nth tenants 1 in
  K.Segment.deactivate sm ~slot:freed;
  check homes "freed slot resolves nowhere" none (table freed);
  List.iter
    (fun (n, slot, cell) ->
      if slot <> freed then resolves ("after the free, tenant " ^ n) slot cell)
    tenants;
  let last_slot = cfg.K.Kernel.ast_slots - 1 in
  check
    Alcotest.(list (option (triple int int int)))
    "outside the region" [ None; None ]
    [ K.Page_frame.page_table_home pfm
        ~ptw_abs:(K.Segment.pt_base sm ~slot:0 - 1);
      K.Page_frame.page_table_home pfm
        ~ptw_abs:(K.Segment.pt_base sm ~slot:last_slot + K.Segment.pt_words sm)
    ];
  (* The freed slot is the lowest free one, so the next activation takes
     it. *)
  K.Kernel.create_file k ~path:">home>e" ~acl:open_acl ~label:low;
  let e = target "e" in
  let slot = activate e in
  check Alcotest.int "next tenant reuses the slot" freed slot;
  resolves "next tenant" slot e.K.Directory.t_cell;
  (* Grow it until its pack fills and it moves: the registry entry
     follows the move. *)
  let relocations = K.Segment.relocations sm in
  let rec grow pageno =
    if K.Segment.relocations sm = relocations && pageno < K.Segment.pt_words sm
    then (
      (match K.Segment.grow sm ~slot ~pageno with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "grow");
      grow (pageno + 1))
  in
  let home_before = K.Segment.slot_home sm ~slot in
  grow 0;
  check Alcotest.bool "segment relocated" true
    (K.Segment.relocations sm > relocations);
  check Alcotest.bool "home moved" true
    (K.Segment.slot_home sm ~slot <> home_before);
  resolves "relocated tenant" slot e.K.Directory.t_cell

(* ------------------------------------------------------------------ *)
(* Segment turnover against a per-PTW reference.  Activation writes
   precomputed descriptor words and books its per-PTW charges as one;
   deactivation flushes the table in one walk.  The reference is the
   per-descriptor description of both. *)

(* default_config's 64-PTW tables in an 8-slot AST, so a few
   activations fill it. *)
let turnover_config = { K.Kernel.default_config with K.Kernel.ast_slots = 8 }

let mem_of k = (K.Kernel.machine k).Hw.Machine.mem
let disk_of k = (K.Kernel.machine k).Hw.Machine.disk
let mem_counts k = (Hw.Phys_mem.reads (mem_of k), Hw.Phys_mem.writes (mem_of k))

(* Each manager's growth between two [Meter.by_manager] readings. *)
let meter_delta before after =
  List.filter_map
    (fun (name, total) ->
      let prior = Option.value ~default:0 (List.assoc_opt name before) in
      if total <> prior then Some (name, total - prior) else None)
    after

let table_words k ~slot =
  let sm = K.Kernel.segment k in
  Array.init (K.Segment.pt_words sm) (fun pageno ->
      Hw.Phys_mem.read (mem_of k) (K.Segment.ptw_abs sm ~slot ~pageno))

let file_map k (pack, index) =
  Array.copy (Hw.Disk.vtoc_entry (disk_of k) ~pack ~index).Hw.Disk.file_map

(* The descriptor the segment manager builds for each page, one record
   probe at a time. *)
let reference_words k ~slot =
  let disk = disk_of k and sm = K.Kernel.segment k in
  let map = file_map k (K.Segment.slot_home sm ~slot) in
  Array.init (K.Segment.pt_words sm) (fun pageno ->
      let h = map.(pageno) in
      let pack = Hw.Disk.pack_of_handle h
      and record = Hw.Disk.record_of_handle h in
      Hw.Ptw.encode
        (if h < 0 then Hw.Ptw.unallocated_ptw
         else if
           Hw.Disk.record_is_dead disk ~pack ~record
           || Hw.Disk.record_is_torn disk ~pack ~record
         then Hw.Ptw.damaged_ptw ~record:h
         else Hw.Ptw.on_disk ~record:h))

let scale = K.Cost.scale K.Cost.Pl1
let words = Alcotest.(array int)
let deltas = Alcotest.(list (pair string int))

let turnover_cell k =
  K.Kernel.create_file k ~path:">home>cell" ~acl:open_acl ~label:low;
  match
    K.Name_space.initiate (K.Kernel.name_space k)
      ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>cell"
  with
  | Ok t -> t.K.Directory.t_cell
  | Error _ -> Alcotest.fail "initiate >home>cell"

(* A segment on [pack], activated, its slot returned. *)
let new_active k ~cell ~pack =
  let sm = K.Kernel.segment k in
  let uid, _ =
    K.Segment.create_segment sm ~pack ~is_directory:false
      ~label:(Aim.Label.encode low) ()
  in
  match K.Segment.activate sm ~uid ~cell with
  | Ok slot -> slot
  | Error _ -> Alcotest.fail "activate"

(* A segment on pack 1 whose table holds every kind of descriptor:
   page 0 present and modified, 1 present and zero (never written), 2
   on disk, 3 present and clean, 4 present, modified and zero, 5 on
   disk, 63 present and modified; the rest unallocated. *)
let turnover_kernel () =
  let k = K.Kernel.boot turnover_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let cell = turnover_cell k in
  let sm = K.Kernel.segment k and pfm = K.Kernel.page_frame k in
  let slot = new_active k ~cell ~pack:1 in
  let write pageno v =
    match K.Segment.write_word sm ~slot ~pageno ~offset:0 v with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write_word"
  in
  let flush pageno =
    K.Page_frame.flush_pages pfm ~ptw_abs:(K.Segment.ptw_abs sm ~slot ~pageno)
      ~n:1 ~settle:(fun _ _ -> ())
  in
  List.iter (fun (pageno, v) -> write pageno v)
    [ (0, 7); (2, 9); (3, 11); (4, 0); (5, 13); (63, 17) ];
  (match K.Segment.grow sm ~slot ~pageno:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grow");
  List.iter flush [ 2; 3; 5 ];
  (match K.Segment.read_word sm ~slot ~pageno:3 ~offset:0 with
  | Ok 11 -> ()
  | _ -> Alcotest.fail "read back page 3");
  (k, cell, slot)

(* Deactivate the turnover segment, optionally forcing its pages out
   one descriptor at a time first; returns what the deactivation left
   and what it cost. *)
let deactivation ~per_ptw =
  let k, _, slot = turnover_kernel () in
  let sm = K.Kernel.segment k and pfm = K.Kernel.page_frame k in
  let before = table_words k ~slot in
  let home = K.Segment.slot_home sm ~slot in
  let meter0 = K.Meter.by_manager (K.Kernel.meter k) in
  let reads0, writes0 = mem_counts k in
  if per_ptw then
    for pageno = 0 to K.Segment.pt_words sm - 1 do
      K.Page_frame.flush_pages pfm ~ptw_abs:(K.Segment.ptw_abs sm ~slot ~pageno)
        ~n:1 ~settle:(fun _ _ -> ())
    done;
  K.Segment.deactivate sm ~slot;
  let reads1, writes1 = mem_counts k in
  let meter = meter_delta meter0 (K.Meter.by_manager (K.Kernel.meter k)) in
  ( before, meter, reads1 - reads0, writes1 - writes0, table_words k ~slot,
    file_map k home,
    [ K.Page_frame.evictions pfm; K.Page_frame.zero_reclaims pfm;
      K.Page_frame.page_writes pfm ] )

let test_turnover_deactivation () =
  let before, meter, reads, writes, after, map, stats =
    deactivation ~per_ptw:false
  in
  let _, ref_meter, ref_reads, ref_writes, ref_after, ref_map, ref_stats =
    deactivation ~per_ptw:true
  in
  let n = Array.length before in
  check Alcotest.int "a 64-PTW table" 64 n;
  let present = Array.fold_left (fun acc w ->
      if Hw.Ptw.raw_present w then acc + 1 else acc) 0 before
  in
  check Alcotest.int "five pages present" 5 present;
  check words "descriptors left" ref_after after;
  check Alcotest.(array int) "file map" ref_map map;
  check Alcotest.(list int) "evictions, reclaims, writes" ref_stats stats;
  (* Pages 1 and 4 were zeros, so reclaimed; 0, 3 and 63 went to their
     records; 2 and 5 stayed on disk. *)
  List.iter
    (fun (pageno, unallocated) ->
      check Alcotest.bool (Printf.sprintf "page %d reclaimed" pageno)
        unallocated (map.(pageno) = Hw.Disk.unallocated))
    [ (0, false); (1, true); (2, false); (3, false); (4, true); (5, false);
      (63, false) ];
  (* The reference's own deactivation finds all 64 descriptors absent:
     one descriptor read and one scan charge each, on top of the walk
     being checked. *)
  let absent_ns = scale (K.Cost.ptw_update / 4) in
  let pf = K.Registry.page_frame_manager in
  check deltas "every manager's total"
    (List.map
       (fun (name, ns) ->
         if name = pf then (name, ns - (n * absent_ns)) else (name, ns))
       ref_meter)
    meter;
  check Alcotest.int "descriptor reads" (ref_reads - n) reads;
  check Alcotest.int "memory writes" ref_writes writes;
  (* And by the cost model: a scan per absent descriptor, an eviction
     per present one, then the table's unregistration. *)
  check Alcotest.int "page frame manager"
    (((n - present) * absent_ns)
     + (present
        * (scale K.Cost.kernel_call + scale K.Cost.frame_scan_zero
          + scale K.Cost.ptw_update))
     + scale (K.Cost.kernel_call + K.Cost.ptw_update))
    (List.assoc pf meter)

let test_turnover_activation () =
  let k, cell, slot = turnover_kernel () in
  let sm = K.Kernel.segment k in
  let uid = K.Segment.slot_uid sm ~slot in
  let home = K.Segment.slot_home sm ~slot in
  K.Segment.deactivate sm ~slot;
  let handle pageno = (file_map k home).(pageno) in
  let record pageno =
    let h = handle pageno in
    (Hw.Disk.pack_of_handle h, Hw.Disk.record_of_handle h)
  in
  let activate uid =
    let meter0 = K.Meter.by_manager (K.Kernel.meter k) in
    let reads0, writes0 = mem_counts k in
    let slot =
      match K.Segment.activate sm ~uid ~cell with
      | Ok slot -> slot
      | Error _ -> Alcotest.fail "reactivate"
    in
    let reads1, writes1 = mem_counts k in
    ( slot, meter_delta meter0 (K.Meter.by_manager (K.Kernel.meter k)),
      reads1 - reads0, writes1 - writes0 )
  in
  let n = K.Segment.pt_words sm in
  let expect_cost what (_, meter, reads, writes) =
    check deltas (what ^ ": every manager's total")
      (List.sort compare
         [ (K.Registry.segment_manager,
            scale (K.Cost.kernel_call + K.Cost.vtoc_read)
            + (n * scale (K.Cost.ptw_update / 8)));
           (K.Registry.disk_pack_manager,
            scale (K.Cost.kernel_call + K.Cost.vtoc_read));
           (K.Registry.page_frame_manager,
            scale (K.Cost.kernel_call + K.Cost.ptw_update)) ])
      meter;
    check Alcotest.int (what ^ ": no memory reads") 0 reads;
    check Alcotest.int (what ^ ": one write per descriptor") n writes
  in
  (* Reactivate with the segment's pack holding a torn record only, a
     dead record only, then both: each must build damaged descriptors
     exactly where the reference does. *)
  let phase what ~damaged =
    let activation = activate uid in
    let slot, _, _, _ = activation in
    expect_cost what activation;
    check words (what ^ ": descriptors") (reference_words k ~slot)
      (table_words k ~slot);
    List.iter
      (fun pageno ->
        let ptw = Hw.Ptw.decode (table_words k ~slot).(pageno) in
        check Alcotest.bool
          (Printf.sprintf "%s: page %d damaged" what pageno)
          (List.mem pageno damaged)
          (ptw.Hw.Ptw.damaged && ptw.Hw.Ptw.arg = handle pageno))
      [ 0; 2; 3; 5; 63 ];
    K.Segment.deactivate sm ~slot
  in
  let torn_pack, torn_record = record 2 and dead_pack, dead_record = record 5 in
  Hw.Disk.mark_torn (disk_of k) ~pack:torn_pack ~record:torn_record;
  phase "torn record" ~damaged:[ 2 ];
  Hw.Disk.clear_torn (disk_of k) ~pack:torn_pack ~record:torn_record;
  Hw.Disk.mark_dead (disk_of k) ~pack:dead_pack ~record:dead_record;
  phase "dead record" ~damaged:[ 5 ];
  Hw.Disk.mark_torn (disk_of k) ~pack:torn_pack ~record:torn_record;
  phase "dead and torn records" ~damaged:[ 2; 5 ];
  (* A segment on a pack with no dead or torn record: the clean path. *)
  let clean_slot = new_active k ~cell ~pack:2 in
  List.iter
    (fun pageno ->
      match K.Segment.write_word sm ~slot:clean_slot ~pageno ~offset:0 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write clean page")
    [ 0; 1; 62 ];
  let clean_uid = K.Segment.slot_uid sm ~slot:clean_slot in
  K.Segment.deactivate sm ~slot:clean_slot;
  check Alcotest.bool "pack 2 has no bad record" true
    (Hw.Disk.dead_records (disk_of k) ~pack:2 = []
     && Hw.Disk.torn_records (disk_of k) ~pack:2 = []);
  let clean = activate clean_uid in
  let clean_slot, _, _, _ = clean in
  expect_cost "clean pack" clean;
  check words "clean pack: descriptors" (reference_words k ~slot:clean_slot)
    (table_words k ~slot:clean_slot);
  check Alcotest.int "clean pack: three pages on disk" 3
    (Array.fold_left
       (fun acc w ->
         if Hw.Ptw.raw_valid w && not (Hw.Ptw.raw_unallocated w) then acc + 1
         else acc)
       0 (table_words k ~slot:clean_slot))

(* With the AST full, activation evicts the lowest-numbered slot that
   no address space is connected to; with a slot free, it takes the
   lowest free one. *)
let test_turnover_find_slot () =
  let k = K.Kernel.boot turnover_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let cell = turnover_cell k in
  let sm = K.Kernel.segment k in
  let slots = turnover_config.K.Kernel.ast_slots in
  while List.length (K.Segment.active_slots sm) < slots do
    ignore (new_active k ~cell ~pack:1)
  done;
  let uids = Array.init slots (fun slot -> K.Segment.slot_uid sm ~slot) in
  let connected = [ 0; 1; 3 ] in
  List.iter
    (fun slot -> K.Segment.register_connection sm ~slot ~sdw_abs:(2 * slot))
    connected;
  let taken = new_active k ~cell ~pack:1 in
  check Alcotest.int "lowest unconnected slot evicted" 2 taken;
  check Alcotest.bool "its old tenant is inactive" true
    (K.Segment.find_active sm ~uid:uids.(2) = None);
  List.iter
    (fun slot ->
      check Alcotest.bool (Printf.sprintf "slot %d kept" slot) true
        (K.Segment.find_active sm ~uid:uids.(slot) = Some slot))
    connected;
  (* The new tenant is unconnected too, so it would be next; connect
     it, and the victim is the next unconnected slot up. *)
  K.Segment.register_connection sm ~slot:2 ~sdw_abs:4;
  let connected = 2 :: connected in
  let taken = new_active k ~cell ~pack:1 in
  check Alcotest.int "next victim skips the connected slots" 4 taken;
  K.Segment.deactivate sm ~slot:6;
  K.Segment.deactivate sm ~slot:5;
  check Alcotest.int "lowest free slot" 5 (new_active k ~cell ~pack:1);
  check Alcotest.int "then the next free one" 6 (new_active k ~cell ~pack:1);
  List.iter
    (fun slot -> K.Segment.unregister_connection sm ~slot ~sdw_abs:(2 * slot))
    connected

(* A descriptor segment handed out again is cleared whole: every one of
   its 512 SDWs reads invalid, for exactly one write per word. *)
let test_create_space_clears_every_sdw () =
  let k = boot ~config:K.Kernel.default_config () in
  let spaces = K.Kernel.address_space k and mem = mem_of k in
  K.Address_space.create_space spaces ~proc:1000;
  let base = (K.Address_space.dbr_of spaces ~proc:1000).Hw.Cpu.base in
  let n = Hw.Addr.max_segments * Hw.Sdw.words in
  for a = base to base + n - 1 do
    Hw.Phys_mem.write mem a (a lor 1)
  done;
  K.Address_space.destroy_space spaces ~proc:1000;
  let reads0, writes0 = mem_counts k in
  K.Address_space.create_space spaces ~proc:1001;
  let reads1, writes1 = mem_counts k in
  check Alcotest.int "the same descriptor segment" base
    (K.Address_space.dbr_of spaces ~proc:1001).Hw.Cpu.base;
  check Alcotest.int "one write per word" n (writes1 - writes0);
  check Alcotest.int "no reads" 0 (reads1 - reads0);
  let w0, w1 = Hw.Sdw.encode Hw.Sdw.invalid in
  for segno = 0 to Hw.Addr.max_segments - 1 do
    let a = base + (segno * Hw.Sdw.words) in
    if Hw.Phys_mem.read mem a <> w0 || Hw.Phys_mem.read mem (a + 1) <> w1 then
      Alcotest.failf "SDW %d not invalid" segno
  done

(* ------------------------------------------------------------------ *)
(* Bratt's mythical identifiers *)

let subject_of_user user =
  { K.Directory.s_principal = { K.Acl.user; project = "proj" };
    s_label = low; s_trusted = false }

let test_mythical_search () =
  let k = boot () in
  (* A private directory alice can use but bob cannot read. *)
  K.Kernel.mkdir k ~path:">private"
    ~acl:[ K.Acl.entry "alice" K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ]
    ~label:low;
  K.Kernel.create_file k ~path:">private>secret_name" ~acl:open_acl ~label:low;
  let dm = K.Kernel.directory k in
  let bob = subject_of_user "bob" in
  let root = K.Directory.root_uid dm in
  let private_uid =
    match
      K.Directory.search dm ~subject:bob ~dir_uid:root ~name:"private"
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "root is readable; private exists"
  in
  (* Bob searches the inaccessible directory: always "found". *)
  let probe name =
    match
      K.Directory.search dm ~subject:bob ~dir_uid:private_uid ~name
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "inaccessible directory must never say no"
  in
  let real = probe "secret_name" in
  let myth1 = probe "no_such_file" in
  let myth2 = probe "no_such_file" in
  check Alcotest.bool "existing entry returns real uid" false
    (K.Ids.is_mythical real);
  check Alcotest.bool "missing entry returns mythical" true
    (K.Ids.is_mythical myth1);
  check Alcotest.bool "mythical ids are stable" true (K.Ids.equal myth1 myth2);
  (* A mythical id is accepted as a directory to search. *)
  (match
     K.Directory.search dm ~subject:bob ~dir_uid:myth1 ~name:"deeper"
   with
  | `Found uid -> check Alcotest.bool "nested mythical" true (K.Ids.is_mythical uid)
  | `No_entry -> Alcotest.fail "mythical directories always match");
  (* Initiating through a mythical id: indistinguishable "no access". *)
  (match
     K.Directory.initiate_target dm ~subject:bob ~dir_uid:myth1 ~name:"anything"
   with
  | Error `No_access -> ()
  | Ok _ -> Alcotest.fail "mythical target must not initiate");
  check Alcotest.bool "mythical answers counted" true
    (K.Directory.mythical_answers dm >= 3)

let test_readable_directory_says_no_entry () =
  let k = boot_with_home () in
  let dm = K.Kernel.directory k in
  let alice = subject_of_user "alice" in
  let root = K.Directory.root_uid dm in
  match
    K.Directory.search dm ~subject:alice ~dir_uid:root ~name:"nonexistent"
  with
  | `No_entry -> ()
  | `Found _ -> Alcotest.fail "readable directory reports absence honestly"

(* ------------------------------------------------------------------ *)
(* AIM enforcement through initiation *)

let test_aim_no_read_up () =
  let k = boot () in
  K.Kernel.mkdir k ~path:">war" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">war>plans" ~acl:open_acl ~label:secret;
  (* Pure Bell-LaPadula: the low subject may still *initiate* the secret
     file for blind write-up, but any attempt to read it must fault. *)
  let prog =
    [| K.Workload.Initiate { path = ">war>plans"; reg = 0 };
       K.Workload.Touch { seg_reg = 0; pageno = 0; offset = 0; write = false };
       K.Workload.Terminate |]
  in
  let pid = K.Kernel.spawn k ~pname:"spy" ~label:low prog in
  ignore (K.Kernel.run_to_completion k);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_failed msg ->
      check Alcotest.bool "read-up faults" true
        (Astring.String.is_infix ~affix:"access violation" msg)
  | _ -> Alcotest.fail "reading up must fail");
  (* The denial is in the AIM audit trail. *)
  check Alcotest.bool "audit saw denial" true
    (Aim.Audit.denials (K.Kernel.aim_audit k) > 0)

(* A long-lived kernel's memory follows its live processes: 2,000
   processes run to the end in waves, each still answers by pid with
   its name, registers and cpu time, the oracle finds nothing wrong,
   and what each finished process leaves behind is well under its
   ~2.4 KB program. *)
let test_finished_processes_released () =
  let k = boot_with_home () in
  K.Kernel.create_file k ~path:">home>f" ~acl:open_acl ~label:low;
  let upm = K.Kernel.user_process k in
  let steps = 100 and step_ns = 1_000 in
  let job i =
    K.Workload.concat
      [ [| K.Workload.Initiate
             { path = ">home>f"; reg = i mod K.Workload.n_registers } |];
        K.Workload.compute_bound ~steps ~step_ns ]
  in
  let pids = ref [] in
  let wave first =
    for i = first to first + 7 do
      pids := (i, K.Kernel.spawn k ~pname:(Printf.sprintf "job%d" i) (job i)) :: !pids
    done;
    if not (K.Kernel.run_to_completion k) then
      Alcotest.failf "wave from job%d did not complete" first
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for w = 0 to 24 do wave (8 * w) done;
  let live0 = live_words () in
  for w = 25 to 249 do wave (8 * w) done;
  let live1 = live_words () in
  List.iter
    (fun (i, pid) ->
      let p = K.User_process.proc upm pid in
      if p.K.User_process.pstate <> K.User_process.P_done then
        Alcotest.failf "job%d not done" i;
      if p.K.User_process.pname <> Printf.sprintf "job%d" i then
        Alcotest.failf "pid %d answers as %s" pid p.K.User_process.pname;
      if p.K.User_process.regs.(i mod K.Workload.n_registers) < 0 then
        Alcotest.failf "job%d lost its initiated segment register" i;
      if p.K.User_process.cpu_ns < steps * step_ns then
        Alcotest.failf "job%d cpu_ns %d" i p.K.User_process.cpu_ns;
      if p.K.User_process.program <> [||] then
        Alcotest.failf "job%d kept its program" i)
    !pids;
  check Alcotest.int "all finished" 2_000 (K.User_process.completed upm);
  check Alcotest.(list string) "oracle clean" [] (Multics_check.Oracle.check k);
  let per_proc = (live1 - live0) * (Sys.word_size / 8) / (2_000 - 200) in
  if per_proc >= 1_024 then
    Alcotest.failf "each finished process keeps %d bytes" per_proc

let test_aim_secret_can_read_down_not_write () =
  let k = boot () in
  K.Kernel.mkdir k ~path:">pub" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">pub>memo" ~acl:open_acl ~label:low;
  let dm = K.Kernel.directory k in
  let secret_subject =
    { K.Directory.s_principal = { K.Acl.user = "carol"; project = "proj" };
      s_label = secret; s_trusted = false }
  in
  let root = K.Directory.root_uid dm in
  let pub =
    match
      K.Directory.search dm ~subject:secret_subject ~dir_uid:root ~name:"pub"
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "pub exists"
  in
  match
    K.Directory.initiate_target dm ~subject:secret_subject
      ~dir_uid:pub ~name:"memo"
  with
  | Error `No_access -> Alcotest.fail "read down must be allowed"
  | Ok target ->
      check Alcotest.bool "can read" true target.K.Directory.t_mode.K.Acl.read;
      check Alcotest.bool "cannot write down" false
        target.K.Directory.t_mode.K.Acl.write

(* ------------------------------------------------------------------ *)
(* Two-level process implementation *)

let test_eventcount_ipc_via_message_queue () =
  let k = boot_with_home () in
  let waiter =
    [| K.Workload.Await_ec { ec = "rendezvous"; value = 1 };
       K.Workload.Compute 1000; K.Workload.Terminate |]
  in
  let signaller =
    [| K.Workload.Compute 100_000;  (* let the waiter block first *)
       K.Workload.Advance_ec { ec = "rendezvous" }; K.Workload.Terminate |]
  in
  ignore (K.Kernel.spawn k ~pname:"waiter" waiter);
  ignore (K.Kernel.spawn k ~pname:"signaller" signaller);
  check Alcotest.bool "both complete" true (K.Kernel.run_to_completion k);
  (* The wakeup travelled through the wired message queue to the
     scheduler daemon. *)
  check Alcotest.bool "message queue used" true
    (K.User_process.wake_messages (K.Kernel.user_process k) > 0)

let test_many_processes_few_vps () =
  let k = boot_with_home () in
  (* 8 processes over (at most) 4 user VPs. *)
  for i = 1 to 8 do
    let prog = file_writer ~dir:">home" ~name:(Printf.sprintf "f%d" i) ~pages:2 in
    ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "p%d" i) prog)
  done;
  check Alcotest.bool "all complete" true (K.Kernel.run_to_completion k);
  check Alcotest.int "eight done" 8
    (K.User_process.completed (K.Kernel.user_process k));
  check Alcotest.bool "processes were multiplexed" true
    (K.User_process.loads (K.Kernel.user_process k) >= 8)

let test_preemption_round_robin () =
  let config =
    { K.Kernel.small_config with
      K.Kernel.scheduler = K.Scheduler.Round_robin { quantum = 4 } }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore (K.Kernel.spawn k ~pname:"a" (K.Workload.compute_bound ~steps:20 ~step_ns:500));
  ignore (K.Kernel.spawn k ~pname:"b" (K.Workload.compute_bound ~steps:20 ~step_ns:500));
  check Alcotest.bool "complete" true (K.Kernel.run_to_completion k);
  let upm = K.Kernel.user_process k in
  (* With quantum 4 and 20 actions each, both processes are preempted
     repeatedly: strictly more loads than processes. *)
  check Alcotest.bool "preemptions happened" true (K.User_process.loads upm > 2)

(* ------------------------------------------------------------------ *)
(* Descriptor lock bit (unit level) *)

let test_transit_join () =
  let k = boot_with_home () in
  K.Kernel.create_file k ~path:">home>shared" ~acl:open_acl ~label:low;
  let sm = K.Kernel.segment k and pfm = K.Kernel.page_frame k in
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>shared"
    with
    | Ok target -> target
    | Error _ -> Alcotest.fail "initiate"
  in
  let slot =
    match
      K.Segment.activate sm ~uid:target.K.Directory.t_uid
        ~cell:target.K.Directory.t_cell
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "activate"
  in
  (match K.Segment.grow sm ~slot ~pageno:0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grow");
  (* Write data then force it out so the page has a record on disk. *)
  (match K.Segment.write_word sm ~slot ~pageno:0 ~offset:0 77 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  let ptw_abs = K.Segment.ptw_abs sm ~slot ~pageno:0 in
  let mem = (K.Kernel.machine k).Hw.Machine.mem in
  let pack, index = K.Segment.slot_home sm ~slot in
  let record =
    (Hw.Disk.vtoc_entry (K.Kernel.machine k).Hw.Machine.disk ~pack ~index)
      .Hw.Disk.file_map.(0)
  in
  K.Page_frame.flush_pages pfm ~ptw_abs ~n:1 ~settle:(fun _ _ -> ());
  check Alcotest.bool "written back to its record" true
    (Hw.Ptw.read mem ptw_abs = Hw.Ptw.on_disk ~record);
  (* First faulter starts the read... *)
  let w1 = K.Page_frame.service_missing_page pfm ~ptw_abs in
  (* ...second faulter (other processor hit the locked descriptor). *)
  let w2 = K.Page_frame.service_locked_descriptor pfm ~ptw_abs in
  (match (w1, w2) with
  | K.Page_frame.Wait (ec1, v1), K.Page_frame.Wait (ec2, v2) ->
      check Alcotest.bool "same transit" true (ec1 == ec2 && v1 = v2)
  | _ -> Alcotest.fail "both should wait on the transit eventcount");
  (* Run the machine to complete the I/O; the descriptor unlocks. *)
  K.Kernel.run k;
  let ptw = Hw.Ptw.read (K.Kernel.machine k).Hw.Machine.mem ptw_abs in
  check Alcotest.bool "present after io" true ptw.Hw.Ptw.present;
  check Alcotest.bool "unlocked after io" false ptw.Hw.Ptw.locked;
  (match K.Page_frame.service_locked_descriptor pfm ~ptw_abs with
  | K.Page_frame.Retry -> ()
  | K.Page_frame.Wait _ -> Alcotest.fail "stale lock should retry"
  | K.Page_frame.Damaged _ -> Alcotest.fail "page should not be damaged");
  (* The word survived the round trip. *)
  match K.Segment.read_word sm ~slot ~pageno:0 ~offset:0 with
  | Ok w -> check Alcotest.int "data intact" 77 w
  | Error _ -> Alcotest.fail "read back"

(* ------------------------------------------------------------------ *)
(* Gates *)

let test_gate_ring_enforcement () =
  let k = boot () in
  let gate = K.Kernel.gate k in
  (match K.Gate.call gate ~name:"hphcs_$shutdown" ~caller_ring:5 (fun () -> ()) with
  | Error `Ring_violation -> ()
  | _ -> Alcotest.fail "ring 5 cannot call hphcs_");
  (match K.Gate.call gate ~name:"hphcs_$shutdown" ~caller_ring:1 (fun () -> 42) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "ring 1 can call hphcs_");
  match K.Gate.call gate ~name:"no_such_gate" ~caller_ring:0 (fun () -> ()) with
  | Error `No_gate -> ()
  | _ -> Alcotest.fail "unknown gate"

(* ------------------------------------------------------------------ *)
(* The static dependency audit: lib/core's references, read from the
   code, against the declared graph *)

module Audit = Multics_check.Static_audit

let pp_edge ppf (e : Audit.edge) =
  Format.fprintf ppf "%s -> %s (%s)" e.Audit.from e.Audit.to_
    (String.concat ", " e.Audit.witnesses)

let test_static_audit () =
  let a = Audit.lib_core () in
  List.iter (Format.printf "undeclared: %a@." pp_edge) a.Audit.undeclared;
  check (Alcotest.list Alcotest.string) "every module mapped" []
    a.Audit.unmapped;
  check Alcotest.int "no undeclared edge" 0 (List.length a.Audit.undeclared);
  check Alcotest.int "no infrastructure reference" 0
    (List.length a.Audit.infrastructure_refs);
  check Alcotest.int "no loop" 0 (List.length a.Audit.loops);
  check Alcotest.bool "ok" true (Audit.ok a);
  (* An empty read would pass too: demand edges across four layers. *)
  List.iter
    (fun (from, to_) ->
      check Alcotest.bool
        (Printf.sprintf "%s -> %s in the code" from to_)
        true
        (List.exists
           (fun (e : Audit.edge) -> e.Audit.from = from && e.Audit.to_ = to_)
           a.Audit.edges))
    K.Registry.
      [ (segment_manager, page_frame_manager);
        (page_frame_manager, disk_pack_manager);
        (known_segment_manager, segment_manager);
        (gate, directory_manager) ]

(* The audit bites: an upward reference, an unmapped module, an
   infrastructure module reaching a manager, and the loop the upward
   reference closes. *)
let test_static_audit_catches_drift () =
  let a =
    Audit.of_text
      "lib/core/segment.ml: Directory Page_frame Stdlib\n\
       lib/core/directory.ml: Segment\n\
       lib/core/cost.ml: Volume\n\
       lib/core/probe.ml: Volume\n"
  in
  check Alcotest.int "modules read" 4 a.Audit.modules;
  check (Alcotest.list Alcotest.string) "upward edge undeclared"
    [ "segment_manager -> directory_manager (segment.ml: Directory)" ]
    (List.map (Format.asprintf "%a" pp_edge) a.Audit.undeclared);
  check (Alcotest.list Alcotest.string) "unmapped" [ "Probe" ] a.Audit.unmapped;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "infrastructure reference" [ ("Cost", "Volume") ]
    a.Audit.infrastructure_refs;
  check (Alcotest.list (Alcotest.list Alcotest.string)) "loop"
    [ [ K.Registry.directory_manager; K.Registry.segment_manager ] ]
    a.Audit.loops;
  check Alcotest.bool "fails" false (Audit.ok a);
  (* Declared call edges the text never makes are listed; structural
     ones (a map, an interpreter) are not expected in code. *)
  let unreferenced from to_ = List.mem (from, to_) a.Audit.unreferenced in
  check Alcotest.bool "component edge unreferenced" true
    K.Registry.(unreferenced page_frame_manager disk_pack_manager);
  check Alcotest.bool "referenced edge not listed" false
    K.Registry.(unreferenced segment_manager page_frame_manager);
  check Alcotest.bool "map edge not listed" false
    K.Registry.(unreferenced virtual_processor_manager core_segment_manager)

(* ------------------------------------------------------------------ *)
(* Segment relocation updates the directory (whole-path check) *)

let test_relocation_updates_directory () =
  let k = K.Kernel.boot tiny_pack_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore (K.Kernel.spawn k ~pname:"fill1" (file_writer ~dir:">home" ~name:"a" ~pages:5));
  ignore (K.Kernel.run_to_completion k);
  ignore (K.Kernel.spawn k ~pname:"fill2" (file_writer ~dir:">home" ~name:"b" ~pages:5));
  ignore (K.Kernel.run_to_completion k);
  check Alcotest.bool "a relocation happened" true
    (K.Segment.relocations (K.Kernel.segment k) > 0);
  (* After relocation the moved file must still be initiable (by its
     owner: ACLs have no root bypass) and the entry must be current. *)
  let owner =
    { K.Directory.s_principal = { K.Acl.user = "user"; project = "proj" };
      s_label = low; s_trusted = false }
  in
  List.iter
    (fun path ->
      match
        K.Name_space.initiate (K.Kernel.name_space k) ~subject:owner ~ring:5
          ~path
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s must remain reachable" path)
    [ ">home>a"; ">home>b" ]

let tests =
  [ Alcotest.test_case "boot" `Quick test_boot;
    Alcotest.test_case "declared graph loop-free" `Quick
      test_declared_graph_loop_free;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "quota charged" `Quick test_quota_charged;
    Alcotest.test_case "quota enforced" `Quick test_quota_enforced;
    Alcotest.test_case "finished processes released" `Quick
      test_finished_processes_released;
    Alcotest.test_case "set_quota requires childless" `Quick
      test_set_quota_requires_childless;
    Alcotest.test_case "thrashing completes" `Quick test_thrashing_completes;
    Alcotest.test_case "zero-page reclaim" `Quick test_zero_page_reclaim;
    Alcotest.test_case "confinement anomaly" `Quick test_confinement_anomaly;
    Alcotest.test_case "full pack relocation" `Quick test_full_pack_relocation;
    Alcotest.test_case "page-table registry follows the AST" `Quick
      test_page_table_registry;
    Alcotest.test_case "segment turnover: deactivation" `Quick
      test_turnover_deactivation;
    Alcotest.test_case "segment turnover: activation" `Quick
      test_turnover_activation;
    Alcotest.test_case "segment turnover: victim slot" `Quick
      test_turnover_find_slot;
    Alcotest.test_case "create_space clears every SDW" `Quick
      test_create_space_clears_every_sdw;
    Alcotest.test_case "mythical search" `Quick test_mythical_search;
    Alcotest.test_case "readable dir says no-entry" `Quick
      test_readable_directory_says_no_entry;
    Alcotest.test_case "aim no read up" `Quick test_aim_no_read_up;
    Alcotest.test_case "aim read down not write down" `Quick
      test_aim_secret_can_read_down_not_write;
    Alcotest.test_case "eventcount ipc via message queue" `Quick
      test_eventcount_ipc_via_message_queue;
    Alcotest.test_case "many processes few vps" `Quick
      test_many_processes_few_vps;
    Alcotest.test_case "preemption round robin" `Quick
      test_preemption_round_robin;
    Alcotest.test_case "transit join (lock bit)" `Quick test_transit_join;
    Alcotest.test_case "gate ring enforcement" `Quick test_gate_ring_enforcement;
    Alcotest.test_case "static dependency audit" `Quick test_static_audit;
    Alcotest.test_case "static audit catches drift" `Quick
      test_static_audit_catches_drift;
    Alcotest.test_case "relocation updates directory" `Quick
      test_relocation_updates_directory ]
