(* Tests for the legacy supervisor: same workloads as Kernel/Multics,
   old structure, old semantics. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Dg = Multics_depgraph

let check = Alcotest.check

let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let boot ?(config = L.Old_supervisor.small_config) () =
  let s = L.Old_supervisor.boot config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  s

let file_writer ~dir ~name ~pages =
  K.Workload.concat
    [ [| K.Workload.Create_file { dir; name };
         K.Workload.Initiate { path = dir ^ ">" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages ]

(* The legacy storage system writes its file maps straight into the
   VTOC; the length is derived from the map, so a legacy file of 6
   pages reads 6, as a kernel file would.  The other segment is the
   writer's pageable process state, one page. *)
let test_legacy_file_length () =
  let s = boot ~config:L.Old_supervisor.default_config () in
  ignore
    (L.Old_supervisor.spawn s ~pname:"w"
       (file_writer ~dir:">home" ~name:"six" ~pages:6));
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  let disk = (L.Old_supervisor.state s).L.Old_types.machine.Hw.Machine.disk in
  let files =
    List.concat_map
      (fun pack ->
        List.filter_map
          (fun (_, (e : Hw.Disk.vtoc_entry)) ->
            if e.Hw.Disk.is_directory || e.Hw.Disk.is_process_state then None
            else Some e)
          (Hw.Disk.vtoc_entries disk ~pack))
      (List.init (Hw.Disk.n_packs disk) Fun.id)
  in
  let mapped e =
    Array.fold_left
      (fun n h -> if h = Hw.Disk.unallocated then n else n + 1)
      0 e.Hw.Disk.file_map
  in
  check
    Alcotest.(list (pair int int))
    "pages mapped, length" [ (1, 1); (6, 6) ]
    (List.map (fun e -> (mapped e, Hw.Disk.len_pages e)) files)

let test_write_read_roundtrip () =
  let s = boot () in
  let prog =
    K.Workload.concat
      [ file_writer ~dir:">home" ~name:"data" ~pages:4;
        K.Workload.sequential_read ~seg_reg:0 ~pages:4 ]
  in
  let pid = L.Old_supervisor.spawn s ~pname:"rw" prog in
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  match L.Old_supervisor.proc_state s pid with
  | L.Old_types.O_done -> ()
  | _ -> Alcotest.fail "process should be done"

(* The dynamic upward quota search: deeper files walk more AST levels. *)
let test_quota_upward_search_depth () =
  let s = boot () in
  L.Old_supervisor.mkdir s ~path:">home>a" ~acl:open_acl;
  L.Old_supervisor.mkdir s ~path:">home>a>b" ~acl:open_acl;
  L.Old_supervisor.mkdir s ~path:">home>a>b>c" ~acl:open_acl;
  ignore
    (L.Old_supervisor.spawn s ~pname:"shallow"
       (file_writer ~dir:">home" ~name:"s" ~pages:3));
  check Alcotest.bool "run 1" true (L.Old_supervisor.run_to_completion s);
  let stats = L.Old_supervisor.stats s in
  let shallow_levels = stats.L.Old_types.st_quota_search_levels in
  let shallow_searches = stats.L.Old_types.st_quota_searches in
  ignore
    (L.Old_supervisor.spawn s ~pname:"deep"
       (file_writer ~dir:">home>a>b>c" ~name:"d" ~pages:3));
  check Alcotest.bool "run 2" true (L.Old_supervisor.run_to_completion s);
  let deep_levels = stats.L.Old_types.st_quota_search_levels - shallow_levels in
  let deep_searches = stats.L.Old_types.st_quota_searches - shallow_searches in
  check Alcotest.bool "searches happened" true
    (shallow_searches > 0 && deep_searches > 0);
  (* Deeper placement means strictly more levels per search. *)
  let per_shallow = float_of_int shallow_levels /. float_of_int shallow_searches in
  let per_deep = float_of_int deep_levels /. float_of_int deep_searches in
  check Alcotest.bool
    (Printf.sprintf "deep search walks further (%.1f vs %.1f)" per_deep
       per_shallow)
    true (per_deep > per_shallow)

(* Old semantics: quota may be designated on a directory with children. *)
let test_dynamic_quota_designation () =
  let s = boot () in
  L.Old_supervisor.mkdir s ~path:">home>p" ~acl:open_acl;
  L.Old_supervisor.mkdir s ~path:">home>p>child" ~acl:open_acl;
  (* No exception, despite the child: *)
  L.Old_supervisor.set_quota s ~path:">home>p" ~limit:10;
  ignore
    (L.Old_supervisor.spawn s ~pname:"w"
       (file_writer ~dir:">home>p>child" ~name:"f" ~pages:4));
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  match L.Old_supervisor.quota_usage s ~path:">home>p" with
  | Some (used, limit) ->
      check Alcotest.int "limit" 10 limit;
      check Alcotest.bool "pages charged" true (used >= 4)
  | None -> Alcotest.fail "expected quota"

let test_quota_enforced () =
  let s = boot () in
  L.Old_supervisor.mkdir s ~path:">home>tiny" ~acl:open_acl;
  L.Old_supervisor.set_quota s ~path:">home>tiny" ~limit:3;
  let pid =
    L.Old_supervisor.spawn s ~pname:"big"
      (file_writer ~dir:">home>tiny" ~name:"big" ~pages:8)
  in
  ignore (L.Old_supervisor.run_to_completion s);
  match L.Old_supervisor.proc_state s pid with
  | L.Old_types.O_failed msg ->
      check Alcotest.bool "quota message" true
        (Astring.String.is_infix ~affix:"quota" msg)
  | _ -> Alcotest.fail "should fail on quota"

(* In-kernel resolution gives exactly two answers. *)
let test_resolution_two_answers () =
  let s = boot () in
  L.Old_supervisor.mkdir s ~path:">vault"
    ~acl:[ K.Acl.entry "alice" K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ];
  L.Old_supervisor.create_file s ~path:">vault>gold" ~acl:open_acl;
  let st = L.Old_supervisor.state s in
  let bob = { K.Acl.user = "bob"; project = "p" } in
  (* Bob can reach the file: access judged at the target only. *)
  (match L.Old_directory.resolve st ~principal:bob ~path:">vault>gold" with
  | Ok (_, mode) -> check Alcotest.bool "found" true mode.K.Acl.read
  | Error `No_access -> Alcotest.fail "target ACL grants bob access");
  (* Nonexistent and inaccessible are the same answer. *)
  (match L.Old_directory.resolve st ~principal:bob ~path:">vault>nothing" with
  | Error `No_access -> ()
  | Ok _ -> Alcotest.fail "nonexistent must be no-access");
  match L.Old_directory.resolve st ~principal:bob ~path:">no>such>path" with
  | Error `No_access -> ()
  | Ok _ -> Alcotest.fail "bad path must be no-access"

(* The AST hierarchy constraint: a directory with active inferiors
   cannot be deactivated. *)
let test_hierarchy_constraint () =
  let s = boot () in
  L.Old_supervisor.create_file s ~path:">home>f" ~acl:open_acl;
  let st = L.Old_supervisor.state s in
  let de =
    match L.Old_directory.resolve st ~principal:{ K.Acl.user = "u"; project = "p" }
            ~path:">home>f"
    with
    | Ok (de, _) -> de
    | Error _ -> Alcotest.fail "resolve"
  in
  (match L.Old_storage.activate st ~uid:de.L.Old_types.od_uid with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "activate");
  (* The file's superior directory is active and pinned. *)
  let home_uid =
    match
      L.Old_directory.resolve st ~principal:{ K.Acl.user = "root"; project = "sys" }
        ~path:">home"
    with
    | Ok (de, _) -> de.L.Old_types.od_uid
    | Error _ -> Alcotest.fail "resolve home"
  in
  let home_ast =
    match L.Old_storage.find_active st ~uid:home_uid with
    | Some i -> i
    | None -> Alcotest.fail "home must be active (parent link)"
  in
  check Alcotest.bool "pinned by inferior" false
    (L.Old_storage.deactivate_for_test st ~ast:home_ast);
  (* Deactivate the file first; then home becomes deactivatable. *)
  let f_ast = Option.get (L.Old_storage.find_active st ~uid:de.L.Old_types.od_uid) in
  check Alcotest.bool "file deactivates" true
    (L.Old_storage.deactivate_for_test st ~ast:f_ast);
  check Alcotest.bool "home deactivates after" true
    (L.Old_storage.deactivate_for_test st ~ast:home_ast)

(* The race window: concurrent faults pay the interpretive
   retranslation (there is no descriptor lock bit). *)
let test_retranslation_on_race () =
  let config =
    { L.Old_supervisor.small_config with
      L.Old_supervisor.hw =
        Multics_hw.Hw_config.with_frames Multics_hw.Hw_config.legacy_multics 38 }
  in
  let s = L.Old_supervisor.boot config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  (* Two processes thrash on their own files so their faults overlap. *)
  let prog name =
    K.Workload.concat
      [ file_writer ~dir:">home" ~name ~pages:10;
        K.Workload.random_touches ~seg_reg:0 ~pages:10 ~count:60 ~write_pct:50
          ~seed:(String.length name) ]
  in
  ignore (L.Old_supervisor.spawn s ~pname:"r1" (prog "file_one"));
  ignore (L.Old_supervisor.spawn s ~pname:"r2" (prog "file_two"));
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  let stats = L.Old_supervisor.stats s in
  check Alcotest.bool "page reads happened" true
    (stats.L.Old_types.st_page_reads > 0);
  check Alcotest.bool "retranslations happened" true
    (stats.L.Old_types.st_retranslations > 0)

(* Observed dependency edges rediscover Figure 3's extra arrows. *)
let test_observed_edges_beyond_figure2 () =
  let s = boot () in
  L.Old_supervisor.mkdir s ~path:">home>d" ~acl:open_acl;
  L.Old_supervisor.set_quota s ~path:">home>d" ~limit:32;
  ignore
    (L.Old_supervisor.spawn s ~pname:"w"
       (file_writer ~dir:">home>d" ~name:"f" ~pages:6));
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  let g = L.Old_supervisor.observed_graph s in
  (* page control reads segment control's AST for quota... *)
  check Alcotest.bool "pc->sc" true
    (Dg.Graph.mem_edge g ~from:"page_control" ~to_:"segment_control");
  (* ...segment control reads directory control's records... *)
  check Alcotest.bool "sc->fdc" true
    (Dg.Graph.mem_edge g ~from:"segment_control" ~to_:"directory_control");
  (* ...and process control stores states in segments. *)
  check Alcotest.bool "prc->sc" true
    (Dg.Graph.mem_edge g ~from:"process_control" ~to_:"segment_control")

(* Full pack: segment control directly updates the directory entry. *)
let test_full_pack_direct_update () =
  let config =
    { L.Old_supervisor.small_config with
      L.Old_supervisor.disk_packs = 3; records_per_pack = 8 }
  in
  let s = L.Old_supervisor.boot config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  ignore
    (L.Old_supervisor.spawn s ~pname:"f1"
       (file_writer ~dir:">home" ~name:"a" ~pages:5));
  ignore (L.Old_supervisor.run_to_completion s);
  ignore
    (L.Old_supervisor.spawn s ~pname:"f2"
       (file_writer ~dir:">home" ~name:"b" ~pages:5));
  check Alcotest.bool "completed" true (L.Old_supervisor.run_to_completion s);
  let stats = L.Old_supervisor.stats s in
  check Alcotest.bool "relocation happened" true
    (stats.L.Old_types.st_relocations > 0);
  (* The moved file remains reachable: the entry was updated in place. *)
  let st = L.Old_supervisor.state s in
  match
    L.Old_directory.resolve st ~principal:{ K.Acl.user = "user"; project = "proj" }
      ~path:">home>b"
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "moved file must stay reachable"

(* Same workload on both kernels: the new memory manager is slower per
   fault (PL/I + daemon) — the paper's P4 shape, asserted coarsely. *)
let test_new_kernel_pays_language_factor () =
  let pages = 8 in
  let prog = file_writer ~dir:">home" ~name:"f" ~pages in
  (* Legacy *)
  let s = boot () in
  ignore (L.Old_supervisor.spawn s ~pname:"w" prog);
  ignore (L.Old_supervisor.run_to_completion s);
  let legacy_pc =
    List.assoc "page_control" (K.Meter.by_manager (L.Old_supervisor.meter s))
  in
  (* New kernel *)
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl
    ~label:Multics_aim.Label.system_low;
  ignore (K.Kernel.spawn k ~pname:"w" prog);
  ignore (K.Kernel.run_to_completion k);
  let new_pfm =
    List.assoc "page_frame_manager" (K.Meter.by_manager (K.Kernel.meter k))
  in
  check Alcotest.bool
    (Printf.sprintf "new (%d ns) costs more than legacy (%d ns)" new_pfm
       legacy_pc)
    true
    (new_pfm > legacy_pc);
  (* ... but at most twice the PL/I factor, the band P4 asserts. *)
  let bound = 2.0 *. K.Cost.factor K.Cost.Pl1 *. float_of_int legacy_pc in
  check Alcotest.bool
    (Printf.sprintf "new (%d ns) within %.0f ns" new_pfm bound)
    true
    (float_of_int new_pfm <= bound)

let tests =
  [ Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "file length from the file map" `Quick
      test_legacy_file_length;
    Alcotest.test_case "quota upward search depth" `Quick
      test_quota_upward_search_depth;
    Alcotest.test_case "dynamic quota designation" `Quick
      test_dynamic_quota_designation;
    Alcotest.test_case "quota enforced" `Quick test_quota_enforced;
    Alcotest.test_case "resolution two answers" `Quick
      test_resolution_two_answers;
    Alcotest.test_case "hierarchy constraint" `Quick test_hierarchy_constraint;
    Alcotest.test_case "retranslation on race" `Quick
      test_retranslation_on_race;
    Alcotest.test_case "observed edges beyond figure 2" `Quick
      test_observed_edges_beyond_figure2;
    Alcotest.test_case "full pack direct update" `Quick
      test_full_pack_direct_update;
    Alcotest.test_case "new kernel pays language factor" `Quick
      test_new_kernel_pays_language_factor ]
