(* Failure paths and edge cases: table limits, quota returns, bad
   paths, pack exhaustion, growth beyond the page table. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let boot_with_home () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  k

let activate_file k path =
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path
    with
    | Ok target -> target
    | Error _ -> Alcotest.fail ("initiate " ^ path)
  in
  match
    K.Segment.activate (K.Kernel.segment k)
      ~uid:target.K.Directory.t_uid ~cell:target.K.Directory.t_cell
  with
  | Ok slot -> (slot, target)
  | Error _ -> Alcotest.fail ("activate " ^ path)

(* Growth beyond the activated page table is a clean refusal. *)
let test_grow_beyond_page_table () =
  let k = boot_with_home () in
  K.Kernel.create_file k ~path:">home>f" ~acl:open_acl ~label:low;
  let slot, _ = activate_file k ">home>f" in
  let sm = K.Kernel.segment k in
  (match K.Segment.grow sm ~slot ~pageno:(K.Segment.pt_words sm) with
  | Error `No_space -> ()
  | _ -> Alcotest.fail "beyond-table grow must refuse");
  Alcotest.check_raises "negative page"
    (Invalid_argument "Segment.ptw_abs: page beyond table") (fun () ->
      ignore (K.Segment.ptw_abs sm ~slot ~pageno:(K.Segment.pt_words sm)))

(* Deleting a quota directory returns its remaining limit upstream. *)
let test_delete_quota_dir_returns_limit () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>q" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>q" ~limit:20;
  let quota = K.Kernel.quota k in
  (* The root cell lost 20 of limit to q. *)
  let root_cell_limit () =
    match K.Quota_cell.registered quota with
    | (cell, _, limit) :: _ when cell = 0 -> limit
    | cells -> (
        match List.find_opt (fun (c, _, _) -> c = 0) cells with
        | Some (_, _, limit) -> limit
        | None -> Alcotest.fail "root cell missing")
  in
  let after_carve = root_cell_limit () in
  let dm = K.Kernel.directory k in
  let home_uid =
    match
      K.Directory.search dm ~subject:K.Kernel.root_subject
        ~dir_uid:(K.Directory.root_uid dm) ~name:"home"
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "home"
  in
  (match
     K.Directory.delete_entry dm ~subject:K.Kernel.root_subject
       ~dir_uid:home_uid ~name:"q"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete quota dir");
  check Alcotest.int "limit returned" (after_carve + 20) (root_cell_limit ())

(* clear_quota returns the carved limit too, and needs childlessness. *)
let test_clear_quota () =
  let k = boot_with_home () in
  K.Kernel.mkdir k ~path:">home>q" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>q" ~limit:12;
  let dm = K.Kernel.directory k in
  let home_uid =
    match
      K.Directory.search dm ~subject:K.Kernel.root_subject
        ~dir_uid:(K.Directory.root_uid dm) ~name:"home"
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "home"
  in
  (match
     K.Directory.clear_quota dm ~subject:K.Kernel.root_subject
       ~dir_uid:home_uid ~name:"q"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clear quota on childless dir");
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "no longer a quota dir" None
    (K.Kernel.quota_usage k ~path:">home>q");
  (* With a child, designation is refused both ways. *)
  K.Kernel.mkdir k ~path:">home>q>kid" ~acl:open_acl ~label:low;
  match
    K.Directory.set_quota dm ~subject:K.Kernel.root_subject
      ~dir_uid:home_uid ~name:"q" ~limit:4
  with
  | Error `Has_children -> ()
  | _ -> Alcotest.fail "set_quota with child must refuse"

(* All packs full: growth fails cleanly after attempting relocation. *)
let test_all_packs_full () =
  let config =
    { K.Kernel.small_config with K.Kernel.disk_packs = 2; records_per_pack = 6 }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let prog =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name = "a" };
           K.Workload.Initiate { path = ">home>a"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:12 ]
  in
  let pid = K.Kernel.spawn k ~pname:"filler" prog in
  ignore (K.Kernel.run_to_completion k);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_failed msg ->
      check Alcotest.bool "no-space message" true
        (Astring.String.is_infix ~affix:"space" msg)
  | _ -> Alcotest.fail "must fail when the disk is full");
  (* The failed growth left consistent accounting. *)
  check Alcotest.int "invariants hold" 0 (List.length (K.Invariants.check k))

let test_name_space_bad_paths () =
  let k = boot_with_home () in
  let ns = K.Kernel.name_space k in
  (match
     K.Name_space.resolve_parent ns ~subject:K.Kernel.root_subject ~ring:1
       ~path:">"
   with
  | Error `Bad_path -> ()
  | Ok _ -> Alcotest.fail "bare root has no parent/leaf");
  match
    K.Name_space.initiate ns ~subject:K.Kernel.root_subject ~ring:1 ~path:""
  with
  | Error (`Bad_path | `No_access) -> ()
  | Ok _ -> Alcotest.fail "empty path must not resolve"

(* Legacy AST exhaustion: tiny AST, deep pinned hierarchy. *)
let test_legacy_ast_exhaustion () =
  let config = { L.Old_supervisor.small_config with L.Old_supervisor.ast_slots = 6 } in
  let s = L.Old_supervisor.boot config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  (* Build a chain deeper than the AST can hold at once: activating the
     leaf pins every superior directory. *)
  let path = Buffer.create 32 in
  Buffer.add_string path ">home";
  for i = 1 to 6 do
    Buffer.add_string path (Printf.sprintf ">d%d" i);
    L.Old_supervisor.mkdir s ~path:(Buffer.contents path) ~acl:open_acl
  done;
  L.Old_supervisor.create_file s
    ~path:(Buffer.contents path ^ ">leaf")
    ~acl:open_acl;
  let st = L.Old_supervisor.state s in
  let de =
    match
      L.Old_directory.resolve st
        ~principal:{ K.Acl.user = "root"; project = "sys" }
        ~path:(Buffer.contents path ^ ">leaf")
    with
    | Ok (de, _) -> de
    | Error _ -> Alcotest.fail "resolve"
  in
  (match L.Old_storage.activate st ~uid:de.L.Old_types.od_uid with
  | Error `No_slot -> ()
  | Ok _ ->
      Alcotest.fail
        "a 6-slot AST cannot hold an 8-deep pinned chain: the hierarchy \
         constraint must bite"
  | Error `Gone -> Alcotest.fail "segment exists");
  check Alcotest.bool "blocked deactivations recorded" true
    ((L.Old_supervisor.stats s).L.Old_types.st_deactivation_blocked > 0)

(* The new kernel holds the same chain with the same slot count: any
   unconnected segment, directories included, can be deactivated. *)
let test_new_kernel_handles_deep_chain () =
  let config = { K.Kernel.small_config with K.Kernel.ast_slots = 6 } in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let path = Buffer.create 32 in
  Buffer.add_string path ">home";
  for i = 1 to 6 do
    Buffer.add_string path (Printf.sprintf ">d%d" i);
    K.Kernel.mkdir k ~path:(Buffer.contents path) ~acl:open_acl ~label:low
  done;
  K.Kernel.create_file k ~path:(Buffer.contents path ^ ">leaf") ~acl:open_acl
    ~label:low;
  let _slot, _ = activate_file k (Buffer.contents path ^ ">leaf") in
  check Alcotest.bool "deactivations happened to make room" true
    (K.Segment.deactivations (K.Kernel.segment k) > 0)

let test_census_growth_factor () =
  check Alcotest.bool "almost doubled" true
    (Multics_census.Inventory.growth_factor_1973_to_1976 > 1.5)

let test_disk_io_count () =
  let disk = Hw.Disk.create ~packs:1 ~records_per_pack:4 ~read_latency_ns:10 in
  let r = Hw.Disk.alloc_record disk ~pack:0 in
  ignore (Hw.Disk.read_record disk ~pack:0 ~record:r);
  Hw.Disk.write_record disk ~pack:0 ~record:r (Hw.Page_image.zero ());
  check Alcotest.int "two transfers" 2 (Hw.Disk.io_count disk)

let tests =
  [ Alcotest.test_case "grow beyond page table" `Quick
      test_grow_beyond_page_table;
    Alcotest.test_case "delete quota dir returns limit" `Quick
      test_delete_quota_dir_returns_limit;
    Alcotest.test_case "clear quota" `Quick test_clear_quota;
    Alcotest.test_case "all packs full" `Quick test_all_packs_full;
    Alcotest.test_case "name space bad paths" `Quick test_name_space_bad_paths;
    Alcotest.test_case "legacy ast exhaustion" `Quick
      test_legacy_ast_exhaustion;
    Alcotest.test_case "new kernel deep chain" `Quick
      test_new_kernel_handles_deep_chain;
    Alcotest.test_case "census growth factor" `Quick test_census_growth_factor;
    Alcotest.test_case "disk io count" `Quick test_disk_io_count ]
