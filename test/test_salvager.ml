(* The salvager and the invariant checker, including fault injection:
   we corrupt the on-disk structures the way a crash would and check
   that the salvager finds and repairs the damage. *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let populated_kernel () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">home>q" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>q" ~limit:32;
  let prog =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home>q"; name = "data" };
           K.Workload.Initiate { path = ">home>q>data"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:5;
        K.Workload.file_churn ~dir:">home" ~files:3 ~pages_each:2 ~seed:9 ]
  in
  ignore (K.Kernel.spawn k ~pname:"pop" prog);
  assert (K.Kernel.run_to_completion k);
  k

let test_clean_system_scans_clean () =
  let k = populated_kernel () in
  check Alcotest.int "no invariant problems" 0
    (List.length (K.Invariants.check k));
  let findings = K.Salvager.scan k in
  List.iter
    (fun f -> Format.printf "unexpected: %a@." K.Salvager.pp_finding f)
    findings;
  check Alcotest.int "no findings" 0 (List.length findings)

let test_detects_and_repairs_quota_corruption () =
  let k = populated_kernel () in
  (* Crash damage: the quota cell count drifts (e.g. a charge made it to
     the cache but the page never materialised). *)
  let quota = K.Kernel.quota k in
  (match K.Quota_cell.registered quota with
  | [] -> Alcotest.fail "expected cells"
  | (cell, _, _) :: _ ->
      ignore (K.Quota_cell.charge quota ~caller:"crash" cell 3));
  let findings = K.Salvager.scan k in
  check Alcotest.bool "mismatch found" true
    (List.exists (fun f -> f.K.Salvager.f_kind = K.Salvager.Quota_mismatch) findings);
  check Alcotest.bool "invariants also complain" true
    (K.Invariants.check k <> []);
  let repaired = K.Salvager.repair k in
  check Alcotest.bool "something repaired" true (repaired > 0);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k));
  check Alcotest.int "invariants clean after repair" 0
    (List.length (K.Invariants.check k))

let test_detects_and_repairs_leaked_record () =
  let k = populated_kernel () in
  (* Crash damage: a record allocated during a grow whose file-map write
     never happened. *)
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  ignore (Hw.Disk.alloc_record disk ~pack:0);
  let findings = K.Salvager.scan k in
  check Alcotest.bool "leak found" true
    (List.exists (fun f -> f.K.Salvager.f_kind = K.Salvager.Leaked_record) findings);
  ignore (K.Salvager.repair k);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k))

let test_detects_orphan_vtoc () =
  let k = populated_kernel () in
  (* Crash damage: a segment created but never entered in a directory. *)
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  let map = Array.make Hw.Addr.max_pages_per_segment Hw.Disk.unallocated in
  ignore
    (Hw.Disk.create_vtoc_entry disk ~pack:1
       { Hw.Disk.uid = 999_999; file_map = map; len_pages = 0;
         is_directory = false; quota = None; aim_label = 0;
         damaged = false; is_process_state = false });
  let findings = K.Salvager.scan k in
  (match
     List.find_opt
       (fun f -> f.K.Salvager.f_kind = K.Salvager.Orphan_vtoc)
       findings
   with
  | Some f ->
      check Alcotest.bool "not auto-repairable" false f.K.Salvager.f_repairable
  | None -> Alcotest.fail "orphan not found");
  (* Repair leaves the orphan for the operator. *)
  ignore (K.Salvager.repair k);
  check Alcotest.bool "orphan still reported" true
    (List.exists
       (fun f -> f.K.Salvager.f_kind = K.Salvager.Orphan_vtoc)
       (K.Salvager.scan k))

(* A lost Segment_moved signal: the directory entry goes stale; the
   salvager delivers the update the signal would have. *)
let test_repairs_stale_entry () =
  let k = populated_kernel () in
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>q>data"
    with
    | Ok target -> target
    | Error _ -> Alcotest.fail "initiate"
  in
  (* Move the segment at the volume level, bypassing the signal (as if
     the system crashed between relocation and delivery). *)
  let volume = K.Kernel.volume k in
  (match K.Segment.find_active (K.Kernel.segment k) ~uid:target.K.Directory.t_uid with
  | Some slot -> K.Segment.deactivate (K.Kernel.segment k) ~caller:"test" ~slot
  | None -> ());
  let pack, index = Option.get (K.Volume.locate volume ~uid:target.K.Directory.t_uid) in
  (match
     K.Volume.move_segment volume ~caller:"crash" ~pack ~index
       ~to_pack:((pack + 1) mod 3)
   with
  | Ok _ -> ()
  | Error `No_space -> Alcotest.fail "move");
  let findings = K.Salvager.scan k in
  check Alcotest.bool "stale entry found" true
    (List.exists
       (fun f ->
         f.K.Salvager.f_kind = K.Salvager.Stale_entry && f.K.Salvager.f_repairable)
       findings);
  ignore (K.Salvager.repair k);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k));
  (* And the file is reachable again. *)
  match
    K.Name_space.initiate (K.Kernel.name_space k) ~subject:K.Kernel.root_subject
      ~ring:1 ~path:">home>q>data"
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "file must be reachable after salvage"

(* Locate ">home>q>data" on disk, deactivated, and return the kernel
   plus its (pack, index, vtoc). *)
let deactivated_data_segment k =
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>q>data"
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "initiate"
  in
  (match K.Segment.find_active (K.Kernel.segment k) ~uid:target.K.Directory.t_uid with
  | Some slot -> K.Segment.deactivate (K.Kernel.segment k) ~caller:"test" ~slot
  | None -> ());
  let pack, index =
    Option.get (K.Volume.locate (K.Kernel.volume k) ~uid:target.K.Directory.t_uid)
  in
  (pack, index, K.Volume.vtoc (K.Kernel.volume k) ~caller:"test" ~pack ~index)

(* A media error killed a record a file map still names: the salvager
   substitutes a page of zeros, keeping the quota charge. *)
let test_damaged_page_repaired () =
  let k = populated_kernel () in
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  let _pack, _index, vtoc = deactivated_data_segment k in
  let pageno, handle =
    let found = ref None in
    Array.iteri
      (fun i h -> if h >= 0 && !found = None then found := Some (i, h))
      vtoc.Hw.Disk.file_map;
    Option.get !found
  in
  Hw.Disk.mark_dead disk ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle);
  let findings = K.Salvager.scan k in
  check Alcotest.bool "damaged page found and repairable" true
    (List.exists
       (fun f ->
         f.K.Salvager.f_kind = K.Salvager.Damaged_page && f.K.Salvager.f_repairable)
       findings);
  ignore (K.Salvager.repair k);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k));
  check Alcotest.int "invariants clean after repair" 0
    (List.length (K.Invariants.check k));
  (* The page became a page of zeros — quota-neutral. *)
  check Alcotest.int "slot now the zero page" Hw.Disk.zero_page
    vtoc.Hw.Disk.file_map.(pageno)

(* A power failure caught a record mid-flush: it is write-atomic, so it
   keeps its last complete image; the salvager accepts it and clears the
   mark. *)
let test_torn_write_repaired () =
  let k = populated_kernel () in
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  let _pack, _index, vtoc = deactivated_data_segment k in
  let handle =
    let found = ref None in
    Array.iter (fun h -> if h >= 0 && !found = None then found := Some h)
      vtoc.Hw.Disk.file_map;
    Option.get !found
  in
  let hp = Hw.Disk.pack_of_handle handle
  and hr = Hw.Disk.record_of_handle handle in
  let before = Hw.Disk.read_record disk ~pack:hp ~record:hr in
  Hw.Disk.mark_torn disk ~pack:hp ~record:hr;
  let findings = K.Salvager.scan k in
  check Alcotest.bool "torn write found and repairable" true
    (List.exists
       (fun f ->
         f.K.Salvager.f_kind = K.Salvager.Torn_write && f.K.Salvager.f_repairable)
       findings);
  ignore (K.Salvager.repair k);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k));
  check Alcotest.bool "mark cleared" false
    (Hw.Disk.record_is_torn disk ~pack:hp ~record:hr);
  check Alcotest.bool "pre-crash image kept" true
    (Hw.Page_image.equal before (Hw.Disk.read_record disk ~pack:hp ~record:hr))

(* A power failure in the middle of a salvage: the first salvage has
   already applied some repairs (they are individually atomic) when the
   machine dies, leaving its own in-flight work half done.  The reboot's
   re-salvage must pick up where the dead one stopped and converge —
   salvaging is restartable and idempotent, never making things worse. *)
let test_crash_during_salvage () =
  let k0 = populated_kernel () in
  K.Kernel.shutdown k0;
  let k = K.Kernel.reboot K.Kernel.small_config ~from:k0 in
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  (* The original crash damage: a leaked record and a torn data page. *)
  ignore (Hw.Disk.alloc_record disk ~pack:0);
  let _pack, _index, vtoc = deactivated_data_segment k in
  let handle =
    let found = ref None in
    Array.iter (fun h -> if h >= 0 && !found = None then found := Some h)
      vtoc.Hw.Disk.file_map;
    Option.get !found
  in
  Hw.Disk.mark_torn disk
    ~pack:(Hw.Disk.pack_of_handle handle)
    ~record:(Hw.Disk.record_of_handle handle);
  (* First salvage: it gets through (at least) these repairs... *)
  let first = K.Salvager.repair k in
  check Alcotest.bool "first salvage repaired something" true (first > 0);
  (* ...then the power fails mid-salvage: a record the salvager had
     just claimed for a relocation is left allocated but unreferenced,
     and the machine dies before the final verification pass — so no
     shutdown, the new incarnation sees the disk exactly as left. *)
  ignore (Hw.Disk.alloc_record disk ~pack:1);
  let k2 = K.Kernel.reboot K.Kernel.small_config ~from:k in
  let findings = K.Salvager.scan k2 in
  check Alcotest.bool "interrupted salvage left damage behind" true
    (findings <> []);
  ignore (K.Salvager.repair k2);
  check Alcotest.int "clean after re-salvage" 0
    (List.length (K.Salvager.scan k2));
  check Alcotest.int "invariants clean after re-salvage" 0
    (List.length (K.Invariants.check k2));
  (* A third salvage finds nothing left to do. *)
  check Alcotest.int "salvage is idempotent" 0 (K.Salvager.repair k2)

(* A torn write on the backing record of a directory whose quota cell
   was registered in the very same instant: the registration is in the
   cell cache, the tear is on disk, and the salvager must accept the
   record's last complete image without losing the new cell. *)
let test_torn_quota_vtoc_same_instant () =
  let k0 = populated_kernel () in
  K.Kernel.shutdown k0;
  let k = K.Kernel.reboot K.Kernel.small_config ~from:k0 in
  (* A brand-new childless directory: the only kind whose quota status
     may still change. *)
  K.Kernel.mkdir k ~path:">home>n" ~acl:open_acl ~label:low;
  let disk = (K.Kernel.machine k).Hw.Machine.disk in
  let dir = K.Kernel.directory k in
  let subject = K.Kernel.root_subject in
  let uid_home, uid_n =
    let root = K.Directory.root_uid dir in
    match K.Directory.search dir ~caller:"test" ~subject ~dir_uid:root ~name:"home" with
    | `No_entry -> Alcotest.fail ">home missing"
    | `Found home -> (
        match
          K.Directory.search dir ~caller:"test" ~subject ~dir_uid:home ~name:"n"
        with
        | `No_entry -> Alcotest.fail ">home>n missing"
        | `Found uid -> (home, uid))
  in
  (* The cell registers against the VTOC slot the entry records. *)
  let pack, index =
    match
      List.find_opt (fun (uid, _, _) -> uid = uid_n) (K.Directory.entries_index dir)
    with
    | Some (_, pack, index) -> (pack, index)
    | None -> Alcotest.fail ">home>n has no recorded VTOC slot"
  in
  (* >home's payload (holding n's entry and its quota binding) is backed
     by records surviving from the previous incarnation's shutdown. *)
  let hpack, hindex =
    Option.get (K.Volume.locate (K.Kernel.volume k) ~uid:uid_home)
  in
  (* The same simulated instant: register the quota cell, then the
     power fails mid-flush of the directory's backing record. *)
  let instant = K.Kernel.now k in
  K.Kernel.set_quota k ~path:">home>n" ~limit:8;
  check Alcotest.int "registration is instantaneous" instant (K.Kernel.now k);
  let vtoc =
    K.Volume.vtoc (K.Kernel.volume k) ~caller:"test" ~pack:hpack ~index:hindex
  in
  let handle =
    let found = ref None in
    Array.iter (fun h -> if h >= 0 && !found = None then found := Some h)
      vtoc.Hw.Disk.file_map;
    Option.get !found
  in
  let hp = Hw.Disk.pack_of_handle handle
  and hr = Hw.Disk.record_of_handle handle in
  let before = Hw.Disk.read_record disk ~pack:hp ~record:hr in
  Hw.Disk.mark_torn disk ~pack:hp ~record:hr;
  check Alcotest.int "tear landed in the registration instant" instant
    (K.Kernel.now k);
  check Alcotest.bool "cell is registered" true
    (K.Quota_cell.lookup (K.Kernel.quota k) ~pack ~vtoc_index:index <> None);
  let findings = K.Salvager.scan k in
  check Alcotest.bool "torn write found and repairable" true
    (List.exists
       (fun f ->
         f.K.Salvager.f_kind = K.Salvager.Torn_write && f.K.Salvager.f_repairable)
       findings);
  ignore (K.Salvager.repair k);
  check Alcotest.int "clean after repair" 0 (List.length (K.Salvager.scan k));
  check Alcotest.int "invariants clean after repair" 0
    (List.length (K.Invariants.check k));
  check Alcotest.bool "last complete image kept" true
    (Hw.Page_image.equal before (Hw.Disk.read_record disk ~pack:hp ~record:hr));
  (* The freshly registered cell survived the salvage and still meters:
     write two pages under it and the usage shows exactly two. *)
  check Alcotest.bool "cell survived salvage" true
    (K.Quota_cell.lookup (K.Kernel.quota k) ~pack ~vtoc_index:index <> None);
  K.Kernel.create_file k ~path:">home>n>f" ~acl:open_acl ~label:low;
  let prog =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>n>f"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:2 ]
  in
  ignore (K.Kernel.spawn k ~pname:"meter" prog);
  check Alcotest.bool "workload completes" true (K.Kernel.run_to_completion k);
  match K.Kernel.quota_usage k ~path:">home>n" with
  | Some (used, limit) ->
      check Alcotest.int "usage metered" 2 used;
      check Alcotest.int "limit intact" 8 limit
  | None -> Alcotest.fail "quota cell lost after salvage"

let tests =
  [ Alcotest.test_case "clean system scans clean" `Quick
      test_clean_system_scans_clean;
    Alcotest.test_case "quota corruption repaired" `Quick
      test_detects_and_repairs_quota_corruption;
    Alcotest.test_case "leaked record repaired" `Quick
      test_detects_and_repairs_leaked_record;
    Alcotest.test_case "orphan vtoc reported" `Quick test_detects_orphan_vtoc;
    Alcotest.test_case "stale entry repaired" `Quick test_repairs_stale_entry;
    Alcotest.test_case "damaged page repaired" `Quick test_damaged_page_repaired;
    Alcotest.test_case "torn write repaired" `Quick test_torn_write_repaired;
    Alcotest.test_case "crash during salvage, re-salvage converges" `Quick
      test_crash_during_salvage;
    Alcotest.test_case "torn write on quota cell's record, same instant"
      `Quick test_torn_quota_vtoc_same_instant ]
