(* The associative memories are pure accelerators: these tests pin the
   invalidation discipline (context switch, setfaults/deactivate,
   delete, ACL change, shutdown) and that workloads compute identical
   results with the caches on or off. *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]
let root_only = [ K.Acl.entry "root" K.Acl.rwe ]

let alice =
  { K.Directory.s_principal = { K.Acl.user = "alice"; project = "proj" };
    s_label = low; s_trusted = false }

let off_config =
  { K.Kernel.default_config with
    K.Kernel.hw =
      { Hw.Hw_config.kernel_multics with Hw.Hw_config.assoc_mem_size = 0 };
    use_path_cache = false }

(* ------------------------------------------------------------------ *)
(* The associative memory itself. *)

let test_am_unit () =
  let am = Hw.Assoc_mem.create ~size:4 () in
  let sdw pt =
    Hw.Sdw.make ~page_table:pt ~length:1 ~read:true ~write:false
      ~execute:false ~r1:0 ~r2:7 ~r3:7
  in
  for segno = 0 to 3 do
    Hw.Assoc_mem.insert am ~segno ~sdw:(sdw (100 * segno))
  done;
  check Alcotest.int "full" 4 (Hw.Assoc_mem.entries am);
  (match Hw.Assoc_mem.lookup am ~segno:2 with
  | Some s -> check Alcotest.int "right sdw" 200 s.Hw.Sdw.page_table
  | None -> Alcotest.fail "expected hit");
  (* A fifth segment evicts the round-robin victim (slot 0). *)
  Hw.Assoc_mem.insert am ~segno:9 ~sdw:(sdw 900);
  check Alcotest.int "still full" 4 (Hw.Assoc_mem.entries am);
  check Alcotest.bool "victim evicted" true
    (Hw.Assoc_mem.lookup am ~segno:0 = None);
  (* Re-inserting an existing segno replaces in place, no eviction. *)
  Hw.Assoc_mem.insert am ~segno:2 ~sdw:(sdw 201);
  (match Hw.Assoc_mem.lookup am ~segno:2 with
  | Some s -> check Alcotest.int "replaced" 201 s.Hw.Sdw.page_table
  | None -> Alcotest.fail "expected hit after replace");
  let flushes0 = Hw.Assoc_mem.flushes am in
  Hw.Assoc_mem.flush am;
  check Alcotest.int "empty after flush" 0 (Hw.Assoc_mem.entries am);
  check Alcotest.int "flush counted" (flushes0 + 1) (Hw.Assoc_mem.flushes am);
  check Alcotest.bool "miss after flush" true
    (Hw.Assoc_mem.lookup am ~segno:2 = None)

(* A hand-built descriptor table: second translation of the same
   segment hits; loading a DBR (process switch) flushes. *)
let test_am_translate_and_switch () =
  let config = Hw.Hw_config.kernel_multics in
  let machine = Hw.Machine.create config in
  let mem = machine.Hw.Machine.mem in
  let cpu = machine.Hw.Machine.cpus.(0) in
  let table = Hw.Addr.frame_base 0 in
  let pt = table + 128 in
  Hw.Ptw.write mem pt (Hw.Ptw.in_core ~frame:1);
  Hw.Sdw.write_at mem table
    (Hw.Sdw.make ~page_table:pt ~length:1 ~read:true ~write:true
       ~execute:false ~r1:0 ~r2:7 ~r3:7);
  let dbr = Some { Hw.Cpu.base = table; n_segments = 1 } in
  Hw.Cpu.load_user_dbr cpu dbr;
  cpu.Hw.Cpu.system_dbr <- dbr;
  let v = Hw.Addr.virt ~segno:0 ~wordno:17 in
  let read () =
    match Hw.Cpu.read config mem cpu v with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "translation faulted"
  in
  read ();
  check Alcotest.int "first is a miss" 1 (Hw.Assoc_mem.misses cpu.Hw.Cpu.tlb);
  read ();
  check Alcotest.int "second hits" 1 (Hw.Assoc_mem.hits cpu.Hw.Cpu.tlb);
  check Alcotest.int "walk + hit charged"
    (config.Hw.Hw_config.walk_cost + config.Hw.Hw_config.tlb_hit_cost)
    cpu.Hw.Cpu.xl_ns;
  (* The dispatcher's DBR load clears the AM. *)
  Hw.Cpu.load_user_dbr cpu dbr;
  check Alcotest.int "switch flushes" 0 (Hw.Assoc_mem.entries cpu.Hw.Cpu.tlb);
  read ();
  check Alcotest.int "re-walk after switch" 2
    (Hw.Assoc_mem.misses cpu.Hw.Cpu.tlb)

(* ------------------------------------------------------------------ *)
(* Kernel-level flush discipline. *)

let test_flush_on_deactivate () =
  let k = K.Kernel.boot K.Kernel.default_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>f" ~acl:open_acl ~label:low;
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>f"
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "resolve"
  in
  let sm = K.Kernel.segment k in
  let slot =
    match
      K.Segment.activate sm
        ~uid:target.K.Directory.t_uid ~cell:target.K.Directory.t_cell
    with
    | Ok slot -> slot
    | Error _ -> Alcotest.fail "activate"
  in
  (* The uid -> slot index answers while active... *)
  check Alcotest.bool "find_active hits" true
    (K.Segment.find_active sm ~uid:target.K.Directory.t_uid = Some slot);
  let f0 = (K.Kernel.stats k).K.Kernel.tlb_flushes in
  K.Segment.deactivate sm ~slot;
  (* ...and the deactivation's setfaults broadcast a full AM clear. *)
  check Alcotest.bool "deactivate flushes every AM" true
    ((K.Kernel.stats k).K.Kernel.tlb_flushes > f0);
  check Alcotest.bool "find_active forgets" true
    (K.Segment.find_active sm ~uid:target.K.Directory.t_uid = None)

let test_flush_on_context_switch () =
  let k = K.Kernel.boot K.Kernel.default_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let writer name =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name };
           K.Workload.Initiate { path = ">home>" ^ name; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:3 ]
  in
  ignore (K.Kernel.spawn k ~pname:"w1" (writer "f1"));
  ignore (K.Kernel.spawn k ~pname:"w2" (writer "f2"));
  Alcotest.(check bool) "completed" true (K.Kernel.run_to_completion k);
  let s = K.Kernel.stats k in
  check Alcotest.bool "AM served hits" true (s.K.Kernel.tlb_hits > 0);
  check Alcotest.bool "switches flushed" true (s.K.Kernel.tlb_flushes > 0)

(* ------------------------------------------------------------------ *)
(* Pathname cache invalidation. *)

let boot_tree () =
  let k = K.Kernel.boot K.Kernel.default_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">home>sub" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>sub>f" ~acl:open_acl ~label:low;
  k

let initiate k path =
  K.Name_space.initiate (K.Kernel.name_space k) ~subject:alice ~ring:5 ~path

let dir_uid k path =
  match
    K.Name_space.resolve_parent (K.Kernel.name_space k)
      ~subject:K.Kernel.root_subject ~ring:1 ~path:(path ^ ">x")
  with
  | Ok (uid, _) -> uid
  | Error _ -> Alcotest.fail "resolve_parent"

let test_path_cache_delete () =
  let k = boot_tree () in
  let ns = K.Kernel.name_space k in
  (match initiate k ">home>sub>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first initiate");
  (match initiate k ">home>sub>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second initiate");
  check Alcotest.bool "repeat walk hits" true (K.Name_space.cache_hits ns > 0);
  check Alcotest.bool "cache populated" true (K.Name_space.cache_size ns > 0);
  let inv0 = K.Name_space.cache_invalidations ns in
  let sub = dir_uid k ">home>sub" in
  (match
     K.Directory.delete_entry (K.Kernel.directory k)
       ~subject:K.Kernel.root_subject ~dir_uid:sub ~name:"f"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete");
  check Alcotest.bool "delete drops the cache" true
    (K.Name_space.cache_invalidations ns > inv0);
  (match initiate k ">home>sub>f" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deleted file still resolves")

let test_path_cache_acl () =
  let k = boot_tree () in
  let ns = K.Kernel.name_space k in
  (match initiate k ">home>sub>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "initiate before revoke");
  (match initiate k ">home>sub>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "repeat initiate");
  let inv0 = K.Name_space.cache_invalidations ns in
  let sub = dir_uid k ">home>sub" in
  let set_acl acl =
    match
      K.Directory.set_acl (K.Kernel.directory k)
        ~subject:K.Kernel.root_subject ~dir_uid:sub ~name:"f" ~acl
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "set_acl"
  in
  set_acl root_only;
  check Alcotest.bool "acl change drops the cache" true
    (K.Name_space.cache_invalidations ns > inv0);
  (match initiate k ">home>sub>f" with
  | Error `No_access -> ()
  | Error `Bad_path -> Alcotest.fail "expected No_access"
  | Ok _ -> Alcotest.fail "revoked acl still initiates");
  (* Restoring access works through a fresh walk. *)
  set_acl open_acl;
  match initiate k ">home>sub>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "restored acl should initiate"

(* The cache is keyed by the whole subject.  User "a.b" of project "c"
   and user "a" of project "b.c" are distinct principals whose names
   join to the same "a.b.c"; neither may answer the other's probe. *)
let test_path_cache_principals_distinct () =
  let k = K.Kernel.boot K.Kernel.default_config in
  K.Kernel.mkdir k ~path:">d" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">d>e" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">d>e>f" ~acl:open_acl ~label:low;
  let ns = K.Kernel.name_space k in
  let principal user project =
    { K.Directory.s_principal = { K.Acl.user; project }; s_label = low;
      s_trusted = false }
  in
  let resolve subject =
    match K.Name_space.resolve_parent ns ~subject ~ring:5 ~path:">d>e>f" with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "resolve >d>e>f"
  in
  let hits_of subject =
    let h0 = K.Name_space.cache_hits ns in
    resolve subject;
    K.Name_space.cache_hits ns - h0
  in
  let first = principal "a.b" "c" and second = principal "a" "b.c" in
  check Alcotest.int "first principal's walk misses" 0 (hits_of first);
  check Alcotest.int "the other principal misses too" 0 (hits_of second);
  check Alcotest.int "each principal's repeat walk hits" 4
    (hits_of first + hits_of second)

(* ------------------------------------------------------------------ *)
(* Shutdown / reboot leave no cache contents behind. *)

let test_caches_empty_after_reboot () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>f" ~acl:open_acl ~label:low;
  (match initiate k ">home>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "initiate");
  let writer =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:2 ]
  in
  ignore (K.Kernel.spawn k ~pname:"w" writer);
  Alcotest.(check bool) "completed" true (K.Kernel.run_to_completion k);
  check Alcotest.bool "path cache populated" true
    (K.Name_space.cache_size (K.Kernel.name_space k) > 0);
  K.Kernel.shutdown k;
  check Alcotest.int "path cache empty after shutdown" 0
    (K.Name_space.cache_size (K.Kernel.name_space k));
  let tlb_entries k =
    List.fold_left
      (fun acc (cpu : Hw.Cpu.t) -> acc + Hw.Assoc_mem.entries cpu.Hw.Cpu.tlb)
      0
      (Hw.Machine.all_cpus (K.Kernel.machine k))
  in
  check Alcotest.int "every AM empty after shutdown" 0 (tlb_entries k);
  let k2 = K.Kernel.reboot K.Kernel.small_config ~from:k in
  check Alcotest.int "path cache empty after reboot" 0
    (K.Name_space.cache_size (K.Kernel.name_space k2));
  check Alcotest.int "AMs empty after reboot" 0 (tlb_entries k2);
  (* The rebooted hierarchy still resolves. *)
  match initiate k2 ">home>f" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "hierarchy lost across reboot"

(* ------------------------------------------------------------------ *)
(* The caches must not change what a workload computes. *)

let run_mix config =
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  for i = 1 to 2 do
    ignore
      (K.Kernel.spawn k
         ~pname:(Printf.sprintf "cpu%d" i)
         (K.Workload.compute_bound ~steps:20 ~step_ns:2_000))
  done;
  let writer name =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name };
           K.Workload.Initiate { path = ">home>" ^ name; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:3;
        K.Workload.random_touches ~seg_reg:0 ~pages:3 ~count:40 ~write_pct:50
          ~seed:5 ]
  in
  ignore (K.Kernel.spawn k ~pname:"io1" (writer "f1"));
  ignore (K.Kernel.spawn k ~pname:"io2" (writer "f2"));
  let completed = K.Kernel.run_to_completion k in
  let names =
    match
      K.Directory.list_names (K.Kernel.directory k)
        ~subject:K.Kernel.root_subject
        ~dir_uid:(dir_uid k ">home")
    with
    | Ok infos ->
        List.sort compare
          (List.map (fun i -> i.K.Directory.i_name) infos)
    | Error _ -> Alcotest.fail "list_names"
  in
  ( completed,
    K.Kernel.denials k,
    K.Page_frame.faults_served (K.Kernel.page_frame k),
    K.Segment.grows (K.Kernel.segment k),
    K.Page_frame.page_reads (K.Kernel.page_frame k),
    names )

let test_same_results_on_off () =
  let off = run_mix off_config in
  let on = run_mix K.Kernel.default_config in
  let pr (completed, denials, faults, grows, reads, names) =
    Printf.sprintf "completed=%b denials=%d faults=%d grows=%d reads=%d [%s]"
      completed denials faults grows reads (String.concat ";" names)
  in
  check Alcotest.string "identical results caches on vs off" (pr off) (pr on)

(* ------------------------------------------------------------------ *)
(* The disk free-record bitmap mirrors the free list. *)

let test_disk_free_map () =
  let machine = Hw.Machine.create Hw.Hw_config.kernel_multics in
  let disk = machine.Hw.Machine.disk in
  let free0 = Hw.Disk.free_records disk ~pack:0 in
  let records = List.init 5 (fun _ -> Hw.Disk.alloc_record disk ~pack:0) in
  List.iter
    (fun record ->
      check Alcotest.bool "allocated record not free" false
        (Hw.Disk.record_is_free disk ~pack:0 ~record))
    records;
  check Alcotest.int "free count tracks allocation" (free0 - 5)
    (Hw.Disk.free_records disk ~pack:0);
  let r = List.hd records in
  Hw.Disk.free_record disk ~pack:0 ~record:r;
  check Alcotest.bool "freed record free again" true
    (Hw.Disk.record_is_free disk ~pack:0 ~record:r);
  check Alcotest.int "free count restored" (free0 - 4)
    (Hw.Disk.free_records disk ~pack:0);
  check Alcotest.bool "out of range is not free" false
    (Hw.Disk.record_is_free disk ~pack:0 ~record:(-1))

let tests =
  [ Alcotest.test_case "assoc mem unit" `Quick test_am_unit;
    Alcotest.test_case "am hit + dbr switch flush" `Quick
      test_am_translate_and_switch;
    Alcotest.test_case "deactivate flushes + find_active" `Quick
      test_flush_on_deactivate;
    Alcotest.test_case "context switches flush" `Quick
      test_flush_on_context_switch;
    Alcotest.test_case "path cache delete invalidation" `Quick
      test_path_cache_delete;
    Alcotest.test_case "path cache acl invalidation" `Quick
      test_path_cache_acl;
    Alcotest.test_case "path cache keeps principals apart" `Quick
      test_path_cache_principals_distinct;
    Alcotest.test_case "caches empty after reboot" `Quick
      test_caches_empty_after_reboot;
    Alcotest.test_case "same results caches on/off" `Quick
      test_same_results_on_off;
    Alcotest.test_case "disk free map" `Quick test_disk_free_map ]
