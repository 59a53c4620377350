(* Second wave of coverage: ACL semantics and sharing, name-space
   parsing, gate accounting, signal nesting, address-space pool reuse,
   and assorted hardware/graph edge cases. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Dg = Multics_depgraph
module Aim = Multics_aim

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

(* ------------------------------------------------------------------ *)
(* ACL semantics *)

let test_acl_first_match_wins () =
  let acl =
    [ K.Acl.entry "alice" K.Acl.no_access; K.Acl.entry "*" K.Acl.rw ]
  in
  let alice = { K.Acl.user = "alice"; project = "p" } in
  let bob = { K.Acl.user = "bob"; project = "p" } in
  check Alcotest.bool "alice denied by her specific entry" false
    (K.Acl.permits acl alice `Read);
  check Alcotest.bool "bob matches the star" true (K.Acl.permits acl bob `Read)

let test_acl_project_wildcard () =
  let acl = [ { K.Acl.who_user = "*"; who_project = "sys"; mode = K.Acl.rw } ] in
  check Alcotest.bool "project match" true
    (K.Acl.permits acl { K.Acl.user = "x"; project = "sys" } `Write);
  check Alcotest.bool "project mismatch" false
    (K.Acl.permits acl { K.Acl.user = "x"; project = "other" } `Write)

let prop_acl_no_match_no_access =
  qcheck
    (QCheck.Test.make ~name:"empty acl grants nothing" ~count:100
       QCheck.(pair (string_of_size (QCheck.Gen.return 4)) (string_of_size (QCheck.Gen.return 4)))
       (fun (user, project) ->
         K.Acl.check [] { K.Acl.user; project } = K.Acl.no_access))

(* The paper's sharing transaction: "the first user places the other
   user's name on the access control list of the file, and the
   transaction is complete, without need to revise or check access
   control lists of directories higher in the naming hierarchy." *)
let test_acl_sharing_transaction () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">udd" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">udd>alice"
    ~acl:[ K.Acl.entry "alice" K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ]
    ~label:low;
  let alice_builds =
    [| K.Workload.Create_file { dir = ">udd>alice"; name = "draft" };
       K.Workload.Terminate |]
  in
  ignore
    (K.Kernel.spawn k ~principal:{ K.Acl.user = "alice"; project = "p" }
       ~pname:"alice" alice_builds);
  assert (K.Kernel.run_to_completion k);
  (* Overwrite the default ACL with an owner-only one, then verify bob
     is locked out, then grant him, through workload actions. *)
  let alice_locks =
    [| K.Workload.Set_acl
         { path = ">udd>alice>draft"; user = "alice"; read = true; write = true };
       K.Workload.Terminate |]
  in
  ignore
    (K.Kernel.spawn k ~principal:{ K.Acl.user = "alice"; project = "p" }
       ~pname:"alice2" alice_locks);
  assert (K.Kernel.run_to_completion k);
  let bob =
    { K.Directory.s_principal = { K.Acl.user = "bob"; project = "p" };
      s_label = low; s_trusted = false }
  in
  (match
     K.Name_space.initiate (K.Kernel.name_space k) ~subject:bob ~ring:5
       ~path:">udd>alice>draft"
   with
  | Error `No_access -> ()
  | _ -> Alcotest.fail "bob must be locked out first");
  (* One ACL edit on the FILE completes the transaction — the unreadable
     directory above does not need touching. *)
  let alice_shares =
    [| K.Workload.Set_acl
         { path = ">udd>alice>draft"; user = "bob"; read = true; write = false };
       K.Workload.Terminate |]
  in
  ignore
    (K.Kernel.spawn k ~principal:{ K.Acl.user = "alice"; project = "p" }
       ~pname:"alice3" alice_shares);
  assert (K.Kernel.run_to_completion k);
  match
    K.Name_space.initiate (K.Kernel.name_space k) ~subject:bob ~ring:5
      ~path:">udd>alice>draft"
  with
  | Ok target ->
      check Alcotest.bool "bob reads" true target.K.Directory.t_mode.K.Acl.read;
      check Alcotest.bool "bob cannot write" false
        target.K.Directory.t_mode.K.Acl.write
  | Error _ -> Alcotest.fail "sharing transaction must be complete"

(* ------------------------------------------------------------------ *)
(* Name space parsing *)

let test_components () =
  check (Alcotest.list Alcotest.string) "absolute" [ "a"; "b"; "c" ]
    (K.Name_space.components ">a>b>c");
  check (Alcotest.list Alcotest.string) "no leading" [ "a"; "b" ]
    (K.Name_space.components "a>b");
  check (Alcotest.list Alcotest.string) "double separators" [ "a"; "b" ]
    (K.Name_space.components ">a>>b>");
  check (Alcotest.list Alcotest.string) "root" [] (K.Name_space.components ">")

(* ------------------------------------------------------------------ *)
(* Gates *)

let test_gate_call_counting () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  let before = K.Gate.calls_of (K.Kernel.gate k) "hcs_$fs_search" in
  ignore
    (K.Name_space.initiate (K.Kernel.name_space k)
       ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>nothing");
  (* one component walked = one search call *)
  check Alcotest.int "search counted" (before + 1)
    (K.Gate.calls_of (K.Kernel.gate k) "hcs_$fs_search");
  check Alcotest.int "unknown gate counts zero" 0
    (K.Gate.calls_of (K.Kernel.gate k) "no_such")

(* ------------------------------------------------------------------ *)
(* Upward signals *)

let test_upward_signal_nested_drain () =
  let meter = K.Meter.create () in
  let signals =
    K.Upward_signal.create ~meter ~obs:(Multics_obs.Sink.detached ())
  in
  let fresh = K.Ids.generator () in
  let uid1 = fresh () and uid2 = fresh () in
  K.Upward_signal.raise_signal signals ~from:"segment_manager"
    (K.Upward_signal.Segment_moved { uid = uid1; new_pack = 1; new_index = 2 });
  let seen = ref [] in
  let delivered =
    K.Upward_signal.drain signals ~deliver:(fun payload ->
        (match payload with
        | K.Upward_signal.Segment_moved { uid; _ } ->
            seen := K.Ids.to_int uid :: !seen
        | K.Upward_signal.Pack_offline _ -> ());
        (* Delivery raising a further signal must also be delivered. *)
        if List.length !seen = 1 then
          K.Upward_signal.raise_signal signals ~from:"segment_manager"
            (K.Upward_signal.Segment_moved
               { uid = uid2; new_pack = 2; new_index = 3 }))
  in
  check Alcotest.int "both delivered" 2 delivered;
  check (Alcotest.list Alcotest.int) "in order"
    [ K.Ids.to_int uid1; K.Ids.to_int uid2 ]
    (List.rev !seen);
  check Alcotest.int "nothing pending" 0 (K.Upward_signal.pending signals)

(* ------------------------------------------------------------------ *)
(* Address space pool *)

let test_address_space_pool_reuse () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  (* max_processes = 8; run 3 waves of 8, relying on reaping. *)
  for wave = 1 to 3 do
    for i = 1 to 8 do
      ignore
        (K.Kernel.spawn k
           ~pname:(Printf.sprintf "w%d_%d" wave i)
           (K.Workload.compute_bound ~steps:3 ~step_ns:500))
    done;
    check Alcotest.bool
      (Printf.sprintf "wave %d completes" wave)
      true (K.Kernel.run_to_completion k)
  done;
  check Alcotest.int "24 processes total" 24
    (K.User_process.completed (K.Kernel.user_process k))

(* ------------------------------------------------------------------ *)
(* Hardware odds and ends *)

let test_word_pp_octal () =
  check Alcotest.string "octal" "000000000777"
    (Format.asprintf "%a" Hw.Word.pp 0o777)

let test_machine_schedule_at () =
  let machine = Hw.Machine.create Hw.Hw_config.legacy_multics in
  let log = ref [] in
  Hw.Machine.schedule_at machine ~time:500 (fun () -> log := 500 :: !log);
  Hw.Machine.schedule_at machine ~time:100 (fun () -> log := 100 :: !log);
  Hw.Machine.run machine;
  check (Alcotest.list Alcotest.int) "time order" [ 100; 500 ] (List.rev !log)

let test_cpu_counters () =
  let config = { Hw.Hw_config.legacy_multics with Hw.Hw_config.memory_frames = 8 } in
  let machine = Hw.Machine.create config in
  let cpu = machine.Hw.Machine.cpus.(0) in
  Hw.Cpu.load_user_dbr cpu (Some { Hw.Cpu.base = 0; n_segments = 4 });
  let virt = Hw.Addr.of_page ~segno:1 ~pageno:0 ~offset:0 in
  (match Hw.Cpu.translate config machine.Hw.Machine.mem cpu virt Hw.Fault.Read with
  | Error (Hw.Fault.Missing_segment _) -> ()
  | _ -> Alcotest.fail "expected miss");
  check Alcotest.int "translations counted" 1 cpu.Hw.Cpu.translations;
  check Alcotest.int "faults counted" 1 cpu.Hw.Cpu.faults

(* Full random pages over three frames: loading a page into one frame
   and snapshotting it gives the page back, its neighbours keep their
   own pages, and neither transfer moves the processor's access
   counters the cost model reads. *)
let prop_frame_roundtrip =
  let page =
    QCheck.Gen.(array_size (return Hw.Addr.page_size) (int_bound Hw.Word.mask))
  in
  qcheck
    (QCheck.Test.make ~name:"frame write/read roundtrip" ~count:50
       (QCheck.make
          QCheck.Gen.(triple (int_bound 2) (array_size (return 3) page) page))
       (fun (n, backgrounds, words) ->
         let mem = Hw.Phys_mem.create ~frames:3 in
         let images = Array.map Hw.Page_image.of_words backgrounds in
         Array.iteri (Hw.Phys_mem.write_frame mem) images;
         Hw.Phys_mem.write_frame mem n (Hw.Page_image.of_words words);
         let back = Hw.Phys_mem.read_frame mem n in
         Hw.Page_image.to_words back = words
         && List.for_all
              (fun m ->
                m = n
                || Hw.Page_image.to_words (Hw.Phys_mem.read_frame mem m)
                   = backgrounds.(m))
              [ 0; 1; 2 ]
         && Hw.Phys_mem.reads mem = 0
         && Hw.Phys_mem.writes mem = 0))

(* ------------------------------------------------------------------ *)
(* Dependency graphs *)

let test_dot_marks_improper () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Shared_data;
  Dg.Graph.add_edge g ~from:"b" ~to_:"c" Dg.Dep_kind.Component;
  let dot = Dg.Render.to_string Dg.Render.dot g in
  check Alcotest.bool "improper dashed" true
    (Astring.String.is_infix ~affix:"style=dashed" dot);
  (* only the improper edge is dashed *)
  let dashes =
    Astring.String.cuts ~sep:"style=dashed" dot |> List.length |> pred
  in
  check Alcotest.int "exactly one dashed" 1 dashes

let test_graph_copy_shares_structure () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Component;
  let g2 = Dg.Graph.copy g in
  check Alcotest.int "copy has the edge" 1 (Dg.Graph.n_edges g2)

(* ------------------------------------------------------------------ *)
(* Legacy odds and ends *)

let test_legacy_zero_reclaim () =
  let s = L.Old_supervisor.boot L.Old_supervisor.small_config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  L.Old_supervisor.create_file s ~path:">home>blank" ~acl:open_acl;
  let st = L.Old_supervisor.state s in
  let de =
    match
      L.Old_directory.resolve st
        ~principal:{ K.Acl.user = "root"; project = "sys" } ~path:">home>blank"
    with
    | Ok (de, _) -> de
    | Error _ -> Alcotest.fail "resolve"
  in
  (* Grow a page without writing, then deactivate: the page of zeros is
     reclaimed and the quota credited, old-style. *)
  (match
     L.Old_storage.kernel_touch_sync st ~uid:de.L.Old_types.od_uid ~pageno:0
       ~write:false
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let ast = Option.get (L.Old_storage.find_active st ~uid:de.L.Old_types.od_uid) in
  check Alcotest.bool "deactivates" true
    (L.Old_storage.deactivate_for_test st ~ast);
  check Alcotest.bool "zero reclaimed" true
    (st.L.Old_types.stats.L.Old_types.st_zero_reclaims > 0)

let test_legacy_set_acl_refused () =
  let s = L.Old_supervisor.boot L.Old_supervisor.small_config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  let pid =
    L.Old_supervisor.spawn s ~pname:"p"
      [| K.Workload.Set_acl
           { path = ">home"; user = "x"; read = true; write = false };
         K.Workload.Terminate |]
  in
  assert (L.Old_supervisor.run_to_completion s);
  (match L.Old_supervisor.proc_state s pid with
  | L.Old_types.O_done -> ()
  | _ -> Alcotest.fail "process completes despite refusal");
  check Alcotest.bool "denial counted" true
    ((L.Old_supervisor.stats s).L.Old_types.st_denials > 0)

let tests =
  [ Alcotest.test_case "acl first match wins" `Quick test_acl_first_match_wins;
    Alcotest.test_case "acl project wildcard" `Quick test_acl_project_wildcard;
    prop_acl_no_match_no_access;
    Alcotest.test_case "acl sharing transaction" `Quick
      test_acl_sharing_transaction;
    Alcotest.test_case "name space components" `Quick test_components;
    Alcotest.test_case "gate call counting" `Quick test_gate_call_counting;
    Alcotest.test_case "upward signal nested drain" `Quick
      test_upward_signal_nested_drain;
    Alcotest.test_case "address space pool reuse" `Quick
      test_address_space_pool_reuse;
    Alcotest.test_case "word pp octal" `Quick test_word_pp_octal;
    Alcotest.test_case "machine schedule_at" `Quick test_machine_schedule_at;
    Alcotest.test_case "cpu counters" `Quick test_cpu_counters;
    prop_frame_roundtrip;
    Alcotest.test_case "dot marks improper" `Quick test_dot_marks_improper;
    Alcotest.test_case "graph copy" `Quick test_graph_copy_shares_structure;
    Alcotest.test_case "legacy zero reclaim" `Quick test_legacy_zero_reclaim;
    Alcotest.test_case "legacy set_acl refused" `Quick
      test_legacy_set_acl_refused ]
