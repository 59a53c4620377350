(* Persistence across system incarnations: shutdown writes everything
   to the packs; a rebooted kernel finds the same hierarchy, data, ACLs,
   labels and quota. *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let secret = Aim.Label.make Aim.Level.secret Aim.Compartment.empty
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let build_world () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">home>alice"
    ~acl:[ K.Acl.entry "alice" K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ]
    ~label:low;
  K.Kernel.set_quota k ~path:">home>alice" ~limit:16;
  K.Kernel.create_file k ~path:">home>alice>notes" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">sigint" ~acl:open_acl ~label:secret;
  K.Kernel.create_file k ~path:">sigint>report" ~acl:open_acl ~label:secret;
  (* Put real data in alice's notes. *)
  let writer =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>alice>notes"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:3 ]
  in
  ignore
    (K.Kernel.spawn k
       ~principal:{ K.Acl.user = "alice"; project = "proj" }
       ~pname:"alice" writer);
  assert (K.Kernel.run_to_completion k);
  k

let reboot k =
  K.Kernel.shutdown k;
  K.Kernel.reboot K.Kernel.small_config ~from:k

let test_hierarchy_survives () =
  let k2 = reboot (build_world ()) in
  let subject = K.Kernel.root_subject in
  List.iter
    (fun path ->
      match
        K.Name_space.initiate (K.Kernel.name_space k2) ~subject ~ring:1 ~path
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s lost across reboot" path)
    [ ">home>alice>notes"; ">sigint>report" ]

let test_quota_survives () =
  let k2 = reboot (build_world ()) in
  match K.Kernel.quota_usage k2 ~path:">home>alice" with
  | Some (used, limit) ->
      check Alcotest.int "limit survives" 16 limit;
      (* 3 written pages of notes (plus any directory page of alice's
         own is charged to the parent regime). *)
      check Alcotest.int "count survives" 3 used
  | None -> Alcotest.fail "quota cell lost"

let test_data_survives () =
  let k2 = reboot (build_world ()) in
  (* A second-incarnation process reads back what the first wrote; a
     read of a written page succeeds without failing the process. *)
  let reader =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>alice>notes"; reg = 0 } |];
        K.Workload.sequential_read ~seg_reg:0 ~pages:3 ]
  in
  let pid =
    K.Kernel.spawn k2
      ~principal:{ K.Acl.user = "alice"; project = "proj" }
      ~pname:"alice2" reader
  in
  assert (K.Kernel.run_to_completion k2);
  let p = K.User_process.proc (K.Kernel.user_process k2) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_done -> ()
  | _ -> Alcotest.fail "reader must complete");
  (* And the words really are the old incarnation's: check directly. *)
  let target =
    match
      K.Name_space.initiate (K.Kernel.name_space k2)
        ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>alice>notes"
    with
    | Ok target -> target
    | Error _ -> Alcotest.fail "initiate"
  in
  let sm = K.Kernel.segment k2 in
  let slot =
    match
      K.Segment.activate sm ~uid:target.K.Directory.t_uid
        ~cell:target.K.Directory.t_cell
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "activate"
  in
  match K.Segment.read_word sm ~slot ~pageno:1 ~offset:0 with
  | Ok w -> check Alcotest.bool "old incarnation's data" true (w <> 0)
  | Error _ -> Alcotest.fail "read"

let test_security_survives () =
  let k2 = reboot (build_world ()) in
  (* ACLs: bob still cannot use alice's directory. *)
  let bob =
    { K.Directory.s_principal = { K.Acl.user = "bob"; project = "proj" };
      s_label = low; s_trusted = false }
  in
  (match
     K.Name_space.initiate (K.Kernel.name_space k2) ~subject:bob ~ring:5
       ~path:">home>alice>notes"
   with
  | Ok target ->
      (* alice's dir is unreadable to bob, but the file's own ACL is
         open: access is determined entirely by the target ACL. *)
      check Alcotest.bool "target acl grants read" true
        target.K.Directory.t_mode.K.Acl.read
  | Error _ -> Alcotest.fail "resolution through unreadable dir works");
  (* AIM labels: the low subject still cannot read the secret report. *)
  match
    K.Name_space.initiate (K.Kernel.name_space k2) ~subject:bob ~ring:5
      ~path:">sigint>report"
  with
  | Error `No_access -> ()
  | Error `Bad_path -> Alcotest.fail "path resolution broke"
  | Ok target ->
      check Alcotest.bool "read still denied up" false
        target.K.Directory.t_mode.K.Acl.read

let test_new_work_after_reboot () =
  let k2 = reboot (build_world ()) in
  (* The new incarnation creates fresh files with fresh uids and runs
     normally; invariants hold. *)
  let prog =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name = "second_era" };
           K.Workload.Initiate { path = ">home>second_era"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:2 ]
  in
  ignore (K.Kernel.spawn k2 ~pname:"w" prog);
  check Alcotest.bool "completes" true (K.Kernel.run_to_completion k2);
  check Alcotest.int "invariants clean" 0
    (List.length (K.Invariants.check k2));
  check Alcotest.int "salvager clean" 0 (List.length (K.Salvager.scan k2))

let test_double_reboot () =
  let k2 = reboot (build_world ()) in
  let k3 = reboot k2 in
  match
    K.Name_space.initiate (K.Kernel.name_space k3)
      ~subject:K.Kernel.root_subject ~ring:1 ~path:">home>alice>notes"
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second reboot lost the hierarchy"

let test_shutdown_requires_quiescence () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  ignore
    (K.Kernel.spawn k ~pname:"running"
       (K.Workload.compute_bound ~steps:50 ~step_ns:1000));
  Alcotest.check_raises "refuses"
    (Failure "Kernel.shutdown: processes still running") (fun () ->
      K.Kernel.shutdown k)

let tests =
  [ Alcotest.test_case "hierarchy survives" `Quick test_hierarchy_survives;
    Alcotest.test_case "quota survives" `Quick test_quota_survives;
    Alcotest.test_case "data survives" `Quick test_data_survives;
    Alcotest.test_case "security survives" `Quick test_security_survives;
    Alcotest.test_case "new work after reboot" `Quick
      test_new_work_after_reboot;
    Alcotest.test_case "double reboot" `Quick test_double_reboot;
    Alcotest.test_case "shutdown requires quiescence" `Quick
      test_shutdown_requires_quiescence ]
