(* The tiger team.

   The paper's fourth verification prong: "a tiger team can be assigned
   the task of breaking into the system."  Each test here is an attack;
   each assertion is the kernel holding. *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let secret = Aim.Label.make Aim.Level.secret Aim.Compartment.empty
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let arena () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">vault"
    ~acl:[ K.Acl.entry "owner" K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ]
    ~label:low;
  K.Kernel.create_file k ~path:">vault>payroll" ~acl:[ K.Acl.entry "owner" K.Acl.rw ]
    ~label:low;
  K.Kernel.mkdir k ~path:">sigint" ~acl:open_acl ~label:secret;
  K.Kernel.create_file k ~path:">sigint>intercepts" ~acl:open_acl ~label:secret;
  k

let run_attacker k ?(label = low) program =
  let pid =
    K.Kernel.spawn k
      ~principal:{ K.Acl.user = "mallory"; project = "hax" }
      ~label ~pname:"mallory" program
  in
  ignore (K.Kernel.run_to_completion k);
  K.User_process.proc (K.Kernel.user_process k) pid

(* Attack 1: call an administrative gate from the user ring. *)
let attack_admin_gates () =
  let k = arena () in
  let gate = K.Kernel.gate k in
  List.iter
    (fun g ->
      match K.Gate.call gate ~name:g ~caller_ring:5 (fun () -> ()) with
      | Error `Ring_violation -> ()
      | Ok () -> Alcotest.failf "ring 5 reached %s" g
      | Error `No_gate -> Alcotest.failf "missing gate %s" g
      | Error `Timed_out -> Alcotest.failf "unexpected timeout at %s" g)
    [ "hphcs_$create_proc"; "hphcs_$set_quota"; "hphcs_$shutdown";
      "hphcs_$reclassify"; "phcs_$ring0_peek" ];
  check Alcotest.bool "violations recorded" true
    (K.Gate.ring_violations gate >= 5)

(* Attack 2: touch a segment number that was never initiated. *)
let attack_forged_segno () =
  let k = arena () in
  let p =
    run_attacker k
      [| K.Workload.Compute 100;
         (* regs.(7) is -1; plant a plausible-looking segno instead *)
         K.Workload.Initiate { path = ">home"; reg = 0 };
         K.Workload.Touch { seg_reg = 1; pageno = 0; offset = 0; write = false };
         K.Workload.Terminate |]
  in
  (match p.K.User_process.pstate with
  | K.User_process.P_failed _ -> ()
  | _ -> Alcotest.fail "forged reference must kill the process");
  (* Direct hardware probe with a segno in another process's range:
     the SDW is invalid in mallory's descriptor segment. *)
  let segno = 100 in
  let virt = Hw.Addr.of_page ~segno ~pageno:0 ~offset:0 in
  match
    Hw.Cpu.translate (K.Kernel.config k).K.Kernel.hw
      (K.Kernel.machine k).Hw.Machine.mem p.K.User_process.vcpu virt
      Hw.Fault.Read
  with
  | Error (Hw.Fault.Missing_segment _) -> ()
  | Error f -> Alcotest.failf "unexpected: %s" (Hw.Fault.to_string f)
  | Ok _ -> Alcotest.fail "forged segno translated!"

(* Attack 3: enumerate a directory we cannot read.  Every probe must be
   indistinguishable from the others. *)
let attack_name_probing () =
  let k = arena () in
  let dm = K.Kernel.directory k in
  let mallory =
    { K.Directory.s_principal = { K.Acl.user = "mallory"; project = "hax" };
      s_label = low; s_trusted = false }
  in
  let vault =
    match
      K.Directory.search dm ~subject:mallory
        ~dir_uid:(K.Directory.root_uid dm) ~name:"vault"
    with
    | `Found uid -> uid
    | `No_entry -> Alcotest.fail "root is public"
  in
  (* "payroll" exists, the others do not; from where mallory stands all
     three answers must have the same shape and the same outcome. *)
  let outcomes =
    List.map
      (fun name ->
        match K.Directory.search dm ~subject:mallory ~dir_uid:vault ~name
        with
        | `Found uid -> (
            match
              K.Directory.initiate_target dm ~subject:mallory
                ~dir_uid:vault ~name
            with
            | Error `No_access -> ("found/no-access", K.Ids.is_mythical uid)
            | Ok _ -> ("initiated!", false))
        | `No_entry -> ("no-entry", false))
      [ "payroll"; "salaries"; "blackmail" ]
  in
  List.iter
    (fun (outcome, _) ->
      check Alcotest.string "uniform answer" "found/no-access" outcome)
    outcomes

(* Attack 4: blow through a quota with writes; then try to launder
   pages through zeros. *)
let attack_quota_bypass () =
  let k = arena () in
  K.Kernel.mkdir k ~path:">home>cell" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">home>cell" ~limit:4;
  let p =
    run_attacker k
      (K.Workload.concat
         [ [| K.Workload.Create_file { dir = ">home>cell"; name = "bomb" };
              K.Workload.Initiate { path = ">home>cell>bomb"; reg = 0 } |];
           K.Workload.sequential_write ~seg_reg:0 ~pages:12 ])
  in
  (match p.K.User_process.pstate with
  | K.User_process.P_failed msg ->
      check Alcotest.bool "quota stopped it" true
        (Astring.String.is_infix ~affix:"quota" msg)
  | _ -> Alcotest.fail "quota must stop the bomb");
  (match K.Kernel.quota_usage k ~path:">home>cell" with
  | Some (used, limit) ->
      check Alcotest.bool "never exceeded" true (used <= limit)
  | None -> Alcotest.fail "cell exists");
  check Alcotest.int "system still consistent" 0
    (List.length (K.Invariants.check k))

(* Attack 5: a secret subject exfiltrates downward. *)
let attack_write_down () =
  let k = arena () in
  let p =
    run_attacker k ~label:secret
      [| (* read something secret *)
         K.Workload.Initiate { path = ">sigint>intercepts"; reg = 0 };
         K.Workload.Touch { seg_reg = 0; pageno = 0; offset = 0; write = false };
         (* then try to write it somewhere low: creation is refused *)
         K.Workload.Create_file { dir = ">home"; name = "exfil" };
         (* and writing an existing low file faults *)
         K.Workload.Initiate { path = ">vault>payroll"; reg = 1 };
         K.Workload.Terminate |]
  in
  check Alcotest.bool "denials recorded" true (K.Kernel.denials k > 0);
  (* The low file was not created. *)
  let mallory =
    { K.Directory.s_principal = { K.Acl.user = "mallory"; project = "hax" };
      s_label = low; s_trusted = false }
  in
  (match
     K.Name_space.initiate (K.Kernel.name_space k) ~subject:mallory ~ring:5
       ~path:">home>exfil"
   with
  | Error (`No_access | `Bad_path) -> ()
  | Ok _ -> Alcotest.fail "exfil file must not exist");
  ignore p;
  check Alcotest.bool "audit trail has the denials" true
    (Aim.Audit.denials (K.Kernel.aim_audit k) > 0)

(* Attack 6: use the linker's search rules to reach a file the subject
   cannot read. *)
let attack_linker_laundering () =
  let k = arena () in
  let mallory =
    { K.Directory.s_principal = { K.Acl.user = "mallory"; project = "hax" };
      s_label = low; s_trusted = false }
  in
  List.iter
    (fun placement ->
      let linker = S.Linker.create ~kernel:k ~placement in
      match
        S.Linker.resolve linker ~subject:mallory ~ring:5 ~symbol:"payroll"
          ~search_rules:[ ">home"; ">vault" ]
      with
      | Error `Unresolved -> ()
      | Ok _ -> Alcotest.fail "linker must not grant what ACLs deny")
    [ S.Linker.In_kernel; S.Linker.User_ring ]

(* Attack 7: exhaust kernel resources from user land and leave the
   system wedged.  The process table is finite; the refusal must be
   clean and the system must keep serving others. *)
let attack_resource_exhaustion () =
  let k = arena () in
  (* Hold VPs hostage with processes that never finish quickly. *)
  let spawned = ref 0 in
  (try
     for i = 1 to 50 do
       ignore
         (K.Kernel.spawn k ~pname:(Printf.sprintf "hog%d" i)
            (K.Workload.compute_bound ~steps:5 ~step_ns:1_000));
       incr spawned
     done
   with Failure _ -> ());
  check Alcotest.bool "bounded by the pool" true (!spawned < 50);
  (* The machine still runs everything it admitted. *)
  check Alcotest.bool "admitted work completes" true
    (K.Kernel.run_to_completion k)

let tests =
  [ Alcotest.test_case "admin gates from user ring" `Quick attack_admin_gates;
    Alcotest.test_case "forged segment number" `Quick attack_forged_segno;
    Alcotest.test_case "name probing uniformity" `Quick attack_name_probing;
    Alcotest.test_case "quota bypass" `Quick attack_quota_bypass;
    Alcotest.test_case "write down" `Quick attack_write_down;
    Alcotest.test_case "linker laundering" `Quick attack_linker_laundering;
    Alcotest.test_case "resource exhaustion" `Quick attack_resource_exhaustion ]
