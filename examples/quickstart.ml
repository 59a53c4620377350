(* Quickstart: boot Kernel/Multics, log two users in through the
   Answering Service, let them build and read files, and print the
   kernel's report.

     dune exec examples/quickstart.exe
*)

module K = Multics_kernel
module S = Multics_services
module Aim = Multics_aim

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let () =
  (* 1. Boot the kernel: hardware, managers bottom-up, root directory,
     permanently bound virtual processors. *)
  let k = K.Kernel.boot K.Kernel.default_config in
  Format.printf "booted Kernel/Multics: %d gates (%d user-callable)@."
    (K.Gate.registered (K.Kernel.gate k))
    (K.Gate.user_callable (K.Kernel.gate k));

  (* 2. Administrative setup: home directories with a storage quota. *)
  K.Kernel.mkdir k ~path:">udd" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">udd>alice" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">udd>bob" ~acl:open_acl ~label:low;
  K.Kernel.set_quota k ~path:">udd>alice" ~limit:64;
  K.Kernel.set_quota k ~path:">udd>bob" ~limit:32;

  (* 3. The Answering Service authenticates users and creates their
     processes (the split arrangement: under 1,000 trusted lines). *)
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  S.Answering_service.register_user svc ~user:"alice" ~password:"vv67"
    ~clearance:low;
  S.Answering_service.register_user svc ~user:"bob" ~password:"q21x"
    ~clearance:low;

  (* A stored program for alice: machine code in an ordinary segment,
     demand-paged like everything else.  It bumps a counter in her
     report's last page 3 times (segment numbers are assigned in
     initiation order: report = 64, code = 65). *)
  K.Kernel.create_file k ~path:">udd>alice>bump_tool" ~acl:open_acl ~label:low;
  K.Kernel.load_program k ~path:">udd>alice>bump_tool"
    (Multics_hw.Isa.assemble
       [ (Multics_hw.Isa.LDI, 0, 3); (Multics_hw.Isa.STA, 64, 9 * 1024);
         (* loop: *)
         (Multics_hw.Isa.AOS, 64, (9 * 1024) + 1);
         (Multics_hw.Isa.LDA, 64, 9 * 1024);
         (Multics_hw.Isa.SUB, 65, 8);  (* constant 1, stored after HLT *)
         (Multics_hw.Isa.STA, 64, 9 * 1024);
         (Multics_hw.Isa.TNZ, 65, 2);
         (Multics_hw.Isa.HLT, 0, 0) ]
    @ [ 1 ]);
  let alice_session =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">udd>alice"; name = "report" };
           K.Workload.Initiate { path = ">udd>alice>report"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:10;
        K.Workload.sequential_read ~seg_reg:0 ~pages:10;
        [| K.Workload.Initiate { path = ">udd>alice>bump_tool"; reg = 1 };
           K.Workload.Execute { seg_reg = 1; entry = 0 };
           K.Workload.Advance_ec { ec = "report_ready" } |] ]
  in
  let bob_session =
    K.Workload.concat
      [ (* Bob waits until Alice's report exists, then reads it. *)
        [| K.Workload.Await_ec { ec = "report_ready"; value = 1 };
           K.Workload.Initiate { path = ">udd>alice>report"; reg = 1 } |];
        K.Workload.sequential_read ~seg_reg:1 ~pages:10;
        K.Workload.file_churn ~dir:">udd>bob" ~files:5 ~pages_each:2 ~seed:11 ]
  in
  let alice_pid =
    match
      S.Answering_service.login svc ~user:"alice" ~password:"vv67"
        ~program:alice_session
    with
    | Ok pid -> pid
    | Error _ -> failwith "alice login failed"
  in
  let bob_pid =
    match
      S.Answering_service.login svc ~user:"bob" ~password:"q21x"
        ~program:bob_session
    with
    | Ok pid -> pid
    | Error _ -> failwith "bob login failed"
  in
  (* A bad password, for the accounting record. *)
  (match
     S.Answering_service.login svc ~user:"bob" ~password:"wrong"
       ~program:bob_session
   with
  | Error `Bad_password -> Format.printf "bob mistyped his password once@."
  | _ -> assert false);

  (* 4. Run the machine until both sessions finish. *)
  let all_done = K.Kernel.run_to_completion k in
  Format.printf "sessions complete: %b@." all_done;
  S.Answering_service.logout svc ~pid:alice_pid;
  S.Answering_service.logout svc ~pid:bob_pid;

  (* 5. What happened. *)
  (match K.Kernel.quota_usage k ~path:">udd>alice" with
  | Some (used, limit) ->
      Format.printf "alice's quota: %d of %d pages@." used limit
  | None -> ());
  Format.printf "@.%a@." K.Kernel.pp_report k;
  Format.printf "accounting:@.%a" S.Accounting.pp
    (S.Answering_service.accounting svc);

  (* 6. The integrity audit: the managers' references, read from the
     code, vs. the declared loop-free structure. *)
  Format.printf "@.%a" Multics_check.Static_audit.pp
    (Multics_check.Static_audit.lib_core ())
