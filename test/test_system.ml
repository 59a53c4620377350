(* The grand integration test: a day in the life of the system.

   Users log in through the Answering Service at several clearances,
   work under quota on a memory-cramped machine while network traffic
   arrives, probes are refused, everything drains; then the system shuts
   down, the salvager finds nothing to repair, and the next incarnation
   carries on with yesterday's files. *)

module K = Multics_kernel
module S = Multics_services
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let secret = Aim.Label.make Aim.Level.secret Aim.Compartment.empty
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let test_full_day () =
  let config =
    { K.Kernel.default_config with
      K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 96;
      core_frames = 32; root_quota = 512 }
  in
  let k = K.Kernel.boot config in
  (* The administrator builds the world. *)
  K.Kernel.mkdir k ~path:">udd" ~acl:open_acl ~label:low;
  List.iter
    (fun user ->
      let home = ">udd>" ^ user in
      K.Kernel.mkdir k ~path:home
        ~acl:[ K.Acl.entry user K.Acl.rwe; K.Acl.entry "root" K.Acl.rwe ]
        ~label:low;
      K.Kernel.set_quota k ~path:home ~limit:24)
    [ "adams"; "blake"; "curie"; "darwin" ];
  K.Kernel.mkdir k ~path:">library" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">library>manual" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">intel" ~acl:open_acl ~label:secret;
  K.Kernel.create_file k ~path:">intel>briefing" ~acl:open_acl ~label:secret;

  (* The Answering Service and the network come up. *)
  let svc =
    S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split
  in
  List.iter
    (fun (user, clearance) ->
      S.Answering_service.register_user svc ~user ~password:(user ^ "pw")
        ~clearance)
    [ ("adams", low); ("blake", low); ("curie", secret); ("darwin", low) ];
  let net = S.Network.create ~kernel:k ~variant:S.Network.Generic_demux in
  S.Network.attach_channel net ~net:S.Network.Arpanet ~channel:"mail_in";

  (* Sessions. *)
  let session user body =
    match
      S.Answering_service.login svc ~user ~password:(user ^ "pw")
        ~program:(K.Workload.concat body)
    with
    | Ok pid -> pid
    | Error _ -> Alcotest.failf "%s should log in" user
  in
  let home user = ">udd>" ^ user in
  let adams =
    session "adams"
      [ [| K.Workload.Create_file { dir = home "adams"; name = "report" };
           K.Workload.Initiate { path = home "adams" ^ ">report"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:10;
        K.Workload.random_touches ~seg_reg:0 ~pages:10 ~count:60 ~write_pct:30
          ~seed:1;
        [| K.Workload.Set_acl
             { path = home "adams" ^ ">report"; user = "blake"; read = true;
               write = false };
           K.Workload.Advance_ec { ec = "report_out" } |] ]
  in
  let blake =
    session "blake"
      [ [| K.Workload.Initiate { path = ">library>manual"; reg = 1 } |];
        K.Workload.sequential_read ~seg_reg:1 ~pages:2;
        [| K.Workload.Await_ec { ec = "report_out"; value = 1 };
           K.Workload.Initiate { path = home "adams" ^ ">report"; reg = 0 } |];
        K.Workload.sequential_read ~seg_reg:0 ~pages:10;
        K.Workload.file_churn ~dir:(home "blake") ~files:4 ~pages_each:2
          ~seed:7 ]
  in
  let curie =
    session "curie"
      [ [| (* reads down fine *)
           K.Workload.Initiate { path = ">library>manual"; reg = 0 };
           K.Workload.Touch { seg_reg = 0; pageno = 0; offset = 0; write = false };
           (* her own level *)
           K.Workload.Initiate { path = ">intel>briefing"; reg = 1 };
           K.Workload.Touch { seg_reg = 1; pageno = 0; offset = 0; write = true };
           (* write down: refused at creation *)
           K.Workload.Create_file { dir = ">library"; name = "leak" };
           K.Workload.Terminate |] ]
  in
  let darwin =
    session "darwin"
      [ [| K.Workload.Await_ec { ec = "mail_in"; value = 2 } |];
        K.Workload.file_churn ~dir:(home "darwin") ~files:3 ~pages_each:3
          ~seed:3 ]
  in
  (* Mallory's bad password and mail arriving from the net. *)
  (match
     S.Answering_service.login svc ~user:"adams" ~password:"wrong"
       ~program:[| K.Workload.Terminate |]
   with
  | Error `Bad_password -> ()
  | _ -> Alcotest.fail "bad password");
  S.Network.inject net ~net:S.Network.Arpanet ~channel:"mail_in" ~bytes:512
    ~delay_ns:200_000;
  S.Network.inject net ~net:S.Network.Arpanet ~channel:"mail_in" ~bytes:1024
    ~delay_ns:900_000;

  (* The day runs. *)
  check Alcotest.bool "everyone finishes" true (K.Kernel.run_to_completion k);
  List.iter (fun pid -> S.Answering_service.logout svc ~pid)
    [ adams; blake; curie; darwin ];

  (* The books balance. *)
  check Alcotest.int "no failed processes" 0
    (K.User_process.failed (K.Kernel.user_process k));
  check Alcotest.bool "denials were recorded (curie's leak)" true
    (K.Kernel.denials k > 0);
  (match K.Kernel.quota_usage k ~path:">udd>adams" with
  | Some (used, limit) ->
      check Alcotest.bool "adams within quota" true (used <= limit && used >= 10)
  | None -> Alcotest.fail "quota");
  check Alcotest.int "invariants" 0 (List.length (K.Invariants.check k));
  check Alcotest.int "salvager clean" 0 (List.length (K.Salvager.scan k));
  check Alcotest.int "network drained" 2 (S.Network.delivered net);

  (* Night falls; the next incarnation picks up the world. *)
  K.Kernel.shutdown k;
  let k2 = K.Kernel.reboot config ~from:k in
  let blake2 =
    [| K.Workload.Initiate { path = ">udd>adams>report"; reg = 0 };
       K.Workload.Touch { seg_reg = 0; pageno = 9; offset = 0; write = false };
       K.Workload.Terminate |]
  in
  let pid =
    K.Kernel.spawn k2 ~principal:{ K.Acl.user = "blake"; project = "users" }
      ~pname:"blake_next_day" blake2
  in
  check Alcotest.bool "next day runs" true (K.Kernel.run_to_completion k2);
  let p = K.User_process.proc (K.Kernel.user_process k2) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_done -> ()
  | K.User_process.P_failed m -> Alcotest.failf "blake next day failed: %s" m
  | _ -> Alcotest.fail "blake next day stuck");
  check Alcotest.int "second-incarnation invariants" 0
    (List.length (K.Invariants.check k2))

let tests = [ Alcotest.test_case "a full day" `Slow test_full_day ]
