(* Tests for the extraction-experiment services. *)

module K = Multics_kernel
module S = Multics_services
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let secret = Aim.Label.make Aim.Level.secret Aim.Compartment.empty
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let boot_kernel () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">lib" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">lib>std" ~acl:open_acl ~label:low;
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">lib>std>sqrt_" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>my_tool_" ~acl:open_acl ~label:low;
  k

(* ------------------------------------------------------------------ *)
(* Password *)

let test_password_verify () =
  let h = S.Password.hash ~salt:"alice" "open sesame" in
  check Alcotest.bool "accepts" true (S.Password.verify h "open sesame");
  check Alcotest.bool "rejects" false (S.Password.verify h "open says me")

let prop_password_distinct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"distinct passwords hash differently" ~count:100
       QCheck.(pair (string_of_size (QCheck.Gen.return 8)) (string_of_size (QCheck.Gen.return 8)))
       (fun (a, b) ->
         QCheck.assume (a <> b);
         let h = S.Password.hash ~salt:"s" a in
         not (S.Password.verify h b)))

(* Stored digests must never move: the hash folds each round in place,
   and this reference builds each round's string as the hash always
   has, so the two spellings of the function must agree bit for bit. *)
let reference_digest ~salt password =
  let fnv1a input =
    let h = ref 0x3f29ce484222325 in
    String.iter
      (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3 land max_int)
      input;
    !h
  in
  let rec iterate digest n =
    if n = 0 then digest
    else iterate (fnv1a (salt ^ string_of_int digest ^ password)) (n - 1)
  in
  Printf.sprintf "%s$%x" salt (iterate (fnv1a (salt ^ password)) 64)

let test_password_digests_pinned () =
  let rng = Random.State.make [| 1977 |] in
  let gen_string alphabet =
    String.init (Random.State.int rng 13) (fun _ -> alphabet rng)
  in
  let any_byte rng = Char.chr (Random.State.int rng 256) in
  let high_byte rng = Char.chr (128 + Random.State.int rng 128) in
  let digit rng = Char.chr (48 + Random.State.int rng 10) in
  let alphabets = [| any_byte; high_byte; digit |] in
  let cases =
    List.init 3000 (fun i ->
        let salt = gen_string alphabets.(i mod 3) in
        let password = gen_string alphabets.(i / 3 mod 3) in
        match i mod 10 with
        | 0 -> ("", password)
        | 1 -> (salt, "")
        | 2 -> ("", "")
        | _ -> (salt, password))
  in
  List.iter
    (fun (salt, password) ->
      let got = S.Password.to_string (S.Password.hash ~salt password) in
      let want = reference_digest ~salt password in
      if got <> want then
        Alcotest.failf "salt %S password %S: %s, reference %s" salt password
          got want)
    cases;
  check Alcotest.string "fixed digest" "alice$1b34b0ed82ab73c9"
    (S.Password.to_string (S.Password.hash ~salt:"alice" "open sesame"));
  check Alcotest.string "empty digest" "$3542a9787d835f54"
    (S.Password.to_string (S.Password.hash ~salt:"" ""))

(* ------------------------------------------------------------------ *)
(* Linker *)

let user_subject =
  { K.Directory.s_principal = { K.Acl.user = "user"; project = "proj" };
    s_label = low; s_trusted = false }

let rules = [ ">home"; ">lib>std" ]

let test_linker_resolves () =
  let k = boot_kernel () in
  List.iter
    (fun placement ->
      let linker = S.Linker.create ~kernel:k ~placement in
      (match
         S.Linker.resolve linker ~subject:user_subject ~ring:5 ~symbol:"sqrt_"
           ~search_rules:rules
       with
      | Ok (_, dir) -> check Alcotest.string "found in lib" ">lib>std" dir
      | Error `Unresolved -> Alcotest.fail "sqrt_ resolvable");
      (match
         S.Linker.resolve linker ~subject:user_subject ~ring:5
           ~symbol:"my_tool_" ~search_rules:rules
       with
      | Ok (_, dir) -> check Alcotest.string "home first" ">home" dir
      | Error `Unresolved -> Alcotest.fail "my_tool_ resolvable");
      (match
         S.Linker.resolve linker ~subject:user_subject ~ring:5
           ~symbol:"no_such_" ~search_rules:rules
       with
      | Error `Unresolved -> ()
      | Ok _ -> Alcotest.fail "must not resolve");
      check Alcotest.bool "cache knows sqrt_" true
        (S.Linker.snap_cache_lookup linker ~symbol:"sqrt_"))
    [ S.Linker.In_kernel; S.Linker.User_ring ]

let test_linker_crossings () =
  let k = boot_kernel () in
  let in_kernel = S.Linker.create ~kernel:k ~placement:S.Linker.In_kernel in
  ignore
    (S.Linker.resolve in_kernel ~subject:user_subject ~ring:5 ~symbol:"sqrt_"
       ~search_rules:rules);
  check Alcotest.int "no crossings in kernel" 0
    (S.Linker.gate_crossings in_kernel);
  let user_ring = S.Linker.create ~kernel:k ~placement:S.Linker.User_ring in
  ignore
    (S.Linker.resolve user_ring ~subject:user_subject ~ring:5 ~symbol:"sqrt_"
       ~search_rules:rules);
  check Alcotest.bool "crossings in user ring" true
    (S.Linker.gate_crossings user_ring > 0)

(* The extracted linker is slower per link — the paper's observation.
   Measured with the pathname cache off: the cache (added later) lets
   the user-ring walker skip most search gate crossings, which is the
   fix for this penalty, not part of the penalty being measured. *)
let test_linker_user_ring_slower () =
  let time placement =
    let k =
      K.Kernel.boot { K.Kernel.small_config with use_path_cache = false }
    in
    K.Kernel.mkdir k ~path:">lib" ~acl:open_acl ~label:low;
    K.Kernel.mkdir k ~path:">lib>std" ~acl:open_acl ~label:low;
    K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
    K.Kernel.create_file k ~path:">lib>std>sqrt_" ~acl:open_acl ~label:low;
    K.Kernel.create_file k ~path:">home>my_tool_" ~acl:open_acl ~label:low;
    let before = K.Meter.total (K.Kernel.meter k) in
    let linker = S.Linker.create ~kernel:k ~placement in
    for i = 0 to 19 do
      ignore
        (S.Linker.resolve linker ~subject:user_subject ~ring:5
           ~symbol:(if i mod 2 = 0 then "sqrt_" else "my_tool_")
           ~search_rules:rules)
    done;
    K.Meter.total (K.Kernel.meter k) - before
  in
  let ik = time S.Linker.In_kernel and ur = time S.Linker.User_ring in
  check Alcotest.bool
    (Printf.sprintf "user-ring (%d) slower than in-kernel (%d)" ur ik)
    true (ur > ik);
  (* ...but not catastrophically: well under 2x. *)
  check Alcotest.bool "within 2x" true (float_of_int ur /. float_of_int ik < 2.0)

(* ------------------------------------------------------------------ *)
(* Answering Service *)

let idle_program = [| K.Workload.Compute 1_000; K.Workload.Terminate |]

let test_answering_service_login () =
  let k = boot_kernel () in
  let svc = S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split in
  S.Answering_service.register_user svc ~user:"alice" ~password:"pw1" ~clearance:low;
  S.Answering_service.register_user svc ~user:"carol" ~password:"pw2"
    ~clearance:secret;
  (match S.Answering_service.login svc ~user:"alice" ~password:"pw1"
           ~program:idle_program with
  | Ok pid ->
      let p = K.User_process.proc (K.Kernel.user_process k) pid in
      check Alcotest.string "principal" "alice"
        p.K.User_process.principal.K.Acl.user;
      check Alcotest.bool "label low" true
        (Aim.Label.equal p.K.User_process.label low)
  | Error _ -> Alcotest.fail "login should succeed");
  (match S.Answering_service.login svc ~user:"carol" ~password:"pw2"
           ~program:idle_program with
  | Ok pid ->
      let p = K.User_process.proc (K.Kernel.user_process k) pid in
      check Alcotest.bool "label secret" true
        (Aim.Label.equal p.K.User_process.label secret)
  | Error _ -> Alcotest.fail "carol should log in");
  (match S.Answering_service.login svc ~user:"alice" ~password:"wrong"
           ~program:idle_program with
  | Error `Bad_password -> ()
  | _ -> Alcotest.fail "bad password must fail");
  (match S.Answering_service.login svc ~user:"mallory" ~password:"x"
           ~program:idle_program with
  | Error `No_such_user -> ()
  | _ -> Alcotest.fail "unknown user must fail");
  check Alcotest.int "logins" 2 (S.Answering_service.logins svc);
  check Alcotest.int "failures" 2 (S.Answering_service.failures svc);
  ignore (K.Kernel.run_to_completion k);
  let acct = S.Answering_service.accounting svc in
  check Alcotest.int "alice logged in once" 1
    (S.Accounting.record_for acct ~user:"alice").S.Accounting.logins

(* The split service is slightly slower (~3%), and much smaller. *)
let test_split_three_percent () =
  let time variant =
    let k = boot_kernel () in
    let svc = S.Answering_service.create ~kernel:k ~variant in
    S.Answering_service.register_user svc ~user:"alice" ~password:"pw"
      ~clearance:low;
    let before = K.Meter.total (K.Kernel.meter k) in
    for _ = 1 to 20 do
      match
        S.Answering_service.login svc ~user:"alice" ~password:"pw"
          ~program:idle_program
      with
      | Ok pid ->
          (* Let the session run so the process is reaped. *)
          ignore (K.Kernel.run_to_completion k);
          S.Answering_service.logout svc ~pid
      | Error _ -> Alcotest.fail "login"
    done;
    K.Meter.total (K.Kernel.meter k) - before
  in
  let mono = time S.Answering_service.Monolithic in
  let split = time S.Answering_service.Split in
  let overhead = 100.0 *. float_of_int (split - mono) /. float_of_int mono in
  check Alcotest.bool
    (Printf.sprintf "split slower by ~3%% (got %.1f%%)" overhead)
    true
    (overhead > 0.5 && overhead < 8.0);
  let k = boot_kernel () in
  check Alcotest.int "monolith trusts 10000 lines" 10_000
    (S.Answering_service.trusted_lines
       (S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Monolithic));
  check Alcotest.int "split trusts 900 lines" 900
    (S.Answering_service.trusted_lines
       (S.Answering_service.create ~kernel:k ~variant:S.Answering_service.Split))

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_delivery_wakes_process () =
  let k = boot_kernel () in
  let net = S.Network.create ~kernel:k ~variant:S.Network.Generic_demux in
  S.Network.attach_channel net ~net:S.Network.Arpanet ~channel:"net.telnet.7";
  (* A server process awaits traffic on the channel eventcount. *)
  let server =
    [| K.Workload.Await_ec { ec = "net.telnet.7"; value = 1 };
       K.Workload.Compute 2_000;
       K.Workload.Await_ec { ec = "net.telnet.7"; value = 2 };
       K.Workload.Terminate |]
  in
  let pid = K.Kernel.spawn k ~pname:"server" server in
  S.Network.inject net ~net:S.Network.Arpanet ~channel:"net.telnet.7"
    ~bytes:512 ~delay_ns:50_000;
  S.Network.inject net ~net:S.Network.Arpanet ~channel:"net.telnet.7"
    ~bytes:1024 ~delay_ns:400_000;
  check Alcotest.bool "completes" true (K.Kernel.run_to_completion k);
  check Alcotest.int "both delivered" 2 (S.Network.delivered net);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_done -> ()
  | _ -> Alcotest.fail "server must finish")

let test_network_placement_split () =
  let run variant =
    let k = boot_kernel () in
    let net = S.Network.create ~kernel:k ~variant in
    S.Network.attach_channel net ~net:S.Network.Arpanet ~channel:"c1";
    S.Network.attach_channel net ~net:S.Network.Front_end ~channel:"tty01";
    for i = 0 to 9 do
      S.Network.inject net ~net:S.Network.Arpanet ~channel:"c1" ~bytes:512
        ~delay_ns:(1000 * i);
      S.Network.inject net ~net:S.Network.Front_end ~channel:"tty01" ~bytes:64
        ~delay_ns:(1500 * i)
    done;
    K.Kernel.run k;
    net
  in
  let old_style = run S.Network.Per_network_in_kernel in
  check Alcotest.int "all kernel" 0 (S.Network.user_protocol_ns old_style);
  check Alcotest.bool "kernel protocol time" true
    (S.Network.kernel_protocol_ns old_style > 0);
  let new_style = run S.Network.Generic_demux in
  check Alcotest.bool "user protocol time" true
    (S.Network.user_protocol_ns new_style > 0);
  check Alcotest.bool "kernel share shrinks" true
    (S.Network.kernel_protocol_ns new_style
     < S.Network.kernel_protocol_ns old_style);
  (* Kernel bulk: linear vs nearly flat. *)
  check Alcotest.int "old, 2 nets" 7_000
    (S.Network.kernel_lines old_style ~networks:2);
  check Alcotest.int "old, 3 nets" 10_500
    (S.Network.kernel_lines old_style ~networks:3);
  check Alcotest.bool "new under 1000 at 2 nets" true
    (S.Network.kernel_lines new_style ~networks:2 < 1_000);
  check Alcotest.bool "new grows only slightly" true
    (S.Network.kernel_lines new_style ~networks:3
     - S.Network.kernel_lines new_style ~networks:2
     < 100)

(* ------------------------------------------------------------------ *)
(* Initialisation *)

let test_init_previous_incarnation () =
  let old_boot = S.Init_service.run S.Init_service.In_kernel in
  let new_boot = S.Init_service.run S.Init_service.Previous_incarnation in
  check Alcotest.int "same steps" old_boot.S.Init_service.steps_run
    new_boot.S.Init_service.steps_run;
  check Alcotest.bool "boot-time kernel work shrinks" true
    (new_boot.S.Init_service.boot_kernel_ns * 5
     < old_boot.S.Init_service.boot_kernel_ns);
  check Alcotest.bool "work moved, not lost" true
    (new_boot.S.Init_service.prior_user_ns
     >= old_boot.S.Init_service.boot_kernel_ns);
  check Alcotest.int "old kernel lines" 2_100
    old_boot.S.Init_service.kernel_lines;
  check Alcotest.bool "new kernel lines small" true
    (new_boot.S.Init_service.kernel_lines < 500)

let tests =
  [ Alcotest.test_case "password verify" `Quick test_password_verify;
    Alcotest.test_case "password digests pinned" `Quick
      test_password_digests_pinned;
    prop_password_distinct;
    Alcotest.test_case "linker resolves" `Quick test_linker_resolves;
    Alcotest.test_case "linker crossings" `Quick test_linker_crossings;
    Alcotest.test_case "linker user-ring slower" `Quick
      test_linker_user_ring_slower;
    Alcotest.test_case "answering service login" `Quick
      test_answering_service_login;
    Alcotest.test_case "split ~3% slower" `Quick test_split_three_percent;
    Alcotest.test_case "network delivery wakes process" `Quick
      test_network_delivery_wakes_process;
    Alcotest.test_case "network placement split" `Quick
      test_network_placement_split;
    Alcotest.test_case "init previous incarnation" `Quick
      test_init_previous_incarnation ]
