(* The stored-program machine: programs live in segments and execute
   through real address translation — "the algorithms of M ... are
   contained in objects" made literal. *)

module K = Multics_kernel
module Hw = Multics_hw
module Aim = Multics_aim

let check = Alcotest.check

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

(* ------------------------------------------------------------------ *)
(* Bare-machine semantics: build one wired segment holding code and
   data and single-step it. *)

let bare_machine words =
  let config = { Hw.Hw_config.legacy_multics with Hw.Hw_config.memory_frames = 16 } in
  let machine = Hw.Machine.create config in
  let mem = machine.Hw.Machine.mem in
  (* Page table at 100, one page in frame 4; SDW array at 0; segment 2. *)
  Hw.Ptw.write mem 100 (Hw.Ptw.in_core ~frame:4);
  Hw.Sdw.write_at mem (2 * Hw.Sdw.words)
    (Hw.Sdw.make ~page_table:100 ~length:1 ~read:true ~write:true ~execute:true
       ~r1:7 ~r2:7 ~r3:7);
  List.iteri (fun i w -> Hw.Phys_mem.write mem (Hw.Addr.frame_base 4 + i) w) words;
  let cpu = machine.Hw.Machine.cpus.(0) in
  Hw.Cpu.load_user_dbr cpu (Some { Hw.Cpu.base = 0; n_segments = 4 });
  (config, mem, cpu)

let run_to_halt config mem cpu state =
  let rec loop n =
    if n > 1000 then Alcotest.fail "runaway program"
    else
      match Hw.Isa.step config mem cpu state with
      | Hw.Isa.Ok _ -> loop (n + 1)
      | Hw.Isa.Halt _ -> ()
      | Hw.Isa.Fault f -> Alcotest.failf "fault: %s" (Hw.Fault.to_string f)
      | Hw.Isa.Illegal msg -> Alcotest.failf "illegal: %s" msg
  in
  loop 0

let test_isa_arithmetic () =
  (* data at words 20..23; code at 0: acc := d20 + d21 - d22 -> d23 *)
  let code =
    Hw.Isa.assemble
      [ (Hw.Isa.LDA, 2, 20); (Hw.Isa.ADD, 2, 21); (Hw.Isa.SUB, 2, 22);
        (Hw.Isa.STA, 2, 23); (Hw.Isa.HLT, 0, 0) ]
  in
  let image = code @ [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
                       100; 42; 30; 0 ] in
  (* words: 0-4 code, 5-19 zeros, 20=100 21=42 22=30 23=0 *)
  let config, mem, cpu = bare_machine image in
  let state = Hw.Isa.init ~segno:2 ~entry:0 in
  run_to_halt config mem cpu state;
  check Alcotest.int "100+42-30" 112 (Hw.Phys_mem.read mem (Hw.Addr.frame_base 4 + 23));
  check Alcotest.int "five instructions" 5 state.Hw.Isa.steps

let test_isa_loop () =
  (* counter := 5 (LDI); loop: AOS d30; LDA counter; SUB one; STA; TNZ *)
  let code =
    Hw.Isa.assemble
      [ (Hw.Isa.LDI, 0, 5); (Hw.Isa.STA, 2, 31);  (* counter at 31 *)
        (* loop body at 2: *)
        (Hw.Isa.AOS, 2, 30); (Hw.Isa.LDA, 2, 31); (Hw.Isa.SUB, 2, 32);
        (Hw.Isa.STA, 2, 31); (Hw.Isa.TNZ, 2, 2); (Hw.Isa.HLT, 0, 0) ]
  in
  let image =
    code
    @ List.init 22 (fun _ -> 0)  (* words 8..29 *)
    @ [ 0; 0; 1 ]  (* 30: sum; 31: counter; 32: constant one *)
  in
  let config, mem, cpu = bare_machine image in
  let state = Hw.Isa.init ~segno:2 ~entry:0 in
  run_to_halt config mem cpu state;
  check Alcotest.int "looped five times" 5
    (Hw.Phys_mem.read mem (Hw.Addr.frame_base 4 + 30))

let test_isa_illegal_opcode () =
  let config, mem, cpu = bare_machine [ Hw.Word.insert 0 ~pos:30 ~len:6 33 ] in
  let state = Hw.Isa.init ~segno:2 ~entry:0 in
  match Hw.Isa.step config mem cpu state with
  | Hw.Isa.Illegal msg ->
      check Alcotest.bool "names the opcode" true
        (Astring.String.is_infix ~affix:"33" msg)
  | _ -> Alcotest.fail "expected illegal"

let test_isa_faults_surface () =
  let config, mem, cpu = bare_machine (Hw.Isa.assemble [ (Hw.Isa.LDA, 3, 0) ]) in
  let state = Hw.Isa.init ~segno:2 ~entry:0 in
  match Hw.Isa.step config mem cpu state with
  | Hw.Isa.Fault (Hw.Fault.Missing_segment { segno = 3 }) -> ()
  | _ -> Alcotest.fail "operand in a missing segment must fault"

(* ------------------------------------------------------------------ *)
(* End to end: a user process executes code stored in a file, with the
   kernel demand-paging both the code and the data. *)

let test_stored_program_end_to_end () =
  let k = K.Kernel.boot K.Kernel.small_config in
  K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>data" ~acl:open_acl ~label:low;
  K.Kernel.create_file k ~path:">home>summer" ~acl:open_acl ~label:low;
  (* The process will initiate data first (segno 64) then code (65):
     segment numbers are assigned in initiation order from the split. *)
  let data_segno = 64 in
  let program =
    Hw.Isa.assemble
      [ (Hw.Isa.LDI, 0, 0);
        (Hw.Isa.ADD, data_segno, 0); (Hw.Isa.ADD, data_segno, 1);
        (Hw.Isa.ADD, data_segno, 2); (Hw.Isa.ADD, data_segno, 3);
        (Hw.Isa.ADD, data_segno, 4);
        (Hw.Isa.STA, data_segno, 10);
        (Hw.Isa.HLT, 0, 0) ]
  in
  K.Kernel.load_program k ~path:">home>summer" program;
  (* Seed the data: 1..5 in words 0..4 (page 0) — done by a setup
     process writing through the normal path would clobber offsets, so
     the administrator seeds it directly. *)
  let seed path values =
    let target =
      match
        K.Name_space.initiate (K.Kernel.name_space k)
          ~subject:K.Kernel.root_subject ~ring:1 ~path
      with
      | Ok target -> target
      | Error _ -> Alcotest.fail "initiate"
    in
    let slot =
      match
        K.Segment.activate (K.Kernel.segment k)
          ~uid:target.K.Directory.t_uid ~cell:target.K.Directory.t_cell
      with
      | Ok slot -> slot
      | Error _ -> Alcotest.fail "activate"
    in
    List.iteri
      (fun i v ->
        match
          K.Segment.write_word (K.Kernel.segment k) ~slot ~pageno:0 ~offset:i v
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "seed write")
      values;
    (target, slot)
  in
  let data_target, _ = seed ">home>data" [ 1; 2; 3; 4; 5 ] in
  (* Force everything out of the AST and memory so execution pages it
     all back in through faults. *)
  List.iter
    (fun slot -> K.Segment.deactivate (K.Kernel.segment k) ~slot)
    (K.Segment.active_slots (K.Kernel.segment k));
  let runner =
    [| K.Workload.Initiate { path = ">home>data"; reg = 0 };
       K.Workload.Initiate { path = ">home>summer"; reg = 1 };
       K.Workload.Execute { seg_reg = 1; entry = 0 };
       K.Workload.Terminate |]
  in
  let pid = K.Kernel.spawn k ~pname:"summer" runner in
  check Alcotest.bool "completes" true (K.Kernel.run_to_completion k);
  let p = K.User_process.proc (K.Kernel.user_process k) pid in
  (match p.K.User_process.pstate with
  | K.User_process.P_done -> ()
  | K.User_process.P_failed m -> Alcotest.failf "program failed: %s" m
  | _ -> Alcotest.fail "stuck");
  (* The code really was demand-paged. *)
  check Alcotest.bool "page reads happened" true
    (K.Page_frame.page_reads (K.Kernel.page_frame k) > 0);
  (* And the sum landed in the data segment. *)
  let slot =
    match
      K.Segment.activate (K.Kernel.segment k)
        ~uid:data_target.K.Directory.t_uid ~cell:data_target.K.Directory.t_cell
    with
    | Ok slot -> slot
    | Error _ -> Alcotest.fail "re-activate data"
  in
  match
    K.Segment.read_word (K.Kernel.segment k) ~slot ~pageno:0 ~offset:10
  with
  | Ok sum -> check Alcotest.int "1+2+3+4+5" 15 sum
  | Error _ -> Alcotest.fail "read sum"

let prop_encode_fields =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"isa encode preserves fields" ~count:200
       QCheck.(pair (int_bound 511) (int_bound ((1 lsl 18) - 1)))
       (fun (segno, wordno) ->
         let w = Hw.Isa.encode Hw.Isa.LDA ~segno ~wordno () in
         Hw.Word.extract w ~pos:21 ~len:9 = segno
         && Hw.Word.extract w ~pos:0 ~len:18 = wordno
         && Hw.Word.extract w ~pos:30 ~len:6 = 1))

let test_legacy_refuses_execute () =
  let module L = Multics_legacy in
  let s = L.Old_supervisor.boot L.Old_supervisor.small_config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  let pid =
    L.Old_supervisor.spawn s ~pname:"p"
      [| K.Workload.Execute { seg_reg = 0; entry = 0 }; K.Workload.Terminate |]
  in
  assert (L.Old_supervisor.run_to_completion s);
  match L.Old_supervisor.proc_state s pid with
  | L.Old_types.O_failed _ -> ()
  | _ -> Alcotest.fail "legacy model must refuse machine code cleanly"

let tests =
  [ Alcotest.test_case "isa arithmetic" `Quick test_isa_arithmetic;
    prop_encode_fields;
    Alcotest.test_case "legacy refuses execute" `Quick
      test_legacy_refuses_execute;
    Alcotest.test_case "isa loop" `Quick test_isa_loop;
    Alcotest.test_case "isa illegal opcode" `Quick test_isa_illegal_opcode;
    Alcotest.test_case "isa faults surface" `Quick test_isa_faults_surface;
    Alcotest.test_case "stored program end to end" `Quick
      test_stored_program_end_to_end ]
