(* The domain run-farm and its determinism contract.

   Three layers of claims, each a test:

     - [Par.run] itself: results land by task index, identical at any
       domain count; an exception surfaces from the lowest-index
       failing task; degenerate shapes (zero tasks, more domains than
       tasks) behave.
     - kernels are self-contained: two kernels booted and run on
       concurrent domains finish with exactly the state each reaches
       when run alone — no shared mutable tables bleed between them.
     - the explorer on top: [check_random] and [check_dfs] produce
       byte-identical outcomes (stats, violations, shrunk script, seed)
       at [domains:1] and [domains:4], on both the toy lost-wakeup
       harness and the real ping-pong kernel. *)

module K = Multics_kernel
module Check = Multics_check
module Par = Multics_par.Par
module Explore = Multics_check.Explore

let outcome_bytes o = Format.asprintf "%a" Explore.pp_outcome o

(* --- Par.run ------------------------------------------------------ *)

let test_run_deterministic () =
  let f i = (i * 31) lxor (i lsl 3) in
  let reference = Array.init 37 f in
  List.iter
    (fun domains ->
      let got = Par.run ~domains ~tasks:37 f in
      Alcotest.(check (array int))
        (Printf.sprintf "37 tasks at %d domains" domains)
        reference got)
    [ 1; 2; 4; 8; 37; 64 ]

let test_run_degenerate () =
  Alcotest.(check (array int)) "zero tasks" [||] (Par.run ~domains:4 ~tasks:0 Fun.id);
  Alcotest.(check (array int))
    "one task, many domains" [| 7 |]
    (Par.run ~domains:8 ~tasks:1 (fun _ -> 7))

exception Task_failed of int

let test_run_lowest_exception () =
  (* Tasks 3 and 9 both raise; the farm must re-raise task 3's. *)
  List.iter
    (fun domains ->
      let raised =
        try
          ignore
            (Par.run ~domains ~tasks:12 (fun i ->
                 if i = 3 || i = 9 then raise (Task_failed i) else i));
          None
        with Task_failed i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "lowest failing index at %d domains" domains)
        (Some 3) raised)
    [ 1; 2; 4 ]

(* --- kernel self-containment -------------------------------------- *)

let writer_workload ~pages =
  K.Workload.concat
    [ [| K.Workload.Create_file { dir = ">home"; name = "f" };
         K.Workload.Initiate { path = ">home>f"; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages ]

(* Boot a kernel, run a writer of [pages] pages to completion, and
   return every cheap fingerprint of where it ended up. *)
let kernel_fingerprint pages =
  let k = K.Kernel.boot K.Kernel.small_config in
  ignore (K.Kernel.spawn k ~pname:"w" (writer_workload ~pages));
  let ok = K.Kernel.run_to_completion k in
  let pf = K.Kernel.page_frame k in
  ( ok,
    K.Kernel.now k,
    K.Page_frame.faults_served pf,
    K.Page_frame.page_reads pf )

let test_kernels_self_contained () =
  (* Reference: each workload run alone, sequentially. *)
  let solo = Array.init 4 (fun i -> kernel_fingerprint (4 + (2 * i))) in
  (* The same four workloads booted on concurrent domains. *)
  let farmed =
    Par.run ~domains:4 ~tasks:4 (fun i -> kernel_fingerprint (4 + (2 * i)))
  in
  Array.iteri
    (fun i (ok, now, faults, reads) ->
      let ok', now', faults', reads' = farmed.(i) in
      Alcotest.(check bool) "completes" ok ok';
      Alcotest.(check int) (Printf.sprintf "kernel %d clock" i) now now';
      Alcotest.(check int) (Printf.sprintf "kernel %d faults" i) faults faults';
      Alcotest.(check int) (Printf.sprintf "kernel %d reads" i) reads reads')
    solo

(* --- the explorer across domain counts ---------------------------- *)

let check_outcomes_equal name o1 o4 =
  Alcotest.(check string) (name ^ " rendered bytes") (outcome_bytes o1)
    (outcome_bytes o4);
  match (o1, o4) with
  | Explore.Passed s1, Explore.Passed s4 ->
      Alcotest.(check int) (name ^ " runs") s1.Explore.runs s4.Explore.runs;
      Alcotest.(check int)
        (name ^ " distinct") s1.Explore.distinct s4.Explore.distinct;
      Alcotest.(check int)
        (name ^ " decisions") s1.Explore.decisions s4.Explore.decisions
  | ( Explore.Failed { f_problems = p1; f_script = s1; f_seed = d1; _ },
      Explore.Failed { f_problems = p4; f_script = s4; f_seed = d4; _ } ) ->
      Alcotest.(check (list string)) (name ^ " problems") p1 p4;
      Alcotest.(check (list int)) (name ^ " script") s1 s4;
      Alcotest.(check (option int)) (name ^ " seed") d1 d4
  | _ -> Alcotest.fail (name ^ ": pass/fail verdict differs across domains")

let test_random_toy_deterministic () =
  let sys () = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  let o1 = Explore.check_random ~domains:1 ~runs:40 (sys ()) in
  let o4 = Explore.check_random ~domains:4 ~runs:40 (sys ()) in
  (match o1 with
  | Explore.Failed _ -> ()
  | Explore.Passed _ -> Alcotest.fail "expected the seeded bug to surface");
  check_outcomes_equal "random/toy" o1 o4

let test_random_kernel_deterministic () =
  let sys () = Check.Harness.kernel_system () in
  let o1 = Explore.check_random ~domains:1 ~runs:10 (sys ()) in
  let o4 = Explore.check_random ~domains:4 ~runs:10 (sys ()) in
  (match o1 with
  | Explore.Passed _ -> ()
  | Explore.Failed _ -> Alcotest.fail "ping-pong kernel failed the oracle");
  check_outcomes_equal "random/kernel" o1 o4

let test_dfs_toy_deterministic () =
  let buggy () = Check.Harness.eventcount_system ~bug:true ~events:2 () in
  let o1 = Explore.check_dfs ~domains:1 ~max_runs:200 (buggy ()) in
  let o4 = Explore.check_dfs ~domains:4 ~max_runs:200 (buggy ()) in
  check_outcomes_equal "dfs/buggy-toy" o1 o4;
  let clean () = Check.Harness.eventcount_system ~events:3 () in
  let c1 = Explore.check_dfs ~domains:1 ~max_runs:400 (clean ()) in
  let c4 = Explore.check_dfs ~domains:4 ~max_runs:400 (clean ()) in
  check_outcomes_equal "dfs/clean-toy" c1 c4

let test_dfs_kernel_deterministic () =
  let sys () = Check.Harness.kernel_system () in
  let o1 = Explore.check_dfs ~domains:1 ~max_runs:16 (sys ()) in
  let o4 = Explore.check_dfs ~domains:4 ~max_runs:16 (sys ()) in
  check_outcomes_equal "dfs/kernel" o1 o4

let tests =
  [ Alcotest.test_case "run: identical across domain counts" `Quick
      test_run_deterministic;
    Alcotest.test_case "run: degenerate shapes" `Quick test_run_degenerate;
    Alcotest.test_case "run: lowest-index exception wins" `Quick
      test_run_lowest_exception;
    Alcotest.test_case "kernels self-contained across domains" `Quick
      test_kernels_self_contained;
    Alcotest.test_case "check_random toy: domains 1 = 4" `Quick
      test_random_toy_deterministic;
    Alcotest.test_case "check_random kernel: domains 1 = 4" `Quick
      test_random_kernel_deterministic;
    Alcotest.test_case "check_dfs toy: domains 1 = 4" `Quick
      test_dfs_toy_deterministic;
    Alcotest.test_case "check_dfs kernel: domains 1 = 4" `Quick
      test_dfs_kernel_deterministic ]
