(* F2/F3/F4: regenerate the dependency-structure figures, prove the
   redesign loop-free, and audit both kernels against them: the legacy
   supervisor by the edges a run takes, Kernel/Multics from its code. *)

module K = Multics_kernel
module L = Multics_legacy
module Dg = Multics_depgraph

let mixed_load spawn =
  spawn "writer" (Bench_util.file_writer ~dir:">home" ~name:"a" ~pages:6);
  spawn "churn" (K.Workload.file_churn ~dir:">home" ~files:4 ~pages_each:2 ~seed:5);
  spawn "late"
    (K.Workload.concat
       [ [| K.Workload.Await_ec { ec = "go"; value = 1 } |];
         Bench_util.file_writer ~dir:">home" ~name:"late" ~pages:3 ]);
  spawn "poker"
    [| K.Workload.Compute 80_000; K.Workload.Advance_ec { ec = "go" };
       K.Workload.Terminate |]

let fig1 () =
  Bench_util.section "F1" "Figure 1: the project plan (descriptive)";
  List.iter
    (fun (box, here) -> Format.printf "  (%s) %-47s -> %s@." (fst box) (snd box) here)
    [ (("1", "add the Access Isolation Mechanism to Multics"),
       "lib/aim, enforced by lib/core");
      (("2", "install for practical experience with AIM"),
       "the secure_timesharing example");
      (("3", "experiment with alternative internal structures"),
       "lib/core vs lib/legacy, this harness");
      (("4", "devise formal specifications"),
       "declared dependency graphs + invariant checker");
      (("5", "implement Kernel/Multics"), "lib/core");
      (("6", "certify compliance"),
       "conformance audit, invariants, salvager, tiger team") ];
  Format.printf
    "  (The Air Force suspended the original project with boxes 1-3 \
     complete; this reproduction gets to run all six.)@."

let fig2 () =
  Bench_util.section "F2" "Figure 2: superficial dependency structure";
  let g = Dg.Figures.fig2_superficial () in
  Format.printf "%a@." Dg.Render.layered g;
  Format.printf
    "\"The obvious exception to a linear structure is the circular \
     dependency of the processor multiplexing facilities and the virtual \
     memory mechanism.\"@."

let fig3 () =
  Bench_util.section "F3" "Figure 3: actual dependency structure";
  let g = Dg.Figures.fig3_actual () in
  Format.printf "%a@." Dg.Render.layered g;
  Format.printf "Causes, as catalogued by the paper:@.";
  List.iter
    (fun (what, why) -> Format.printf "  %-52s %s@.@." what why)
    Dg.Figures.fig3_loop_explanations;
  (* The legacy implementation rediscovers these edges at runtime. *)
  let s = Bench_util.boot_old () in
  L.Old_supervisor.set_quota s ~path:">home" ~limit:256;
  mixed_load (fun pname program ->
      ignore (L.Old_supervisor.spawn s ~pname program));
  ignore (L.Old_supervisor.run_to_completion s);
  let observed = L.Old_supervisor.observed_graph s in
  let fig2 = Dg.Figures.fig2_superficial () in
  Format.printf
    "running the legacy supervisor and tracing shared-data access finds the \
     same extra edges:@.";
  List.iter
    (fun (from, to_, _) ->
      if not (Dg.Graph.mem_edge fig2 ~from ~to_) then
        Format.printf "  observed: %s -> %s@." from to_)
    (Dg.Graph.edges observed)

let fig4 () =
  Bench_util.section "F4" "Figure 4: the redesigned loop-free structure";
  let g = Dg.Figures.fig4_redesign () in
  Format.printf "%a@." Dg.Render.layered g;
  Format.printf "The redesign mechanisms:@.";
  List.iter
    (fun (what, how) -> Format.printf "  %-45s %s@.@." what how)
    Dg.Figures.fig4_fixes;
  (* This repository's implementation, declared and read from the
     code. *)
  let declared = K.Registry.declared_graph () in
  Format.printf "this reproduction's declared implementation graph:@.";
  Format.printf "%a@." Dg.Render.layered declared;
  let audit = Multics_check.Static_audit.lib_core () in
  Format.printf "%a@." Multics_check.Static_audit.pp audit;
  if not (Multics_check.Static_audit.ok audit) then
    failwith "F4: lib/core's code breaks its declared dependency graph"

let run () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ()
