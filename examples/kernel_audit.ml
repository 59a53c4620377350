(* The integrity auditor's view.

   Prints the three dependency structures of the paper (Figures 2-4),
   proves the redesign loop-free, and compares each implementation
   against what its design declares — the executable version of "two
   or more small, expert teams of programmers ... try to understand the
   function of every program statement".  Kernel/Multics is audited
   from its code: every module a lib/core file references, mapped to
   its manager.  The legacy supervisor's managers share modules, so it
   runs a mixed workload and records the shared-data edges it takes.

     dune exec examples/kernel_audit.exe
*)

module K = Multics_kernel
module L = Multics_legacy
module Dg = Multics_depgraph

let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let mixed_load spawn =
  let file_writer dir name pages =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir; name };
           K.Workload.Initiate { path = dir ^ ">" ^ name; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages ]
  in
  spawn "w1" (file_writer ">home" "a" 6);
  spawn "w2" (K.Workload.file_churn ~dir:">home" ~files:4 ~pages_each:2 ~seed:5);
  spawn "w3"
    (K.Workload.concat
       [ [| K.Workload.Await_ec { ec = "go"; value = 1 } |];
         file_writer ">home" "late" 3 ]);
  spawn "w4"
    [| K.Workload.Compute 80_000; K.Workload.Advance_ec { ec = "go" };
       K.Workload.Terminate |]

let () =
  Format.printf "=== The paper's figures ===@.@.";
  List.iter
    (fun g -> Format.printf "%a@." Dg.Render.layered g)
    [ Dg.Figures.fig2_superficial (); Dg.Figures.fig3_actual ();
      Dg.Figures.fig4_redesign () ];
  Format.printf "Why Figure 3 has loops:@.";
  List.iter
    (fun (what, why) -> Format.printf "  %-55s %s@." what why)
    Dg.Figures.fig3_loop_explanations;
  Format.printf "@.How Figure 4 removes them:@.";
  List.iter
    (fun (what, how) -> Format.printf "  %-45s %s@." what how)
    Dg.Figures.fig4_fixes;

  (* ---------------------------------------------------------------- *)
  Format.printf "@.=== Kernel/Multics: declared vs read from the code ===@.@.";
  let declared = K.Registry.declared_graph () in
  Format.printf "%a@." Dg.Render.layered declared;
  Format.printf "%a@." Multics_check.Static_audit.pp
    (Multics_check.Static_audit.lib_core ());

  (* ---------------------------------------------------------------- *)
  Format.printf "@.=== Legacy supervisor: observed vs Figure 2 ===@.@.";
  let s = L.Old_supervisor.boot L.Old_supervisor.default_config in
  L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
  mixed_load (fun pname program ->
      ignore (L.Old_supervisor.spawn s ~pname program));
  ignore (L.Old_supervisor.run_to_completion s);
  let observed = L.Old_supervisor.observed_graph s in
  Format.printf "observed shared-data/call edges:@.%a@." Dg.Render.edge_list
    observed;
  let fig2 = Dg.Figures.fig2_superficial () in
  let undeclared =
    List.filter
      (fun (from, to_, _) -> not (Dg.Graph.mem_edge fig2 ~from ~to_))
      (Dg.Graph.edges observed)
  in
  Format.printf
    "edges beyond the superficial structure (the paper's discoveries):@.";
  List.iter
    (fun (from, to_, _) -> Format.printf "  %s -> %s@." from to_)
    undeclared;

  (* ---------------------------------------------------------------- *)
  Format.printf "@.=== Entry-point census ===@.@.";
  Format.printf "%a@." Multics_census.Report.entry_point_table ();
  let k = K.Kernel.boot K.Kernel.default_config in
  Format.printf "this reproduction's live gates: %d defined, %d user-callable@."
    (K.Gate.registered (K.Kernel.gate k))
    (K.Gate.user_callable (K.Kernel.gate k))
