(* multics_sim: command-line front end to the simulator.

     dune exec bin/multics_sim.exe -- boot
     dune exec bin/multics_sim.exe -- run --kernel new --workload churn
     dune exec bin/multics_sim.exe -- run --kernel legacy --frames 40
     dune exec bin/multics_sim.exe -- audit   (figures, declared graph,
                                              static audit of lib/core)
     dune exec bin/multics_sim.exe -- census
*)

module K = Multics_kernel
module L = Multics_legacy
module Dg = Multics_depgraph
module Aim = Multics_aim
open Cmdliner

let low = Aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

let file_writer ~dir ~name ~pages =
  K.Workload.concat
    [ [| K.Workload.Create_file { dir; name };
         K.Workload.Initiate { path = dir ^ ">" ^ name; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages ]

let workload_of_name = function
  | "writer" ->
      [ ("writer", file_writer ~dir:">home" ~name:"data" ~pages:8) ]
  | "churn" ->
      [ ("churn", K.Workload.file_churn ~dir:">home" ~files:6 ~pages_each:2 ~seed:3) ]
  | "thrash" ->
      [ ("t1",
         K.Workload.concat
           [ file_writer ~dir:">home" ~name:"big1" ~pages:14;
             K.Workload.random_touches ~seg_reg:0 ~pages:14 ~count:200
               ~write_pct:50 ~seed:1 ]);
        ("t2",
         K.Workload.concat
           [ file_writer ~dir:">home" ~name:"big2" ~pages:14;
             K.Workload.random_touches ~seg_reg:0 ~pages:14 ~count:200
               ~write_pct:50 ~seed:2 ]) ]
  | "ipc" ->
      [ ("waiter",
         [| K.Workload.Await_ec { ec = "ping"; value = 1 };
            K.Workload.Advance_ec { ec = "pong" }; K.Workload.Terminate |]);
        ("pinger",
         [| K.Workload.Compute 50_000; K.Workload.Advance_ec { ec = "ping" };
            K.Workload.Await_ec { ec = "pong"; value = 1 };
            K.Workload.Terminate |]) ]
  | name -> failwith ("unknown workload: " ^ name ^ " (writer|churn|thrash|ipc)")

(* ------------------------------------------------------------------ *)

let frames_arg =
  let doc = "Primary memory size in page frames." in
  Arg.(value & opt int 256 & info [ "frames" ] ~doc)

let kernel_arg =
  let doc = "Which kernel: $(b,new) (Kernel/Multics) or $(b,legacy)." in
  Arg.(value & opt string "new" & info [ "kernel" ] ~doc)

let workload_arg =
  let doc = "Workload: writer, churn, thrash or ipc." in
  Arg.(value & opt string "writer" & info [ "workload" ] ~doc)

let boot_cmd =
  let run frames =
    let config =
      { K.Kernel.default_config with
        K.Kernel.hw =
          Multics_hw.Hw_config.with_frames Multics_hw.Hw_config.kernel_multics
            frames }
    in
    let k = K.Kernel.boot config in
    Format.printf "booted Kernel/Multics on %a@."
      Multics_hw.Hw_config.pp (K.Kernel.config k).K.Kernel.hw;
    Format.printf "%a@." K.Kernel.pp_report k
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot Kernel/Multics and print its report.")
    Term.(const run $ frames_arg)

let run_cmd =
  let run frames kernel workload =
    let programs = workload_of_name workload in
    match kernel with
    | "new" ->
        let config =
          { K.Kernel.default_config with
            K.Kernel.hw =
              Multics_hw.Hw_config.with_frames
                Multics_hw.Hw_config.kernel_multics frames }
        in
        let k = K.Kernel.boot config in
        K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
        List.iter
          (fun (pname, program) -> ignore (K.Kernel.spawn k ~pname program))
          programs;
        let ok = K.Kernel.run_to_completion k in
        Format.printf "all processes completed: %b@.%a@." ok K.Kernel.pp_report
          k
    | "legacy" ->
        let config =
          { L.Old_supervisor.default_config with
            L.Old_supervisor.hw =
              Multics_hw.Hw_config.with_frames
                Multics_hw.Hw_config.legacy_multics frames }
        in
        let s = L.Old_supervisor.boot config in
        L.Old_supervisor.mkdir s ~path:">home" ~acl:open_acl;
        List.iter
          (fun (pname, program) ->
            ignore (L.Old_supervisor.spawn s ~pname program))
          programs;
        let ok = L.Old_supervisor.run_to_completion s in
        Format.printf "all processes completed: %b@.%a@." ok
          L.Old_supervisor.pp_report s
    | other -> failwith ("unknown kernel: " ^ other)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a demo workload on either kernel.")
    Term.(const run $ frames_arg $ kernel_arg $ workload_arg)

let audit_cmd =
  let run () =
    List.iter
      (fun g -> Format.printf "%a@." Dg.Render.layered g)
      [ Dg.Figures.fig2_superficial (); Dg.Figures.fig3_actual ();
        Dg.Figures.fig4_redesign (); K.Registry.declared_graph () ];
    Format.printf "%a@." Multics_check.Static_audit.pp
      (Multics_check.Static_audit.lib_core ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Print the dependency structures and audit lib/core's code \
          against the declared graph.")
    Term.(const run $ const ())

let census_cmd =
  let run () =
    Format.printf "%a@." Multics_census.Report.size_table ();
    Format.printf "%a@." Multics_census.Report.entry_point_table ()
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Print the kernel-size table and entry census.")
    Term.(const run $ const ())

let salvage_cmd =
  let run () =
    let k = K.Kernel.boot K.Kernel.default_config in
    K.Kernel.mkdir k ~path:">home" ~acl:open_acl ~label:low;
    ignore (K.Kernel.spawn k ~pname:"w"
              (file_writer ~dir:">home" ~name:"f" ~pages:6));
    ignore (K.Kernel.run_to_completion k);
    (* Inject crash damage, then salvage. *)
    let disk = (K.Kernel.machine k).Multics_hw.Machine.disk in
    ignore (Multics_hw.Disk.alloc_record disk ~pack:0);
    Format.printf "scan before repair:@.";
    List.iter
      (fun f -> Format.printf "  %a@." K.Salvager.pp_finding f)
      (K.Salvager.scan k);
    let repaired = K.Salvager.repair k in
    Format.printf "repaired %d findings; scan after:@." repaired;
    (match K.Salvager.scan k with
    | [] -> Format.printf "  clean@."
    | rest -> List.iter (fun f -> Format.printf "  %a@." K.Salvager.pp_finding f) rest);
    match K.Invariants.check k with
    | [] -> Format.printf "invariants: clean@."
    | ps -> List.iter (fun p -> Format.printf "invariant: %s@." p) ps
  in
  Cmd.v
    (Cmd.info "salvage"
       ~doc:"Demonstrate the salvager: inject crash damage, scan, repair.")
    Term.(const run $ const ())

let dot_cmd =
  let run () =
    Format.printf "%a@." Dg.Render.dot (Dg.Figures.fig4_redesign ())
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Figure 4 as Graphviz for rendering.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "multics_sim" ~version:"1.0"
      ~doc:"Simulator for the Multics kernel design project (SOSP 1977)."
  in
  exit (Cmd.eval (Cmd.group info [ boot_cmd; run_cmd; audit_cmd; census_cmd; salvage_cmd; dot_cmd ]))
