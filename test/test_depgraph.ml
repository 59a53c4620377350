(* Tests for the dependency-graph library and the paper's figures. *)

module Dg = Multics_depgraph

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

let test_add_edge () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Map;
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Map;
  check Alcotest.int "nodes" 2 (Dg.Graph.n_nodes g);
  check Alcotest.int "edges deduped" 1 (Dg.Graph.n_edges g);
  check Alcotest.int "kinds accumulated" 2
    (List.length (Dg.Graph.kinds g ~from:"a" ~to_:"b"))

let test_self_edge_rejected () =
  let g = Dg.Graph.create () in
  Alcotest.check_raises "self edge"
    (Invalid_argument "Graph.add_edge: self-edge on a") (fun () ->
      Dg.Graph.add_edge g ~from:"a" ~to_:"a" Dg.Dep_kind.Component)

let test_scc_dag () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"b" ~to_:"c" Dg.Dep_kind.Component;
  check Alcotest.bool "loop free" true (Dg.Graph.is_loop_free g);
  check Alcotest.int "three sccs" 3 (List.length (Dg.Graph.sccs g))

let test_scc_cycle () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"a" ~to_:"b" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"b" ~to_:"c" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"c" ~to_:"a" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"c" ~to_:"d" Dg.Dep_kind.Component;
  check Alcotest.bool "not loop free" false (Dg.Graph.is_loop_free g);
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "cycle members"
    [ [ "a"; "b"; "c" ] ]
    (Dg.Graph.cycles g);
  check (Alcotest.option Alcotest.unit) "no layers" None
    (Option.map ignore (Dg.Graph.layers g))

let test_layers () =
  let g = Dg.Graph.create () in
  Dg.Graph.add_edge g ~from:"top" ~to_:"mid1" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"top" ~to_:"mid2" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"mid1" ~to_:"bottom" Dg.Dep_kind.Component;
  Dg.Graph.add_edge g ~from:"mid2" ~to_:"bottom" Dg.Dep_kind.Component;
  match Dg.Graph.layers g with
  | None -> Alcotest.fail "expected layers"
  | Some layers ->
      check
        (Alcotest.list (Alcotest.list Alcotest.string))
        "layering"
        [ [ "bottom" ]; [ "mid1"; "mid2" ]; [ "top" ] ]
        layers

(* Random DAG: edges only from higher to lower indices — must be
   loop-free and layerable; adding a back edge to any forward path
   introduces a cycle. *)
let prop_dag_loop_free =
  QCheck.Test.make ~name:"forward-only random graphs are loop-free" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 9) (int_bound 9)))
    (fun pairs ->
      let g = Dg.Graph.create () in
      List.iter
        (fun (a, b) ->
          let hi = max a b and lo = min a b in
          if hi <> lo then
            Dg.Graph.add_edge g ~from:(Printf.sprintf "m%d" hi)
              ~to_:(Printf.sprintf "m%d" lo) Dg.Dep_kind.Component)
        pairs;
      Dg.Graph.is_loop_free g && Dg.Graph.layers g <> None)

let prop_cycle_detected =
  QCheck.Test.make ~name:"a planted cycle is always reported" ~count:100
    QCheck.(pair (int_range 2 8) (list_of_size Gen.(0 -- 20) (pair (int_bound 9) (int_bound 9))))
    (fun (cycle_len, noise) ->
      let g = Dg.Graph.create () in
      (* noise edges, forward only, among c10..c19 *)
      List.iter
        (fun (a, b) ->
          let hi = max a b and lo = min a b in
          if hi <> lo then
            Dg.Graph.add_edge g ~from:(Printf.sprintf "n%d" hi)
              ~to_:(Printf.sprintf "n%d" lo) Dg.Dep_kind.Component)
        noise;
      for i = 0 to cycle_len - 1 do
        Dg.Graph.add_edge g
          ~from:(Printf.sprintf "c%d" i)
          ~to_:(Printf.sprintf "c%d" ((i + 1) mod cycle_len))
          Dg.Dep_kind.Component
      done;
      match Dg.Graph.cycles g with
      | [ cycle ] -> List.length cycle = cycle_len
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The paper's figures *)

let test_fig2 () =
  let g = Dg.Figures.fig2_superficial () in
  check Alcotest.int "six modules" 6 (Dg.Graph.n_nodes g);
  (* The one obvious loop: VM and processor multiplexing. *)
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "vm/process loop"
    [ [ "page_control"; "process_control"; "segment_control" ] ]
    (Dg.Graph.cycles g)

let test_fig3 () =
  let g = Dg.Figures.fig3_actual () in
  check Alcotest.bool "has loops" false (Dg.Graph.is_loop_free g);
  let cycles = Dg.Graph.cycles g in
  (* The subtle dependencies merge the middle of the system into one
     large strongly connected component. *)
  check Alcotest.int "one big scc" 1 (List.length cycles);
  let scc = List.hd cycles in
  List.iter
    (fun m ->
      check Alcotest.bool (m ^ " in scc") true (List.mem m scc))
    [ "directory_control"; "address_space_control"; "segment_control";
      "page_control"; "process_control" ];
  (* Figure 3 strictly extends Figure 2. *)
  let g2 = Dg.Figures.fig2_superficial () in
  List.iter
    (fun (from, to_, _) ->
      check Alcotest.bool
        (Printf.sprintf "edge %s->%s kept" from to_)
        true
        (Dg.Graph.mem_edge g ~from ~to_))
    (Dg.Graph.edges g2)

let test_fig4_loop_free () =
  let g = Dg.Figures.fig4_redesign () in
  check Alcotest.bool "loop free" true (Dg.Graph.is_loop_free g);
  check Alcotest.int "twelve managers" 12 (Dg.Graph.n_nodes g);
  (* Only proper dependency kinds appear in the redesign. *)
  List.iter
    (fun (from, to_, ks) ->
      List.iter
        (fun k ->
          check Alcotest.bool
            (Printf.sprintf "%s->%s kind %s proper" from to_
               (Dg.Dep_kind.to_string k))
            true (Dg.Dep_kind.proper k))
        ks)
    (Dg.Graph.edges g)

let test_fig4_blanket_rules () =
  let g = Dg.Figures.fig4_redesign () in
  (* Every module except the core segment manager depends on the core
     segment manager and on the virtual processor manager. *)
  List.iter
    (fun m ->
      if m <> "core_segment_manager" then begin
        check Alcotest.bool (m ^ " -> csm") true
          (Dg.Graph.mem_edge g ~from:m ~to_:"core_segment_manager");
        if m <> "virtual_processor_manager" then
          check Alcotest.bool (m ^ " -> vpm") true
            (List.mem Dg.Dep_kind.Interpreter
               (Dg.Graph.kinds g ~from:m ~to_:"virtual_processor_manager"))
      end)
    (Dg.Graph.nodes g);
  (* The core segment manager is the unique bottom. *)
  match Dg.Graph.layers g with
  | Some ([ "core_segment_manager" ] :: _) -> ()
  | _ -> Alcotest.fail "core segment manager must be the bottom layer"

let test_render_layered () =
  let g = Dg.Figures.fig4_redesign () in
  let s = Dg.Render.to_string Dg.Render.layered g in
  check Alcotest.bool "mentions loop-free" true
    (Astring.String.is_infix ~affix:"loop-free: yes" s)

let test_render_cyclic () =
  let g = Dg.Figures.fig3_actual () in
  let s = Dg.Render.to_string Dg.Render.layered g in
  check Alcotest.bool "mentions loops" true
    (Astring.String.is_infix ~affix:"loop-free: NO" s)

let test_render_dot () =
  let g = Dg.Figures.fig2_superficial () in
  let s = Dg.Render.to_string Dg.Render.dot g in
  check Alcotest.bool "digraph" true (Astring.String.is_prefix ~affix:"digraph" s)

let tests =
  [ Alcotest.test_case "add edge" `Quick test_add_edge;
    Alcotest.test_case "self edge rejected" `Quick test_self_edge_rejected;
    Alcotest.test_case "scc dag" `Quick test_scc_dag;
    Alcotest.test_case "scc cycle" `Quick test_scc_cycle;
    Alcotest.test_case "layers" `Quick test_layers;
    qcheck prop_dag_loop_free;
    qcheck prop_cycle_detected;
    Alcotest.test_case "figure 2" `Quick test_fig2;
    Alcotest.test_case "figure 3" `Quick test_fig3;
    Alcotest.test_case "figure 4 loop free" `Quick test_fig4_loop_free;
    Alcotest.test_case "figure 4 blanket rules" `Quick test_fig4_blanket_rules;
    Alcotest.test_case "render layered" `Quick test_render_layered;
    Alcotest.test_case "render cyclic" `Quick test_render_cyclic;
    Alcotest.test_case "render dot" `Quick test_render_dot ]
