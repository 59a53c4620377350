module Dg = Multics_depgraph
module R = Multics_kernel.Registry

type edge = { from : string; to_ : string; witnesses : string list }

type t = {
  modules : int;
  edges : edge list;
  undeclared : edge list;
  unmapped : string list;
  infrastructure_refs : (string * string) list;
  loops : string list list;
  unreferenced : (string * string) list;
}

(* "../core/segment.ml: A B" -> ("segment.ml", ["A"; "B"]) *)
let parse_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let refs =
        String.sub line (i + 1) (String.length line - i - 1)
        |> String.split_on_char ' '
        |> List.filter (( <> ) "")
      in
      Some (Filename.basename (String.sub line 0 i), refs)

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension file)

let of_text text =
  let files = String.split_on_char '\n' text |> List.filter_map parse_line in
  let role m = List.assoc_opt m R.modules in
  let unmapped =
    List.filter_map
      (fun (file, _) ->
        let m = module_of_file file in
        if role m = None then Some m else None)
      files
  in
  (* ((from node, to node), witness), in file order *)
  let refs, infrastructure_refs =
    List.concat_map
      (fun (file, refs) ->
        let m = module_of_file file in
        List.filter_map
          (fun r ->
            match (role m, role r) with
            | Some (R.Node a), Some (R.Node b) when a <> b ->
                Some (Either.Left ((a, b), file ^ ": " ^ r))
            | Some R.Infrastructure, Some (R.Node _) ->
                Some (Either.Right (m, r))
            | _ -> None)
          refs)
      files
    |> List.partition_map Fun.id
  in
  let edges =
    List.sort_uniq compare (List.map fst refs)
    |> List.map (fun (from, to_) ->
           { from; to_;
             witnesses =
               List.filter_map
                 (fun (k, w) -> if k = (from, to_) then Some w else None)
                 refs })
  in
  let code = Dg.Graph.create ~name:"lib/core, read from the code" () in
  List.iter
    (fun e ->
      Dg.Graph.add_edge code ~from:e.from ~to_:e.to_ Dg.Dep_kind.Explicit_call)
    edges;
  let declared = R.declared_graph () in
  let unreferenced =
    Dg.Graph.edges declared
    |> List.filter_map (fun (from, to_, kinds) ->
           let callable =
             List.exists
               Dg.Dep_kind.(fun k -> k = Component || k = Explicit_call)
               kinds
           in
           if callable && not (Dg.Graph.mem_edge code ~from ~to_) then
             Some (from, to_)
           else None)
  in
  { modules = List.length files; edges;
    undeclared =
      List.filter
        (fun e -> not (Dg.Graph.mem_edge declared ~from:e.from ~to_:e.to_))
        edges;
    unmapped; infrastructure_refs; loops = Dg.Graph.cycles code; unreferenced }

let lib_core () = of_text Core_modules.text

let ok t =
  t.undeclared = [] && t.unmapped = [] && t.infrastructure_refs = []
  && t.loops = []

let pp ppf t =
  Format.fprintf ppf
    "static dependency audit: %d lib/core modules, %d edges between nodes@."
    t.modules (List.length t.edges);
  List.iter
    (fun e ->
      Format.fprintf ppf "  UNDECLARED: %s -> %s (%s)@." e.from e.to_
        (String.concat ", " e.witnesses))
    t.undeclared;
  List.iter
    (fun m -> Format.fprintf ppf "  UNMAPPED: %s is in no Registry table@." m)
    t.unmapped;
  List.iter
    (fun (m, r) ->
      Format.fprintf ppf "  INFRASTRUCTURE: %s references %s@." m r)
    t.infrastructure_refs;
  List.iter
    (fun loop -> Format.fprintf ppf "  LOOP: %s@." (String.concat ", " loop))
    t.loops;
  if ok t then
    Format.fprintf ppf
      "  every edge declared, every module mapped, no loop@.";
  match t.unreferenced with
  | [] -> Format.fprintf ppf "  every declared call edge is in the code@."
  | rest ->
      Format.fprintf ppf
        "  declared call edges no code references (coverage gaps an \
         auditor would note):@.";
      List.iter
        (fun (from, to_) -> Format.fprintf ppf "    %s -> %s@." from to_)
        rest
