module K = Multics_kernel

type placement = In_kernel | User_ring

type t = {
  kernel : K.Kernel.t;
  placement : placement;
  snapped : (string, unit) Hashtbl.t;
  mutable crossings : int;
}

let create ~kernel ~placement =
  { kernel; placement; snapped = Hashtbl.create 32; crossings = 0 }

let meter t = K.Kernel.meter t.kernel

let charge_kernel t ns =
  K.Meter.charge (K.Meter.account (meter t) "dynamic_linker_ring0") K.Cost.Pl1
    ns

let charge_user t ns =
  K.Meter.charge (K.Meter.account (meter t) "dynamic_linker_user") K.Cost.Pl1
    ns

(* One directory probe for [symbol]. *)
let probe t ~subject ~ring ~dir ~symbol =
  let path = dir ^ ">" ^ symbol in
  match t.placement with
  | In_kernel -> (
      (* Inside ring 0 the linker walks directory control directly —
         no gates, but the walk itself is kernel code. *)
      charge_kernel t K.Cost.link_search_step;
      let dm = K.Kernel.directory t.kernel in
      let rec walk dir_uid = function
        | [] -> None
        | [ leaf ] -> (
            match
              K.Directory.initiate_target dm ~subject ~dir_uid ~name:leaf
            with
            | Ok target
              when target.K.Directory.t_mode.K.Acl.read
                   || target.K.Directory.t_mode.K.Acl.execute ->
                Some target
            | Ok _ | Error `No_access -> None)
        | comp :: rest -> (
            match
              K.Directory.search dm ~subject ~dir_uid ~name:comp
            with
            | `Found uid -> walk uid rest
            | `No_entry -> None)
      in
      match K.Name_space.components path with
      | [] -> None
      | comps -> walk (K.Directory.root_uid dm) comps)
  | User_ring -> (
      (* Each probe crosses into the kernel through the search gates. *)
      t.crossings <- t.crossings + 2;
      charge_user t K.Cost.link_search_step;
      match
        K.Name_space.initiate (K.Kernel.name_space t.kernel) ~subject ~ring
          ~path
      with
      | Ok target
        when target.K.Directory.t_mode.K.Acl.read
             || target.K.Directory.t_mode.K.Acl.execute ->
          Some target
      | Ok _ | Error (`No_access | `Bad_path) -> None)

let resolve t ~subject ~ring ~symbol ~search_rules =
  let rec try_rules = function
    | [] -> Error `Unresolved
    | dir :: rest -> (
        match probe t ~subject ~ring ~dir ~symbol with
        | Some target ->
            Hashtbl.replace t.snapped symbol ();
            (match t.placement with
            | In_kernel -> charge_kernel t K.Cost.link_snap
            | User_ring -> charge_user t K.Cost.link_snap);
            Ok (target, dir)
        | None -> try_rules rest)
  in
  try_rules search_rules

let snap_cache_lookup t ~symbol =
  (match t.placement with
  | In_kernel -> charge_kernel t (K.Cost.kernel_call / 2)
  | User_ring -> charge_user t (K.Cost.kernel_call / 2));
  Hashtbl.mem t.snapped symbol

let gate_crossings t = t.crossings
