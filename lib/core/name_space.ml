module Aim = Multics_aim

type t = {
  meter : Meter.t;
  obs : Multics_obs.Sink.t;
  gate : Gate.t;
  directory : Directory.t;
  use_cache : bool;
  (* (subject, ring, dir uid, component) -> real entry uid.  Keyed by
     the whole subject so one principal's resolutions never answer
     another's probe — the cache must not become an existence oracle.
     Only real uids are cached: mythical answers and `No_entry stay on
     the slow path, so negative results can never go stale. *)
  cache : (string, Ids.uid) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
  mutable search_count : int;
}

let name = Registry.name_space

(* Bounded wired storage, like any kernel cache; past the cap the
   whole table drops rather than tracking per-entry age. *)
let cache_capacity = 512

let clear_cache t =
  Hashtbl.reset t.cache;
  t.cache_invalidations <- t.cache_invalidations + 1;
  Multics_obs.Sink.count t.obs "pathname:invalidate"

let create ?(use_cache = true) ?obs ~meter ~gate ~directory () =
  let obs =
    match obs with Some s -> s | None -> Multics_obs.Sink.detached ()
  in
  let t =
    { meter; obs; gate; directory; use_cache;
      cache = Hashtbl.create 64; cache_hits = 0; cache_misses = 0;
      cache_invalidations = 0; search_count = 0 }
  in
  (* Deletions and ACL changes can change what a (subject, dir, name)
     key should answer; drop everything rather than chase the subset. *)
  Directory.on_change directory (fun () ->
      if Hashtbl.length t.cache > 0 then clear_cache t);
  t

let components path =
  String.split_on_char '>' path |> List.filter (fun c -> c <> "")

let cache_key ~subject ~ring ~dir_uid ~component =
  Printf.sprintf "%s.%s/%d/%b/r%d/%d>%s"
    subject.Directory.s_principal.Acl.user
    subject.Directory.s_principal.Acl.project
    (Aim.Label.encode subject.Directory.s_label)
    subject.Directory.s_trusted ring (Ids.to_int dir_uid) component

(* One kernel search through the gate. *)
let gated_search t ~subject ~ring ~dir_uid ~component =
  t.search_count <- t.search_count + 1;
  Multics_obs.Sink.count t.obs "ns.search";
  (* The user-ring walker is a small, simple program. *)
  Meter.charge t.meter ~manager:name Cost.Pl1 (Cost.kernel_call / 2);
  Meter.call t.meter ~from:name ~to_:Registry.gate;
  match
    Gate.call t.gate ~name:"hcs_$fs_search" ~caller_ring:ring (fun () ->
        Directory.search t.directory ~caller:Registry.gate ~subject ~dir_uid
          ~name:component)
  with
  | Ok result -> result
  | Error (`No_gate | `Ring_violation | `Timed_out) -> `No_entry

let search t ~subject ~ring ~dir_uid ~component =
  if not t.use_cache then gated_search t ~subject ~ring ~dir_uid ~component
  else
    let key = cache_key ~subject ~ring ~dir_uid ~component in
    match Hashtbl.find_opt t.cache key with
    | Some uid ->
        t.cache_hits <- t.cache_hits + 1;
        Meter.charge t.meter ~manager:name Cost.Pl1 Cost.name_cache_hit;
        `Found uid
    | None ->
        t.cache_misses <- t.cache_misses + 1;
        let result = gated_search t ~subject ~ring ~dir_uid ~component in
        (match result with
        | `Found uid when not (Ids.is_mythical uid) ->
            if Hashtbl.length t.cache >= cache_capacity then clear_cache t;
            Hashtbl.replace t.cache key uid
        | `Found _ | `No_entry -> ());
        result

let resolve_parent t ~subject ~ring ~path =
  match List.rev (components path) with
  | [] -> Error `Bad_path
  | leaf :: rev_parents ->
      let parents = List.rev rev_parents in
      let rec walk dir_uid = function
        | [] -> Ok (dir_uid, leaf)
        | component :: rest -> (
            match search t ~subject ~ring ~dir_uid ~component with
            | `Found uid -> walk uid rest
            | `No_entry -> Error `Bad_path)
      in
      walk (Directory.root_uid t.directory) parents

let initiate t ~subject ~ring ~path =
  Multics_obs.Sink.count t.obs "ns.initiate";
  match resolve_parent t ~subject ~ring ~path with
  | Error `Bad_path -> Error `Bad_path
  | Ok (dir_uid, leaf) -> (
      Meter.call t.meter ~from:name ~to_:Registry.gate;
      match
        Gate.call t.gate ~name:"hcs_$initiate" ~caller_ring:ring (fun () ->
            Directory.initiate_target t.directory ~caller:Registry.gate
              ~subject ~dir_uid ~name:leaf)
      with
      | Ok (Ok target) -> Ok target
      | Ok (Error `No_access) -> Error `No_access
      | Error (`No_gate | `Ring_violation | `Timed_out) -> Error `No_access)

let search_calls t = t.search_count
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_invalidations t = t.cache_invalidations
let cache_size t = Hashtbl.length t.cache
