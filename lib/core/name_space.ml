module Aim = Multics_aim

(* A cache key: the whole subject, the ring, the directory and the
   component, each in its own field, so no two distinct keys can spell
   the same probe. *)
type key = {
  k_user : string;
  k_project : string;
  k_label : int;  (* [Aim.Label.encode] *)
  k_trusted : bool;
  k_ring : int;
  k_dir : int;
  k_component : string;
}

module Cache = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_dir = b.k_dir && a.k_ring = b.k_ring && a.k_label = b.k_label
    && Bool.equal a.k_trusted b.k_trusted
    && String.equal a.k_component b.k_component
    && String.equal a.k_user b.k_user
    && String.equal a.k_project b.k_project

  let hash = Hashtbl.hash
end)

type t = {
  acct : Meter.account;
  obs : Multics_obs.Sink.t;
  gate : Gate.t;
  directory : Directory.t;
  use_cache : bool;
  (* (subject, ring, dir uid, component) -> real entry uid.  Keyed by
     the whole subject so one principal's resolutions never answer
     another's probe — the cache must not become an existence oracle.
     Only real uids are cached: mythical answers and `No_entry stay on
     the slow path, so negative results can never go stale. *)
  cache : Ids.uid Cache.t;
  mutable seen_changes : int;  (* [Directory.changes] when last read *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
}

let name = Registry.name_space

(* Bounded wired storage, like any kernel cache; past the cap the
   whole table drops rather than tracking per-entry age. *)
let cache_capacity = 512

let clear_cache t =
  Cache.reset t.cache;
  t.cache_invalidations <- t.cache_invalidations + 1

let create ?(use_cache = true) ?obs ~meter ~gate ~directory () =
  let obs =
    match obs with Some s -> s | None -> Multics_obs.Sink.detached ()
  in
  { acct = Meter.account meter name; obs; gate; directory; use_cache;
    cache = Cache.create 64; seen_changes = Directory.changes directory;
    cache_hits = 0; cache_misses = 0; cache_invalidations = 0 }

(* Deletions, ACL changes and offline packs can change what a (subject,
   dir, name) key should answer; once the directory manager's change
   count has moved, drop everything rather than chase the subset.  Read
   down before every use of the cache, so nothing below calls up. *)
let sync t =
  let changes = Directory.changes t.directory in
  if changes <> t.seen_changes then begin
    t.seen_changes <- changes;
    if Cache.length t.cache > 0 then clear_cache t
  end

let components path =
  String.split_on_char '>' path |> List.filter (fun c -> c <> "")

let cache_key ~subject ~ring ~dir_uid ~component =
  { k_user = subject.Directory.s_principal.Acl.user;
    k_project = subject.Directory.s_principal.Acl.project;
    k_label = Aim.Label.encode subject.Directory.s_label;
    k_trusted = subject.Directory.s_trusted; k_ring = ring;
    k_dir = Ids.to_int dir_uid; k_component = component }

(* One kernel search through the gate. *)
let gated_search t ~subject ~ring ~dir_uid ~component =
  Multics_obs.Sink.count t.obs "ns.search";
  (* The user-ring walker is a small, simple program. *)
  Meter.charge t.acct Cost.Pl1 (Cost.kernel_call / 2);
  match
    Gate.call t.gate ~name:"hcs_$fs_search" ~caller_ring:ring (fun () ->
        Directory.search t.directory ~subject ~dir_uid ~name:component)
  with
  | Ok result -> result
  | Error (`No_gate | `Ring_violation | `Timed_out) -> `No_entry

let search t ~subject ~ring ~dir_uid ~component =
  if not t.use_cache then gated_search t ~subject ~ring ~dir_uid ~component
  else begin
    sync t;
    let key = cache_key ~subject ~ring ~dir_uid ~component in
    match Cache.find_opt t.cache key with
    | Some uid ->
        t.cache_hits <- t.cache_hits + 1;
        Meter.charge t.acct Cost.Pl1 Cost.name_cache_hit;
        `Found uid
    | None ->
        t.cache_misses <- t.cache_misses + 1;
        let result = gated_search t ~subject ~ring ~dir_uid ~component in
        (* The search's own gate exit may have delivered a change. *)
        sync t;
        (match result with
        | `Found uid when not (Ids.is_mythical uid) ->
            if Cache.length t.cache >= cache_capacity then clear_cache t;
            Cache.replace t.cache key uid
        | `Found _ | `No_entry -> ());
        result
  end

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
      match
        Gate.call t.gate ~name:"hcs_$initiate" ~caller_ring:ring (fun () ->
            Directory.initiate_target t.directory ~subject ~dir_uid ~name:leaf)
      with
      | Ok (Ok target) -> Ok target
      | Ok (Error `No_access) -> Error `No_access
      | Error (`No_gate | `Ring_violation | `Timed_out) -> Error `No_access)

let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let cache_invalidations t =
  sync t;
  t.cache_invalidations

let cache_size t =
  sync t;
  Cache.length t.cache
