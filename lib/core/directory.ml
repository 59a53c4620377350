module Hw = Multics_hw
module Aim = Multics_aim

type subject = {
  s_principal : Acl.principal;
  s_label : Aim.Label.t;
  s_trusted : bool;
}

type entry_kind = K_directory | K_segment

type entry_info = {
  i_name : string;
  i_uid : Ids.uid;
  i_kind : entry_kind;
  i_label : Aim.Label.t;
  i_is_quota : bool;
  i_pack : int;
}

type target = {
  t_uid : Ids.uid;
  t_cell : Quota_cell.handle;
  t_mode : Acl.mode;
  t_label : Aim.Label.t;
}

type dentry = {
  de_name : string;
  de_uid : Ids.uid;
  de_kind : entry_kind;
  mutable de_pack : int;
  mutable de_index : int;
  mutable de_acl : Acl.t;
  de_label : Aim.Label.t;
  mutable de_own_cell : Quota_cell.handle option;  (* quota directories *)
  de_slot : int;  (* position in the directory, for touch accounting *)
}

type dir = {
  d_uid : Ids.uid;
  d_label : Aim.Label.t;
  mutable d_acl : Acl.t;
  d_entries : (string, dentry) Hashtbl.t;
  mutable d_next_slot : int;
  d_cell : Quota_cell.handle;
      (* controlling cell for this directory's own pages and for
         non-quota children (see DESIGN.md: a quota directory's own
         pages charge to its parent's cell) *)
  mutable d_own_cell : Quota_cell.handle option;
}

type t = {
  acct : Meter.account;
  segment : Segment.t;
  quota : Quota_cell.t;
  quota_volume : Volume.t;
  audit : Aim.Audit.t;
  dirs : (int, dir) Hashtbl.t;  (* uid -> dir *)
  owner_of : (int, int) Hashtbl.t;  (* entry uid -> owning dir uid *)
  mutable root : Ids.uid option;
  mutable mythical_count : int;
  (* Bumped by every naming- or access-relevant mutation (delete, ACL
     change, pack offline); resolution caches above the gate read it
     and drop what they hold once it moves. *)
  mutable changes : int;
}

let name = Registry.directory_manager
let lang = Cost.Pl1

let charge t ns = Meter.charge t.acct lang ns

let entry_charge t ns = charge t (Cost.kernel_call + ns)

let create ~meter ~segment ~quota ~volume ~audit =
  { acct = Meter.account meter name; segment; quota; quota_volume = volume;
    audit;
    dirs = Hashtbl.create 32; owner_of = Hashtbl.create 64; root = None;
    mythical_count = 0; changes = 0 }

let changes t = t.changes
let note_change t = t.changes <- t.changes + 1

let flow_subject s =
  { Aim.Flow.subject_name = s.s_principal.Acl.user; label = s.s_label;
    trusted = s.s_trusted }

let words_per_entry = 16

(* Touch the directory's backing segment where its entries live: the
   component dependency on the segment manager made real.  Scanning n
   entries touches the pages that hold them. *)
let touch_entries t dir ~upto ~write =
  match Segment.find_active t.segment ~uid:dir.d_uid with
  | None -> (
      match
        Segment.activate t.segment ~uid:dir.d_uid ~cell:dir.d_cell
      with
      | Ok _ -> ()
      | Error _ -> ())
  | Some _ -> ();
  match Segment.find_active t.segment ~uid:dir.d_uid with
  | None -> ()
  | Some slot ->
      let last_page = upto * words_per_entry / Hw.Addr.page_size in
      for pageno = 0 to last_page do
        ignore (Segment.kernel_touch t.segment ~slot ~pageno ~write)
      done;
      charge t (Cost.directory_entry_op * (1 + (upto / 16)))

let find_dir t uid = Hashtbl.find_opt t.dirs (Ids.to_int uid)

let can_read_dir t subject dir =
  charge t (Cost.acl_check + Cost.aim_check);
  Acl.permits dir.d_acl subject.s_principal `Read
  && Aim.Flow.check ~audit:t.audit (flow_subject subject)
       ~object_label:dir.d_label ~object_name:"directory" `Observe

let can_modify_dir t subject dir =
  charge t (Cost.acl_check + Cost.aim_check);
  Acl.permits dir.d_acl subject.s_principal `Write
  && Aim.Flow.check ~audit:t.audit (flow_subject subject)
       ~object_label:dir.d_label ~object_name:"directory" `Modify

let create_root t ~quota_limit =
  entry_charge t Cost.directory_entry_op;
  assert (t.root = None);
  let label = Aim.Label.system_low in
  let uid, index =
    Segment.create_segment t.segment ~pack:0 ~is_directory:true
      ~label:(Aim.Label.encode label) ()
  in
  let cell =
    Quota_cell.register t.quota ~pack:0 ~vtoc_index:index
      ~limit:quota_limit ~used:0
  in
  let dir =
    { d_uid = uid; d_label = label;
      d_acl = [ Acl.entry "*" Acl.rwe ];
      d_entries = Hashtbl.create 16; d_next_slot = 0; d_cell = cell;
      d_own_cell = Some cell }
  in
  Hashtbl.replace t.dirs (Ids.to_int uid) dir;
  t.root <- Some uid;
  uid

let root_uid t =
  match t.root with
  | Some uid -> uid
  | None -> failwith "Directory.root_uid: no root created"

let mythical t ~parent ~name:entry_name =
  t.mythical_count <- t.mythical_count + 1;
  Ids.mythical ~parent ~name:entry_name

let search t ~subject ~dir_uid ~name:entry_name =
  entry_charge t Cost.directory_entry_op;
  if Ids.is_mythical dir_uid then
    (* A mythical identifier is always accepted and always matches. *)
    `Found (mythical t ~parent:dir_uid ~name:entry_name)
  else
    match find_dir t dir_uid with
    | None ->
        (* "It will even return an identifier if asked to search a
           non-existent directory." *)
        `Found (mythical t ~parent:dir_uid ~name:entry_name)
    | Some dir -> (
        let readable = can_read_dir t subject dir in
        touch_entries t dir ~upto:dir.d_next_slot ~write:false;
        match Hashtbl.find_opt dir.d_entries entry_name with
        | Some de when readable -> `Found de.de_uid
        | None when readable -> `No_entry
        | Some de ->
            (* Inaccessible directory, existing entry: return the real
               identifier so an ultimately accessible target works. *)
            `Found de.de_uid
        | None -> `Found (mythical t ~parent:dir_uid ~name:entry_name))

(* Effective mode at a target: the entry's own ACL, narrowed by the
   MITRE flow rules. *)
let effective_mode t subject (de : dentry) =
  charge t (Cost.acl_check + Cost.aim_check);
  let acl_mode = Acl.check de.de_acl subject.s_principal in
  let sub = flow_subject subject in
  let may_observe =
    Aim.Flow.check ~audit:t.audit sub ~object_label:de.de_label
      ~object_name:de.de_name `Observe
  in
  let may_modify =
    Aim.Flow.check ~audit:t.audit sub ~object_label:de.de_label
      ~object_name:de.de_name `Modify
  in
  { Acl.read = acl_mode.Acl.read && may_observe;
    write = acl_mode.Acl.write && may_modify;
    execute = acl_mode.Acl.execute && may_observe }

(* The cell that pays for pages of [dir]'s children: the directory's own
   cell when it is a quota directory, otherwise the cell it inherited.
   (A quota directory's own pages charge its parent's regime; see
   DESIGN.md.) *)
let cell_for_children dir =
  match dir.d_own_cell with Some cell -> cell | None -> dir.d_cell

let initiate_target t ~subject ~dir_uid ~name:entry_name =
  entry_charge t Cost.directory_entry_op;
  if Ids.is_mythical dir_uid then Error `No_access
  else
    match find_dir t dir_uid with
    | None -> Error `No_access
    | Some dir -> (
        touch_entries t dir ~upto:dir.d_next_slot ~write:false;
        match Hashtbl.find_opt dir.d_entries entry_name with
        | None -> Error `No_access
        | Some de ->
            let mode = effective_mode t subject de in
            if mode = Acl.no_access then Error `No_access
            else
              Ok
                { t_uid = de.de_uid; t_cell = cell_for_children dir;
                  t_mode = mode; t_label = de.de_label })

let create_entry t ~subject ~dir_uid ~name:entry_name ~kind ~acl ~label =
  entry_charge t Cost.directory_entry_op;
  if Ids.is_mythical dir_uid then Error `No_access
  else
    match find_dir t dir_uid with
    | None -> Error `No_access
    | Some dir ->
        if not (can_modify_dir t subject dir) then Error `No_access
        else if Hashtbl.mem dir.d_entries entry_name then
          Error `Name_duplicated
        else if not (Aim.Label.dominates label subject.s_label) then
          (* Creating an entry below one's own level would write
             information down. *)
          Error `Bad_label
        else begin
          let pack, _ =
            match Segment.find_active t.segment ~uid:dir.d_uid with
            | Some slot -> Segment.slot_home t.segment ~slot
            | None -> (0, 0)
          in
          let uid, index =
            Segment.create_segment t.segment ~pack
              ~is_directory:(kind = K_directory)
              ~label:(Aim.Label.encode label) ()
          in
          let de =
            { de_name = entry_name; de_uid = uid; de_kind = kind;
              de_pack = pack; de_index = index; de_acl = acl;
              de_label = label; de_own_cell = None; de_slot = dir.d_next_slot }
          in
          touch_entries t dir ~upto:(dir.d_next_slot + 1) ~write:true;
          Hashtbl.replace dir.d_entries entry_name de;
          dir.d_next_slot <- dir.d_next_slot + 1;
          Hashtbl.replace t.owner_of (Ids.to_int uid) (Ids.to_int dir_uid);
          if kind = K_directory then
            Hashtbl.replace t.dirs (Ids.to_int uid)
              { d_uid = uid; d_label = label;
                d_acl = acl; d_entries = Hashtbl.create 8; d_next_slot = 0;
                d_cell = cell_for_children dir; d_own_cell = None };
          Ok uid
        end

let delete_entry t ~subject ~dir_uid ~name:entry_name =
  entry_charge t Cost.directory_entry_op;
  match find_dir t dir_uid with
  | None -> Error `No_access
  | Some dir ->
      if not (can_modify_dir t subject dir) then Error `No_access
      else (
        match Hashtbl.find_opt dir.d_entries entry_name with
        | None -> Error `No_access
        | Some de -> (
            let not_empty =
              match find_dir t de.de_uid with
              | Some child -> Hashtbl.length child.d_entries > 0
              | None -> false
            in
            if not_empty then Error `Not_empty
            else begin
              (* Return any terminal quota to the controlling cell. *)
              (match de.de_own_cell with
              | Some own ->
                  let back = Quota_cell.limit t.quota own in
                  ignore
                    (Quota_cell.move_quota t.quota ~from:own
                       ~to_:dir.d_cell back);
                  Quota_cell.unregister t.quota own
              | None -> ());
              Segment.delete_segment t.segment ~pack:de.de_pack
                ~index:de.de_index ~cell:(cell_for_children dir);
              touch_entries t dir ~upto:(de.de_slot + 1) ~write:true;
              Hashtbl.remove dir.d_entries entry_name;
              Hashtbl.remove t.owner_of (Ids.to_int de.de_uid);
              Hashtbl.remove t.dirs (Ids.to_int de.de_uid);
              note_change t;
              Ok ()
            end))

let list_names t ~subject ~dir_uid =
  entry_charge t Cost.directory_entry_op;
  match find_dir t dir_uid with
  | None -> Error `No_access
  | Some dir ->
      if not (can_read_dir t subject dir) then Error `No_access
      else begin
        touch_entries t dir ~upto:dir.d_next_slot ~write:false;
        let infos =
          Hashtbl.fold
            (fun _ de acc ->
              { i_name = de.de_name; i_uid = de.de_uid; i_kind = de.de_kind;
                i_label = de.de_label; i_is_quota = de.de_own_cell <> None;
                i_pack = de.de_pack }
              :: acc)
            dir.d_entries []
          |> List.sort (fun a b -> compare a.i_name b.i_name)
        in
        Ok infos
      end

let set_acl t ~subject ~dir_uid ~name:entry_name ~acl =
  entry_charge t Cost.acl_check;
  match find_dir t dir_uid with
  | None -> Error `No_access
  | Some dir -> (
      if not (can_modify_dir t subject dir) then Error `No_access
      else
        match Hashtbl.find_opt dir.d_entries entry_name with
        | None -> Error `No_access
        | Some de ->
            de.de_acl <- acl;
            (* Directories carry their ACL on their own record too. *)
            (match find_dir t de.de_uid with
            | Some child -> child.d_acl <- acl
            | None -> ());
            touch_entries t dir ~upto:(de.de_slot + 1) ~write:true;
            note_change t;
            Ok ())

let set_quota t ~subject ~dir_uid ~name:entry_name ~limit =
  entry_charge t Cost.quota_check;
  match find_dir t dir_uid with
  | None -> Error `No_access
  | Some dir -> (
      if not (can_modify_dir t subject dir) then Error `No_access
      else
        match Hashtbl.find_opt dir.d_entries entry_name with
        | None -> Error `No_access
        | Some de -> (
            match find_dir t de.de_uid with
            | None -> Error `No_access  (* not a directory *)
            | Some child ->
                (* The semantic change: only childless directories may
                   change quota status, making cell binding static. *)
                if Hashtbl.length child.d_entries > 0 then Error `Has_children
                else begin
                  let cell =
                    Quota_cell.register t.quota ~pack:de.de_pack
                      ~vtoc_index:de.de_index ~limit:0 ~used:0
                  in
                  match
                    Quota_cell.move_quota t.quota
                      ~from:dir.d_cell ~to_:cell limit
                  with
                  | Error `Over_quota ->
                      Quota_cell.unregister t.quota cell;
                      Error `Over_quota
                  | Ok () ->
                      de.de_own_cell <- Some cell;
                      child.d_own_cell <- Some cell;
                      Ok ()
                end))

let clear_quota t ~subject ~dir_uid ~name:entry_name =
  entry_charge t Cost.quota_check;
  match find_dir t dir_uid with
  | None -> Error `No_access
  | Some dir -> (
      if not (can_modify_dir t subject dir) then Error `No_access
      else
        match Hashtbl.find_opt dir.d_entries entry_name with
        | None -> Error `No_access
        | Some de -> (
            match (find_dir t de.de_uid, de.de_own_cell) with
            | None, _ | _, None -> Error `No_access
            | Some child, Some own ->
                if Hashtbl.length child.d_entries > 0 then Error `Has_children
                else begin
                  let remaining = Quota_cell.limit t.quota own in
                  ignore
                    (Quota_cell.move_quota t.quota ~from:own
                       ~to_:dir.d_cell remaining);
                  Quota_cell.unregister t.quota own;
                  de.de_own_cell <- None;
                  child.d_own_cell <- None;
                  Ok ()
                end))

let handle_segment_moved t ~uid ~new_pack ~new_index =
  entry_charge t Cost.directory_entry_op;
  match Hashtbl.find_opt t.owner_of (Ids.to_int uid) with
  | None -> ()
  | Some owner -> (
      match Hashtbl.find_opt t.dirs owner with
      | None -> ()
      | Some dir ->
          Hashtbl.iter
            (fun _ de ->
              if Ids.equal de.de_uid uid then begin
                de.de_pack <- new_pack;
                de.de_index <- new_index;
                touch_entries t dir ~upto:(de.de_slot + 1) ~write:true;
                match de.de_own_cell with
                | Some cell ->
                    Quota_cell.relocated t.quota cell ~pack:new_pack
                      ~vtoc_index:new_index
                | None -> ()
              end)
            dir.d_entries)

(* The Pack_offline upward signal lands here, once per offline window
   (the disk pack manager raises it that often): let the resolution
   caches above drop entries that may point at the pack. *)
let note_pack_offline t ~pack:_ =
  entry_charge t Cost.directory_entry_op;
  note_change t

let quota_usage t ~dir_uid ~name:entry_name =
  entry_charge t Cost.quota_check;
  match find_dir t dir_uid with
  | None -> None
  | Some dir -> (
      match Hashtbl.find_opt dir.d_entries entry_name with
      | None -> None
      | Some de -> (
          match de.de_own_cell with
          | None -> None
          | Some cell ->
              Some (Quota_cell.used t.quota cell, Quota_cell.limit t.quota cell)))

let entries_index t =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ dir ->
      Hashtbl.iter
        (fun _ de -> acc := (de.de_uid, de.de_pack, de.de_index) :: !acc)
        dir.d_entries)
    t.dirs;
  !acc

let quota_attribution t =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ dir ->
      (* the directory's own backing segment *)
      acc := (dir.d_uid, dir.d_cell) :: !acc;
      (* its non-directory entries (child dirs appear via t.dirs) *)
      Hashtbl.iter
        (fun _ de ->
          if de.de_kind = K_segment then
            acc := (de.de_uid, cell_for_children dir) :: !acc)
        dir.d_entries)
    t.dirs;
  !acc

(* ------------------------------------------------------------------ *)
(* Persistence across incarnations.

   The serialised form is stored in the directory's own backing
   segment, word 0 holding the byte length and each following word four
   bytes of an OCaml-marshalled record.  (A byte-exact PL/I-style
   record layout would serve the same purpose; what matters here is
   that the bits live in simulated pages and survive the same way user
   data does.) *)

type persisted_entry = {
  pe_name : string;
  pe_uid : int;
  pe_is_dir : bool;
  pe_label : int;
  pe_acl : (string * string * bool * bool * bool) list;
}

type persisted_dir = {
  pd_acl : (string * string * bool * bool * bool) list;
  pd_entries : persisted_entry list;
}

let acl_to_wire acl =
  List.map
    (fun (e : Acl.entry) ->
      ( e.Acl.who_user, e.Acl.who_project, e.Acl.mode.Acl.read,
        e.Acl.mode.Acl.write, e.Acl.mode.Acl.execute ))
    acl

let acl_of_wire wire =
  List.map
    (fun (who_user, who_project, read, write, execute) ->
      { Acl.who_user; who_project; mode = { Acl.read; write; execute } })
    wire

let dir_slot t dir =
  match
    Segment.activate t.segment ~uid:dir.d_uid ~cell:dir.d_cell
  with
  | Ok slot -> slot
  | Error _ -> failwith "Directory: cannot activate directory segment"

let write_bytes t slot bytes =
  let len = Bytes.length bytes in
  let word_of i =
    (* word index i holds bytes 4i-2 .. 4i+1 (word 0 is the length) *)
    let b k = if k < len then Char.code (Bytes.get bytes k) else 0 in
    (b ((4 * i) - 4) lsl 24) lor (b ((4 * i) - 3) lsl 16)
    lor (b ((4 * i) - 2) lsl 8)
    lor b ((4 * i) - 1)
  in
  let n_words = 1 + ((len + 3) / 4) in
  let put index value =
    let pageno = index / Hw.Addr.page_size in
    let offset = index mod Hw.Addr.page_size in
    match Segment.write_word t.segment ~slot ~pageno ~offset value with
    | Ok () -> ()
    | Error e ->
        failwith
          (Printf.sprintf "Directory.persist: cannot write directory page (%s)"
             (match e with
             | `Over_quota -> "over quota"
             | `No_space -> "no space"
             | `Damaged -> "page damaged"))
  in
  put 0 len;
  for i = 1 to n_words - 1 do
    put i (word_of i)
  done

let read_bytes t slot =
  let get index =
    let pageno = index / Hw.Addr.page_size in
    let offset = index mod Hw.Addr.page_size in
    match Segment.read_word t.segment ~slot ~pageno ~offset with
    | Ok w -> w
    | Error _ -> failwith "Directory.restore: unreadable directory segment"
  in
  let len = get 0 in
  (* A crash before the first persist leaves garbage here; bound the
     claimed length by what the backing segment could actually hold. *)
  let max_len = Segment.pt_words t.segment * Hw.Addr.page_size * 4 in
  if len < 0 || len > max_len then
    failwith "Directory.restore: implausible payload length";
  let bytes = Bytes.create len in
  for k = 0 to len - 1 do
    let w = get (1 + (k / 4)) in
    let shift = 24 - (8 * (k mod 4)) in
    Bytes.set bytes k (Char.chr ((w lsr shift) land 0xff))
  done;
  bytes

let persist t =
  entry_charge t Cost.vtoc_write;
  Hashtbl.iter
    (fun _ dir ->
      let entries =
        Hashtbl.fold (fun _ de acc -> de :: acc) dir.d_entries []
        |> List.sort (fun a b -> compare a.de_slot b.de_slot)
        |> List.map (fun de ->
               { pe_name = de.de_name; pe_uid = Ids.to_int de.de_uid;
                 pe_is_dir = (de.de_kind = K_directory);
                 pe_label = Aim.Label.encode de.de_label;
                 pe_acl = acl_to_wire de.de_acl })
      in
      let payload = { pd_acl = acl_to_wire dir.d_acl; pd_entries = entries } in
      let bytes = Bytes.of_string (Marshal.to_string payload []) in
      write_bytes t (dir_slot t dir) bytes)
    t.dirs

let restore t =
  entry_charge t Cost.vtoc_read;
  assert (t.root = None);
  let volume_vtoc ~pack ~index =
    Volume.vtoc t.quota_volume ~pack ~index
  in
  (* The root is VTOC entry 0 of pack 0 by construction. *)
  let root_vtoc = volume_vtoc ~pack:0 ~index:0 in
  let root_uid = Ids.of_int root_vtoc.Hw.Disk.uid in
  let root_cell =
    match root_vtoc.Hw.Disk.quota with
    | Some q ->
        Quota_cell.register t.quota ~pack:0 ~vtoc_index:0
          ~limit:q.Hw.Disk.limit ~used:q.Hw.Disk.used
    | None -> failwith "Directory.restore: root has no quota cell"
  in
  let rec restore_dir ~uid ~inherited_cell ~label ~fallback_acl =
    let pack, index =
      match Volume.locate t.quota_volume ~uid with
      | Some home -> home
      | None -> failwith "Directory.restore: directory gone"
    in
    let vtoc = volume_vtoc ~pack ~index in
    let own_cell =
      if Ids.equal uid root_uid then Some root_cell
      else
        match vtoc.Hw.Disk.quota with
        | Some q ->
            Some
              (Quota_cell.register t.quota ~pack ~vtoc_index:index
                 ~limit:q.Hw.Disk.limit ~used:q.Hw.Disk.used)
        | None -> None
    in
    let dir =
      { d_uid = uid; d_label = label;
        d_acl = fallback_acl; d_entries = Hashtbl.create 8; d_next_slot = 0;
        d_cell = inherited_cell; d_own_cell = own_cell }
    in
    Hashtbl.replace t.dirs (Ids.to_int uid) dir;
    let slot =
      match Segment.activate t.segment ~uid ~cell:inherited_cell with
      | Ok slot -> slot
      | Error _ -> failwith "Directory.restore: cannot activate"
    in
    let payload : persisted_dir =
      (* A crash may have left this directory's payload unwritten,
         torn, or stale.  An unreadable payload restores as an empty
         directory — its segments survive as VTOC entries, and the
         salvager reports them as orphans rather than losing the whole
         hierarchy below this point. *)
      try Marshal.from_string (Bytes.to_string (read_bytes t slot)) 0
      with _ -> { pd_acl = acl_to_wire fallback_acl; pd_entries = [] }
    in
    dir.d_acl <- acl_of_wire payload.pd_acl;
    let child_cell = cell_for_children dir in
    List.iter
      (fun pe ->
        let de_uid = Ids.of_int pe.pe_uid in
        let de_pack, de_index =
          match Volume.locate t.quota_volume ~uid:de_uid with
          | Some home -> home
          | None -> (pack, index)  (* stale; the salvager's business *)
        in
        let de =
          { de_name = pe.pe_name; de_uid; de_kind =
              (if pe.pe_is_dir then K_directory else K_segment);
            de_pack; de_index; de_acl = acl_of_wire pe.pe_acl;
            de_label = Aim.Label.decode pe.pe_label; de_own_cell = None;
            de_slot = dir.d_next_slot }
        in
        Hashtbl.replace dir.d_entries pe.pe_name de;
        dir.d_next_slot <- dir.d_next_slot + 1;
        Hashtbl.replace t.owner_of pe.pe_uid (Ids.to_int uid);
        if pe.pe_is_dir then begin
          restore_dir ~uid:de_uid ~inherited_cell:child_cell
            ~label:de.de_label ~fallback_acl:de.de_acl;
          (* Re-link the child's own cell into its entry. *)
          match Hashtbl.find_opt t.dirs pe.pe_uid with
          | Some child -> de.de_own_cell <- child.d_own_cell
          | None -> ()
        end)
      payload.pd_entries
  in
  restore_dir ~uid:root_uid ~inherited_cell:root_cell
    ~label:Aim.Label.system_low ~fallback_acl:[ Acl.entry "*" Acl.rwe ];
  t.root <- Some root_uid

let mythical_answers t = t.mythical_count
