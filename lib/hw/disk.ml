exception Pack_full of int

let zero_page = -1
let unallocated = -2

type quota_cell = { mutable limit : int; mutable used : int }

type vtoc_entry = {
  uid : int;
  mutable file_map : int array;
  mutable is_directory : bool;
  mutable quota : quota_cell option;
  mutable aim_label : int;
  mutable damaged : bool;
  is_process_state : bool;
}

type pack = {
  records : (int, Page_image.t) Hashtbl.t;
  mutable free : int list;
  (* Mirror of [free] for O(1) membership tests; the list is kept for
     allocation order. *)
  free_map : bool array;
  mutable n_free : int;
  vtoc : (int, vtoc_entry) Hashtbl.t;
  mutable next_vtoc : int;
  (* Records retired after repeated I/O failures: never free, never
     allocatable again.  Torn records lost a buffered write-behind to a
     power failure; the mark survives reboot for the salvager. *)
  dead : (int, unit) Hashtbl.t;
  torn : (int, unit) Hashtbl.t;
}

type t = {
  packs : pack array;
  records_per_pack : int;
  read_latency_ns : int;
  mutable io_count : int;
}

let records_per_pack_limit = 4096

let create ~packs ~records_per_pack ~read_latency_ns =
  assert (packs > 0 && packs <= 64);
  assert (records_per_pack > 0 && records_per_pack <= records_per_pack_limit);
  let make_pack _ =
    { records = Hashtbl.create 64;
      free = List.init records_per_pack (fun i -> i);
      free_map = Array.make records_per_pack true;
      n_free = records_per_pack;
      vtoc = Hashtbl.create 16;
      next_vtoc = 0;
      dead = Hashtbl.create 4;
      torn = Hashtbl.create 4 }
  in
  { packs = Array.init packs make_pack; records_per_pack; read_latency_ns;
    io_count = 0 }

let n_packs t = Array.length t.packs
let records_per_pack t = t.records_per_pack

let get_pack t pack =
  assert (pack >= 0 && pack < Array.length t.packs);
  t.packs.(pack)

let free_records t ~pack = (get_pack t pack).n_free

let handle ~pack ~record =
  assert (record >= 0 && record < records_per_pack_limit);
  (pack * records_per_pack_limit) + record

let pack_of_handle h = h / records_per_pack_limit
let record_of_handle h = h mod records_per_pack_limit

let alloc_record t ~pack =
  let p = get_pack t pack in
  match p.free with
  | [] -> raise (Pack_full pack)
  | record :: rest ->
      p.free <- rest;
      p.free_map.(record) <- false;
      p.n_free <- p.n_free - 1;
      record

let free_record t ~pack ~record =
  let p = get_pack t pack in
  Hashtbl.remove p.records record;
  (* A dead record is retired, not recycled: its contents drop but it
     never rejoins the free list, so allocation can't reissue it. *)
  if not (Hashtbl.mem p.dead record) then begin
    p.free <- record :: p.free;
    p.free_map.(record) <- true;
    p.n_free <- p.n_free + 1
  end

let record_is_free t ~pack ~record =
  let p = get_pack t pack in
  record >= 0 && record < Array.length p.free_map && p.free_map.(record)

let mark_dead t ~pack ~record =
  let p = get_pack t pack in
  if not (Hashtbl.mem p.dead record) then begin
    Hashtbl.replace p.dead record ();
    (* If it was free, pull it out of the allocator's reach. *)
    if p.free_map.(record) then begin
      p.free <- List.filter (fun r -> r <> record) p.free;
      p.free_map.(record) <- false;
      p.n_free <- p.n_free - 1
    end
  end

(* Both sets are empty on a healthy pack, so the common probe reads a
   length and hashes nothing. *)
let record_is_dead t ~pack ~record =
  let p = get_pack t pack in
  Hashtbl.length p.dead > 0 && Hashtbl.mem p.dead record

let dead_records t ~pack =
  Hashtbl.fold (fun r () acc -> r :: acc) (get_pack t pack).dead []
  |> List.sort compare

let mark_torn t ~pack ~record =
  Hashtbl.replace (get_pack t pack).torn record ()

let clear_torn t ~pack ~record = Hashtbl.remove (get_pack t pack).torn record

let record_is_torn t ~pack ~record =
  let p = get_pack t pack in
  Hashtbl.length p.torn > 0 && Hashtbl.mem p.torn record

let torn_records t ~pack =
  Hashtbl.fold (fun r () acc -> r :: acc) (get_pack t pack).torn []
  |> List.sort compare

let read_record t ~pack ~record =
  let p = get_pack t pack in
  t.io_count <- t.io_count + 1;
  match Hashtbl.find_opt p.records record with
  | Some img -> img
  | None -> Page_image.zero ()

let write_record t ~pack ~record img =
  let p = get_pack t pack in
  t.io_count <- t.io_count + 1;
  Hashtbl.replace p.records record img

let io_latency_ns t = t.read_latency_ns

(* Seek dominates a record transfer on 1970s moving-head packs; the
   split keeps seek + transfer equal to the flat latency, so batched
   and synchronous cost models agree on an isolated transfer. *)
let seek_latency_ns t = t.read_latency_ns * 3 / 5
let transfer_latency_ns t = t.read_latency_ns - seek_latency_ns t

let create_vtoc_entry t ~pack entry =
  let p = get_pack t pack in
  let index = p.next_vtoc in
  p.next_vtoc <- index + 1;
  Hashtbl.replace p.vtoc index entry;
  index

let vtoc_entry t ~pack ~index =
  match Hashtbl.find_opt (get_pack t pack).vtoc index with
  | Some e -> e
  | None -> raise Not_found

let delete_vtoc_entry t ~pack ~index = Hashtbl.remove (get_pack t pack).vtoc index

let vtoc_entries t ~pack =
  Hashtbl.fold (fun i e acc -> (i, e) :: acc) (get_pack t pack).vtoc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let emptiest_pack t ~except =
  let best = ref None in
  Array.iteri
    (fun i p ->
      if i <> except && p.n_free > 0 then
        match !best with
        | Some (_, free) when free >= p.n_free -> ()
        | _ -> best := Some (i, p.n_free))
    t.packs;
  Option.map fst !best

let io_count t = t.io_count

let len_pages e =
  let map = e.file_map in
  let rec last i =
    if i < 0 || map.(i) <> unallocated then i + 1 else last (i - 1)
  in
  last (Array.length map - 1)

let fingerprint t =
  let h = ref 0 in
  let mix v = h := (((!h * 31) + v + 1) lxor (!h lsr 17)) land max_int in
  for pack = 0 to n_packs t - 1 do
    List.iter
      (fun (index, e) ->
        mix index;
        mix e.uid;
        Array.iter
          (fun handle ->
            mix handle;
            if handle >= 0 then
              Page_image.iter mix
                (read_record t ~pack:(pack_of_handle handle)
                   ~record:(record_of_handle handle)))
          e.file_map)
      (vtoc_entries t ~pack)
  done;
  !h
